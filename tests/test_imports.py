"""No module imports a name it never uses.

The package's ``__init__.py`` files are export maps, which import names
only to re-export them, so they are not scanned. Elsewhere a re-export
says so with ``# noqa: F401`` on its import line."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import veritag

PACKAGE = Path(veritag.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports without a ``# noqa: F401`` on the
    import's first line and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", ["line 1: os"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb\n", ["line 1: c"]),
        ("from a import (\n    b,\n    c,\n)\nc()\n", ["line 1: b"]),
        ("from a import b  # noqa: F401  (re-exported)\n", []),
        ("from __future__ import annotations\n", []),
        ("def f():\n    from a import b\n    return b\n", []),
        ("from a import b\nb = 1\n", ["line 1: b"]),
        ("from a import T\nx: T\n", []),
    ],
)
def test_the_scan(source, unused):
    assert unused_imports(source) == unused
