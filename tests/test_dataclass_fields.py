"""No dataclass in the package takes derived state through its constructor.

A dataclass field is a value a caller passes in. A value derived from the
other fields (a lookup table, an index, a cached array) is set in
``__post_init__`` or is a property, so no caller can pass one that
disagrees. By convention such a value has a name starting with ``_``;
declared as a field, it would become a constructor argument."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import veritag

PACKAGE = Path(veritag.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def _is_dataclass_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name == "dataclass"


def private_fields(source: str) -> list[str]:
    """``Class._name`` for each field whose name starts with ``_`` in a
    class that ``source`` decorates with ``@dataclass``."""
    return [
        f"{node.name}.{item.target.id}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass_decorator, node.decorator_list))
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and item.target.id.startswith("_")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_dataclass_field_is_private(path):
    assert private_fields(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("@dataclass\nclass A:\n    x: int\n    _y: int = 0\n", ["A._y"]),
        ("@dataclass(frozen=True)\nclass A:\n    _y: dict\n", ["A._y"]),
        ("@dataclasses.dataclass\nclass A:\n    _y: int\n", ["A._y"]),
        ("class A:\n    _y: int = 0\n", []),
        ("@dataclass\nclass A:\n    def f(self):\n        self._y: int = 0\n", []),
        ("@dataclass\nclass A:\n    x: int\n    def __post_init__(self):\n"
         "        self._y = self.x\n", []),
    ],
)
def test_the_scan(source, found):
    assert private_fields(source) == found
