"""Exception hierarchy shared across the package, and the helpers every
input-file reader uses to turn bytes into text or JSON, and a missing,
unreadable, non-UTF-8 or malformed file into a ``VeritagError``."""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Iterator


class VeritagError(Exception):
    """Base class for all package errors."""


class DataError(VeritagError):
    """Malformed or inconsistent input data (corpus files, dictionaries, models)."""


class ConfigError(VeritagError):
    """Invalid configuration or unusable parameter combination."""


class InvariantError(VeritagError):
    """An internal invariant was violated; indicates a bug, not bad input."""


def read_input(path: str | Path, what: str, error: type[VeritagError] = DataError) -> str:
    """The file's UTF-8 text, line ends untouched."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def parse_json(text: str, where: object, error: type[VeritagError] = DataError):
    """Decoded JSON; deep nesting raises ``RecursionError``, not
    ``JSONDecodeError``, so both are bad input."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{where}: invalid JSON: {exc}") from exc


def read_json(path: str | Path, what: str, error: type[VeritagError] = DataError):
    return parse_json(read_input(path, what, error), path, error)


def iter_jsonl(path: str | Path, what: str) -> Iterator[tuple[str, dict]]:
    """``(where, record)`` for each non-blank line of a JSONL file, where
    ``where`` is ``path:lineno``. Lines split as ``open()`` splits them,
    not at the other separators ``str.splitlines`` knows (U+2028, ...)."""
    for lineno, line in enumerate(io.StringIO(read_input(path, what), newline=None), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        record = parse_json(line, where)
        if not isinstance(record, dict):
            raise DataError(f"{where}: expected a JSON object")
        yield where, record


def is_str_list(value: object) -> bool:
    """A JSON array of strings."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def is_number_map(value: object) -> bool:
    """A JSON object whose values are all numbers."""
    return isinstance(value, dict) and all(
        isinstance(v, (int, float)) for v in value.values()
    )
