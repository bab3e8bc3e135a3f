"""Exception hierarchy shared across the package, and the JSON shape tests
the file readers use to turn a malformed file into a ``DataError``."""


class VeritagError(Exception):
    """Base class for all package errors."""


class DataError(VeritagError):
    """Malformed or inconsistent input data (corpus files, dictionaries, models)."""


class ConfigError(VeritagError):
    """Invalid configuration or unusable parameter combination."""


class InvariantError(VeritagError):
    """An internal invariant was violated; indicates a bug, not bad input."""


def is_str_list(value: object) -> bool:
    """A JSON array of strings."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def is_number_map(value: object) -> bool:
    """A JSON object whose values are all numbers."""
    return isinstance(value, dict) and all(
        isinstance(v, (int, float)) for v in value.values()
    )
