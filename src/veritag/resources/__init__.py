"""Bundled resource lists and their loaders.

Every list is a plain data file in this directory so the features computed
from it are reproducible bit-for-bit. Word lists hold one entry per line,
with ``#`` comments. Only the ad-domain list and the category dictionary
can be replaced with a user-supplied file (``--ad-domains``,
``--dictionary``). The stopword, easy-word and abbreviation lists can be
replaced only through the keyword arguments of the functions that read
them; the tag-group table and the reference text cannot be replaced.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources as _res
from pathlib import Path

from ..errors import read_input


def _read_resource(name: str) -> str:
    return _res.files(__package__).joinpath(name).read_text(encoding="utf-8")


def load_wordlist(path: str | Path | None = None, *, resource: str | None = None) -> frozenset[str]:
    """Load a one-entry-per-line list, lowercased, ignoring blanks and # comments."""
    if path is not None:
        text = read_input(path, "word list")
    elif resource is not None:
        text = _read_resource(resource)
    else:
        raise ValueError("either path or resource is required")
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(line.lower())
    return frozenset(entries)


@lru_cache(maxsize=None)
def stopwords() -> frozenset[str]:
    return load_wordlist(resource="stopwords.txt")


@lru_cache(maxsize=None)
def easy_words() -> frozenset[str]:
    return load_wordlist(resource="easy_words.txt")


@lru_cache(maxsize=None)
def abbreviations() -> frozenset[str]:
    return load_wordlist(resource="abbreviations.txt")


@lru_cache(maxsize=None)
def ad_domains() -> frozenset[str]:
    return load_wordlist(resource="ad_domains.txt")


@lru_cache(maxsize=None)
def tag_groups() -> dict[str, tuple[str, ...]]:
    """The pinned tag -> functional-group table. Groups are disjoint."""
    raw = json.loads(_read_resource("tag_groups.json"))
    return {group: tuple(tags) for group, tags in raw.items()}


def demo_dictionary_path() -> Path:
    """Filesystem path of the small bundled category dictionary."""
    return Path(str(_res.files(__package__).joinpath("demo_dictionary.dic")))


@lru_cache(maxsize=None)
def reference_text() -> str:
    """Ten-sentence English text used as the readability oracle fixture."""
    return _read_resource("reference_text.txt")
