"""Bundled resource lists and their loaders.

Every list is a plain data file in this directory so the features computed
from it are reproducible bit-for-bit. Word lists hold one entry per line,
with ``#`` comments. Only ``--ad-domains`` and ``--dictionary`` replace
a bundled list, the ad-domain list and the category dictionary, each with
a user-supplied file. The stopword, easy-word and abbreviation lists, the
tag-group table and the reference text are always the bundled ones.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources as _res
from pathlib import Path

from ..errors import read_input


def _path(name: str) -> Path:
    return Path(str(_res.files(__package__).joinpath(name)))


def load_wordlist(path: str | Path) -> frozenset[str]:
    """Load a one-entry-per-line list, lowercased, ignoring blanks and # comments."""
    entries = []
    for line in read_input(path, "word list").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(line.lower())
    return frozenset(entries)


@lru_cache(maxsize=None)
def stopwords() -> frozenset[str]:
    return load_wordlist(_path("stopwords.txt"))


@lru_cache(maxsize=None)
def easy_words() -> frozenset[str]:
    return load_wordlist(_path("easy_words.txt"))


@lru_cache(maxsize=None)
def abbreviations() -> frozenset[str]:
    return load_wordlist(_path("abbreviations.txt"))


@lru_cache(maxsize=None)
def ad_domains() -> frozenset[str]:
    return load_wordlist(_path("ad_domains.txt"))


@lru_cache(maxsize=None)
def tag_groups() -> dict[str, tuple[str, ...]]:
    """The pinned tag -> functional-group table. Groups are disjoint."""
    raw = json.loads(_path("tag_groups.json").read_text(encoding="utf-8"))
    return {group: tuple(tags) for group, tags in raw.items()}


def demo_dictionary_path() -> Path:
    """Filesystem path of the small bundled category dictionary."""
    return _path("demo_dictionary.dic")


@lru_cache(maxsize=None)
def reference_text() -> str:
    """Ten-sentence English text used as the readability oracle fixture."""
    return _path("reference_text.txt").read_text(encoding="utf-8")
