"""Category dictionaries in the %-delimited tab-separated .dic layout.

File layout: a header block between two lines containing only ``%``, each
header line being ``id<TAB>name``; after the second ``%``, pattern lines of
``pattern<TAB>id[<TAB>id...]``. A ``*`` is allowed only as the final
character of a pattern and makes it a case-insensitive prefix match;
everything else matches by case-insensitive equality.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..errors import DataError, read_input


@dataclass
class CategoryDictionary:
    categories: list[str]
    patterns: list[tuple[str, tuple[int, ...]]]

    # match structures, derived once in __post_init__
    _literal: dict[str, frozenset[int]] = field(default_factory=dict, repr=False)
    _prefix: dict[str, frozenset[int]] = field(default_factory=dict, repr=False)
    _prefix_lens: tuple[int, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        if len(set(self.categories)) != len(self.categories):
            raise DataError("duplicate category names in dictionary")
        n = len(self.categories)
        literal: dict[str, set[int]] = {}
        prefix: dict[str, set[int]] = {}
        for pattern, cats in self.patterns:
            if not cats:
                raise DataError(f"pattern {pattern!r} references no category")
            for c in cats:
                if not 0 <= c < n:
                    raise DataError(f"pattern {pattern!r} references invalid category index {c}")
            if pattern.endswith("*"):
                prefix.setdefault(pattern[:-1].lower(), set()).update(cats)
            else:
                literal.setdefault(pattern.lower(), set()).update(cats)
        self._literal = {k: frozenset(v) for k, v in literal.items()}
        self._prefix = {k: frozenset(v) for k, v in prefix.items()}
        # the distinct prefix lengths, ascending; 0 stands for a bare "*"
        self._prefix_lens = tuple(sorted({len(k) for k in self._prefix}))

    def match(self, token: str) -> frozenset[int]:
        """Category indices whose patterns match the token."""
        t = token.lower()
        hits: set[int] = set()
        hits.update(self._literal.get(t, ()))
        for k in self._prefix_lens:
            if k > len(t):
                break
            hits.update(self._prefix.get(t[:k], ()))
        return frozenset(hits)


def load_dictionary(path: str | Path) -> CategoryDictionary:
    """Parse a .dic file; raises DataError naming the offending line."""
    lines = read_input(path, "dictionary").splitlines()
    id_to_index: dict[str, int] = {}
    categories: list[str] = []
    patterns: list[tuple[str, tuple[int, ...]]] = []
    state = "preamble"  # -> header -> patterns
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "%":
            if state == "preamble":
                state = "header"
            elif state == "header":
                state = "patterns"
            else:
                raise DataError(f"{path}:{lineno}: unexpected '%' delimiter")
            continue
        if state == "preamble":
            raise DataError(f"{path}:{lineno}: expected '%' header delimiter")
        fields = line.split("\t")
        if state == "header":
            if len(fields) != 2:
                raise DataError(f"{path}:{lineno}: header line must be 'id<TAB>name'")
            cat_id, name = fields[0].strip(), fields[1].strip()
            if cat_id in id_to_index:
                raise DataError(f"{path}:{lineno}: duplicate category id {cat_id!r}")
            if name in categories:
                raise DataError(f"{path}:{lineno}: duplicate category name {name!r}")
            id_to_index[cat_id] = len(categories)
            categories.append(name)
        else:
            if len(fields) < 2:
                raise DataError(f"{path}:{lineno}: pattern line must be 'pattern<TAB>id...'")
            pattern = fields[0].strip()
            if not pattern:
                raise DataError(f"{path}:{lineno}: empty pattern")
            if "*" in pattern[:-1]:
                raise DataError(f"{path}:{lineno}: '*' allowed only as final character")
            cats = []
            for ref in fields[1:]:
                ref = ref.strip()
                if ref not in id_to_index:
                    raise DataError(f"{path}:{lineno}: undeclared category id {ref!r}")
                cats.append(id_to_index[ref])
            patterns.append((pattern, tuple(cats)))
    if state != "patterns":
        raise DataError(f"{path}: missing '%' header delimiters")
    return CategoryDictionary(categories=categories, patterns=patterns)


def dictionary_scores(
    tokens: Sequence[str], dictionary: CategoryDictionary
) -> dict[str, float]:
    """Percent of tokens matching each category; all 0 for empty input.

    A token may count toward several categories but counts once per category.
    Matching is case-insensitive, so each distinct lowercased token is
    matched once and weighted by its count.
    """
    counts = [0] * len(dictionary.categories)
    for token, n in Counter(map(str.lower, tokens)).items():
        for idx in dictionary.match(token):
            counts[idx] += n
    total = len(tokens)
    if total == 0:
        return {name: 0.0 for name in dictionary.categories}
    return {
        name: 100.0 * counts[i] / total for i, name in enumerate(dictionary.categories)
    }
