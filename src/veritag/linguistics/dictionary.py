"""Category dictionaries in the %-delimited tab-separated .dic layout.

File layout: a header block between two lines containing only ``%``, each
header line being ``id<TAB>name``; after the second ``%``, pattern lines of
``pattern<TAB>id[<TAB>id...]``. A ``*`` is allowed only as the final
character of a pattern and makes it a case-insensitive prefix match;
everything else matches by case-insensitive equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from ..errors import DataError, read_input
from .text import lowered_census, token_census

_NO_HITS: frozenset[int] = frozenset()


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
        return self._match_lowered(token.lower())

    def _match_lowered(self, token: str) -> frozenset[int]:
        """``match`` for a token that is already lowercased. A token that
        one pattern hits gets that pattern's stored set; only a token that
        several hit builds a new one."""
        hits = self._literal.get(token, _NO_HITS)
        prefix = self._prefix
        for k in self._prefix_lens:
            if k > len(token):
                break
            found = prefix.get(token[:k])
            if found is not None:
                hits = hits | found if hits else found
        return hits


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
    tokens: Sequence[str],
    dictionary: CategoryDictionary,
    lowered: Mapping[str, int] | None = None,
) -> dict[str, float]:
    """Percent of tokens matching each category; all 0 for empty input.

    A token may count toward several categories but counts once per category.
    Matching is case-insensitive, so each distinct lowercased token is
    matched once and weighted by its count. ``lowered`` is the tokens'
    lowercased census (``TokenizedText.lowered``); without it one is taken.
    """
    if lowered is None:
        lowered = lowered_census(token_census(tokens))
    match = dictionary._match_lowered
    counts = [0] * len(dictionary.categories)
    for token, n in lowered.items():
        for idx in match(token):
            counts[idx] += n
    total = len(tokens)
    if total == 0:
        return {name: 0.0 for name in dictionary.categories}
    return {
        name: 100.0 * counts[i] / total for i, name in enumerate(dictionary.categories)
    }
