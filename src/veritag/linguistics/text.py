"""Tokenization, sentence splitting, and syllable counting.

These are the word/sentence/character primitives every linguistic feature
group is built on, so their behavior is pinned exactly:

- a token is a maximal run of letters/digits, with internal apostrophes kept
  ("don't" is one token); URLs are recognized first and kept whole;
- sentences split on runs of ``. ! ?`` (optionally followed by closing
  quotes/brackets) when followed by whitespace plus a capital letter or end
  of text, except after a listed abbreviation or a single-letter initial;
- syllables are vowel-group counts (runs of ``aeiouy``) minus a silent
  trailing "e", unless the word ends in consonant+"le"; minimum 1.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice

from .. import resources

URL_RE = re.compile(r"(?:https?://|www\.)[^\s<>\"']+")
WORD_RE = re.compile(r"[^\W_]+(?:'[^\W_]+)*")
VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")
# A match can only succeed from the first mark of a run of ``.!?``, so the
# lookbehind skips the other starts, each of which would rescan the rest of
# the run: without it a long run of marks costs time quadratic in its length.
_BOUNDARY_RE = re.compile(r"(?<![.!?])[.!?]+[\"'”’)\]]*(?=\s+[A-Z]|\s*$)")
# Word matches are unpacked into spans and texts this many at a time: in
# batches the unpacking runs in C, and only one batch of match objects is
# alive at once, where a list of all of them would double tokenize's peak
# memory on a long text.
_MATCH_BATCH = 1024
# Every code point for which str.isspace() is true (the tests check this
# against the running interpreter's Unicode database).
_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
    "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


@dataclass
class TokenizedText:
    """Tokens plus sentence index ranges partitioning [0, len(tokens))."""

    tokens: list[str]
    sentences: list[tuple[int, int]]
    char_count: int


def is_url_token(token: str) -> bool:
    return token.startswith(("http://", "https://", "www."))


def tokenize(text: str, abbreviations: frozenset[str] | None = None) -> TokenizedText:
    """Deterministic tokenization and sentence splitting per the module rules.

    Token spans are collected in text order, so their starts and ends are
    both strictly increasing and every lookup below is a bisection: the
    whole call is O(n log n) in the text length.
    """
    if abbreviations is None:
        abbreviations = resources.abbreviations()

    starts: list[int] = []
    ends: list[int] = []
    tokens: list[str] = []
    url_starts: list[int] = []
    url_ends: list[int] = []

    def add_words(pos: int, endpos: int) -> None:
        matches = WORD_RE.finditer(text, pos, endpos)
        while found := list(islice(matches, _MATCH_BATCH)):
            starts.extend(map(re.Match.start, found))
            ends.extend(map(re.Match.end, found))
            tokens.extend(map(re.Match.group, found))

    cursor = 0
    for m in URL_RE.finditer(text):
        url = m.group().rstrip(".,;:!?)\"'")
        if not url:
            continue
        end = m.start() + len(url)
        add_words(cursor, m.start())
        starts.append(m.start())
        ends.append(end)
        tokens.append(url)
        url_starts.append(m.start())
        url_ends.append(end)
        cursor = m.end()
    add_words(cursor, len(text))

    sentences: list[tuple[int, int]] = []
    start = 0
    for m in _BOUNDARY_RE.finditer(text):
        pos = m.start()
        # URL ranges never overlap, so only the last one starting at or
        # before pos can contain it
        u = bisect_right(url_starts, pos) - 1
        if u >= 0 and pos < url_ends[u]:
            continue
        punct = m.group().rstrip("\"'”’)]")
        if punct == ".":
            i = bisect_left(ends, pos)  # the token ending exactly at pos, if any
            if i < len(ends) and ends[i] == pos:
                prev = tokens[i]
                if prev.lower() in abbreviations or _is_initial(prev):
                    continue
        end = bisect_left(starts, m.end())  # tokens starting before the boundary
        if end > start:
            sentences.append((start, end))
            start = end
    if start < len(tokens):
        sentences.append((start, len(tokens)))

    # one C-level count per whitespace code point: no per-character call
    # and, unlike str.split(), no list of words
    char_count = len(text) - sum(map(text.count, _WHITESPACE))
    return TokenizedText(tokens=tokens, sentences=sentences, char_count=char_count)


def _is_initial(token: str) -> bool:
    return len(token) == 1 and token.isalpha()


def count_syllables(word: str) -> int:
    """Vowel-group syllable estimate, always at least 1."""
    w = word.lower()
    groups = len(VOWEL_GROUP_RE.findall(w))
    if w.endswith("e") and not (
        len(w) > 2 and w.endswith("le") and w[-3] not in "aeiouy"
    ):
        groups -= 1
    return max(groups, 1)
