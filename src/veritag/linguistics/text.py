r"""Tokenization, sentence splitting, and syllable counting.

These are the word/sentence/character primitives every linguistic feature
group is built on, so their behavior is pinned exactly:

- a token is a maximal run of letters/digits, with internal apostrophes
  kept ("don't" is one token); a curly apostrophe reads as a straight one
  ("Mary’s" is "Mary's"); URLs are recognized first and kept whole;
- sentences split on runs of ``. ! ?`` (optionally followed by closing
  quotes/brackets) when followed by whitespace plus a capital letter or end
  of text, except after a listed abbreviation or a single-letter initial;
- syllables are vowel-group counts (runs of ``aeiouy``) minus a silent
  trailing "e", unless the word ends in consonant+"le"; minimum 1.

``tokenize`` works in whole-text passes that run in C: one split at the
candidate sentence boundaries, one word scan per segment, and running
token totals for the sentence ends. An ASCII text (the common case) is
scanned with an ASCII copy of the word pattern, ``[A-Za-z0-9]`` for
``[^\W_]``, which accepts the same code points there and tests them
faster. The boundary pattern has no ASCII copy: its ``\s`` must also
match ``\x1c``-``\x1f``, which ``str.isspace()`` counts as whitespace and
an ASCII ``\s`` does not.
"""

from __future__ import annotations

import re
from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, groupby, pairwise, repeat
from typing import Callable

from .. import resources

URL_RE = re.compile(r"(?:https?://|www\.)[^\s<>\"']+")
WORD_RE = re.compile(r"[^\W_]+(?:'[^\W_]+)*")
# WORD_RE on an ASCII text: [^\W_] accepts exactly these there
_ASCII_WORD_RE = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z0-9]+)*")
VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")
# The pattern opens with the mark class so that ``re`` can search for its
# first character in C. A match can only succeed from the first mark of a
# run of ``.!?``: the lookbehind right after the first mark fails every
# other start after one character, where a rescan of the rest of the run
# would make a long run of marks cost time quadratic in its length. The
# group makes ``split`` return each boundary's text between the segments.
_BOUNDARY_RE = re.compile(r"([.!?](?<![.!?][.!?])[.!?]*[\"'”’)\]]*)(?=\s+[A-Z]|\s*$)")
_CLOSERS = "\"'”’)]"
# Every code point for which str.isspace() is true (the tests check this
# against the running interpreter's Unicode database).
_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
    "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


@dataclass
class TokenizedText:
    """Tokens plus sentence index ranges partitioning [0, len(tokens)).

    The census of the tokens is built on first use and kept, so the
    feature groups that read it count the tokens once between them.
    """

    tokens: list[str]
    sentences: list[tuple[int, int]]
    char_count: int

    @cached_property
    def counts(self) -> Counter[str]:
        """How often each distinct token occurs."""
        return Counter(self.tokens)

    @cached_property
    def lowered(self) -> dict[str, int]:
        """How often each distinct lowercased token occurs, in the order of
        first occurrence. Each distinct token is lowercased once, not each
        occurrence."""
        lowered: dict[str, int] = {}
        get = lowered.get
        for token, n in self.counts.items():
            low = token.lower()
            lowered[low] = get(low, 0) + n
        return lowered


def is_url_token(token: str) -> bool:
    return token.startswith(("http://", "https://", "www."))


def tokenize(text: str, abbreviations: frozenset[str] | None = None) -> TokenizedText:
    """Deterministic tokenization and sentence splitting per the module rules.

    The work is a few passes over the whole text, each running in C:

    1. ``_BOUNDARY_RE.split`` cuts the text once, at every candidate
       sentence boundary, into segments and the marks between them;
    2. one ``findall`` per segment, through ``map``, gives its words;
    3. ``chain`` joins them into the tokens, and ``accumulate`` gives the
       token count at each segment's end, where its boundary would cut.

    A Python loop then runs only over boundaries whose mark is a lone
    ``.``, to drop those that follow an abbreviation or an initial. The
    kept boundaries' running totals are the sentence ends. A URL is taken
    into the same passes: its text replaces the words inside it, in the
    segment it starts in, and a boundary that starts inside it is dropped.
    """
    if abbreviations is None:
        abbreviations = resources.abbreviations()
    if text.isascii():
        findall = _ASCII_WORD_RE.findall
    else:
        # A curly apostrophe reads as a straight one, in a word as in a URL,
        # so a token carries the one form the word lists spell. The text
        # keeps its length and whitespace, and both forms close a sentence.
        text = text.replace("’", "'")
        findall = WORD_RE.findall
    parts = _BOUNDARY_RE.split(text)
    segments = parts[::2]
    marks = parts[1::2]  # boundary i lies between segments i and i + 1
    words = list(map(findall, segments))
    # whether boundary i ends a sentence; the last entry, the end of the
    # text, always does
    keep = [True] * len(segments)
    # URL_RE cannot match a text without either
    ends_at_url = (
        _splice_urls(text, parts, words, keep, findall)
        if "://" in text or "www." in text
        else ()
    )
    tokens = list(chain.from_iterable(words))
    ends = list(accumulate(map(len, words)))

    lone_periods = map(".".__eq__, map(str.rstrip, marks, repeat(_CLOSERS)))
    for i in compress(range(len(marks)), lone_periods):
        # the token before the mark ends at it iff a word does (the mark
        # follows a letter or digit: [^\W_] is str.isalnum()) or a URL's
        # kept text does
        if segments[i][-1:].isalnum() or i in ends_at_url:
            prev = tokens[ends[i] - 1]
            if prev.lower() in abbreviations or _is_initial(prev):
                keep[i] = False
    # equal running totals would make an empty sentence: keep the first
    cuts = dict.fromkeys(chain((0,), compress(ends, keep)))
    sentences = list(pairwise(cuts))

    # one C-level count per whitespace code point: no per-character call
    # and, unlike str.split(), no list of words
    char_count = len(text) - sum(map(text.count, _WHITESPACE))
    return TokenizedText(tokens=tokens, sentences=sentences, char_count=char_count)


def _splice_urls(
    text: str,
    parts: list[str],
    words: list[list[str]],
    keep: list[bool],
    findall: Callable[[str, int, int], list[str]],
) -> set[int]:
    """Put each URL's kept text among the words of the segment it starts
    in, in place of the words inside its raw text, and drop the boundary
    that starts inside the kept text. Returns the boundaries whose mark
    starts where a URL's kept text ends."""
    part_ends = list(accumulate(map(len, parts)))
    mark_starts = part_ends[::2]  # and the end of the text, last
    ends_at_url: set[int] = set()
    # no mark starts where a URL does: each URL starts inside segment i
    for i, urls in groupby(URL_RE.finditer(text), lambda m: bisect(mark_starts, m.start())):
        spliced: list[str] = []
        cursor = part_ends[2 * i - 1] if i else 0
        for m in urls:
            spliced += findall(text, cursor, m.start())
            # a URL keeps its raw text minus trailing punctuation
            spliced.append(m.group().rstrip(".,;:!?)\"'"))
            cursor = m.end()
        words[i] = spliced + findall(text, cursor, mark_starts[i])
        # The raw text stops at the whitespace after a boundary's marks and
        # closers, so only the segment's last URL can reach its boundary.
        end = m.start() + len(spliced[-1])
        if i < len(keep) - 1:
            if mark_starts[i] < end:
                keep[i] = False
            elif mark_starts[i] == end:
                ends_at_url.add(i)
    return ends_at_url


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
