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
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Mapping

from .. import resources

URL_RE = re.compile(r"(?:https?://|www\.)[^\s<>\"']+")
WORD_RE = re.compile(r"[^\W_]+(?:'[^\W_]+)*")
VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")
# The pattern opens with the mark class so that ``re`` can search for its
# first character in C. A match can only succeed from the first mark of a
# run of ``.!?``: the lookbehind right after the first mark fails every
# other start after one character, where a rescan of the rest of the run
# would make a long run of marks cost time quadratic in its length.
_BOUNDARY_RE = re.compile(r"[.!?](?<![.!?][.!?])[.!?]*[\"'”’)\]]*(?=\s+[A-Z]|\s*$)")
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
        """How often each distinct lowercased token occurs."""
        return lowered_census(self.counts)


def lowered_census(counts: Mapping[str, int]) -> dict[str, int]:
    """Merge a token census by lowercased token: each distinct token is
    lowercased once, not each occurrence."""
    lowered: dict[str, int] = {}
    get = lowered.get
    for token, n in counts.items():
        low = token.lower()
        lowered[low] = get(low, 0) + n
    return lowered


def is_url_token(token: str) -> bool:
    return token.startswith(("http://", "https://", "www."))


def tokenize(text: str, abbreviations: frozenset[str] | None = None) -> TokenizedText:
    """Deterministic tokenization and sentence splitting per the module rules.

    The text is cut at every URL start and every sentence boundary, and the
    words of each segment between two cuts come from one ``findall``: the
    per-word work runs in C and the whole call is linear in the text length.
    """
    if abbreviations is None:
        abbreviations = resources.abbreviations()
    findall = WORD_RE.findall
    end_of_text = len(text)

    tokens: list[str] = []
    sentences: list[tuple[int, int]] = []
    urls = URL_RE.finditer(text)
    url = next(urls, None)
    url_start = url.start() if url else end_of_text
    url_end = 0  # where the text of the last URL taken ends
    cursor = start = 0
    # the end of the text closes the last sentence like one more boundary
    for m in chain(_BOUNDARY_RE.finditer(text), (None,)):
        pos, after = m.span() if m else (end_of_text, end_of_text)
        while url_start < pos:
            tokens += findall(text, cursor, url_start)
            # a URL keeps its raw text minus trailing punctuation
            token = url.group().rstrip(".,;:!?)\"'")
            tokens.append(token)
            url_end = url_start + len(token)
            cursor = url.end()
            url = next(urls, None)
            url_start = url.start() if url else end_of_text
        if pos < url_end:
            continue  # a mark inside a URL
        tokens += findall(text, cursor, pos)
        # no word or URL starts among a boundary's marks and closers, and a
        # URL that started before them ends at the latest where they do
        cursor = after
        # tokens[-1] ends exactly at the mark iff a word does (the mark
        # follows a letter or digit: [^\W_] is str.isalnum()) or the last
        # URL's text does
        if (
            text[pos:after].rstrip("\"'”’)]") == "."
            and tokens
            and (text[pos - 1].isalnum() or url_end == pos)
        ):
            prev = tokens[-1]
            if prev.lower() in abbreviations or _is_initial(prev):
                continue
        if len(tokens) > start:
            sentences.append((start, len(tokens)))
            start = len(tokens)

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
