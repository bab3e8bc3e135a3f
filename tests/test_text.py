"""Tokenization, sentence splitting, and syllable counting."""

from __future__ import annotations

import random
import re
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from veritag import resources
from veritag.linguistics import count_syllables, tokenize
from veritag.linguistics.text import (
    URL_RE,
    WORD_RE,
    TokenizedText,
    _is_initial,
    is_url_token,
)


class TestTokenize:
    def test_two_sentence_example(self):
        tk = tokenize("The cat sat. It slept.")
        assert tk.tokens == ["The", "cat", "sat", "It", "slept"]
        assert tk.sentences == [(0, 3), (3, 5)]

    def test_abbreviation_suppresses_boundary(self):
        tk = tokenize("Dr. Smith won.")
        assert len(tk.sentences) == 1
        assert tk.tokens == ["Dr", "Smith", "won"]

    def test_initial_suppresses_boundary(self):
        tk = tokenize("J. Smith won.")
        assert len(tk.sentences) == 1

    def test_numbered_reference_does_not_split(self):
        # boundary needs whitespace plus a capital; a digit does not qualify
        assert len(tokenize("See No. 5 now.").sentences) == 1

    def test_exclamation_and_question_split(self):
        tk = tokenize("Really? Yes! Fine.")
        assert len(tk.sentences) == 3

    def test_internal_apostrophe_is_one_token(self):
        assert tokenize("don't stop").tokens == ["don't", "stop"]

    def test_leading_apostrophe_is_not_attached(self):
        assert tokenize("'tis fine").tokens == ["tis", "fine"]

    def test_url_kept_whole(self):
        tk = tokenize("Read https://example.com/a.b?c=1 today.")
        assert "https://example.com/a.b?c=1" in tk.tokens
        assert len(tk.sentences) == 1

    def test_url_trailing_punctuation_stripped(self):
        tk = tokenize("Go to www.example.com.")
        assert "www.example.com" in tk.tokens

    def test_char_count_excludes_whitespace(self):
        tk = tokenize("The cat sat on the mat.")
        assert tk.char_count == 18
        assert len(tk.tokens) == 6

    def test_empty_text(self):
        tk = tokenize("")
        assert tk.tokens == []
        assert tk.sentences == []
        assert tk.char_count == 0

    def test_hyphen_splits_tokens(self):
        assert tokenize("well-known fact").tokens == ["well", "known", "fact"]

    def test_closing_quote_after_period(self):
        tk = tokenize('He said "stop." Then he left.')
        assert len(tk.sentences) == 2


class TestIsUrlToken:
    def test_recognizes_schemes(self):
        assert is_url_token("https://a.example")
        assert is_url_token("http://a.example")
        assert is_url_token("www.example.com")
        assert not is_url_token("example.com")


class TestCountSyllables:
    def test_simple_words(self):
        assert count_syllables("cat") == 1
        assert count_syllables("window") == 2
        assert count_syllables("banana") == 3

    def test_silent_trailing_e(self):
        assert count_syllables("make") == 1
        assert count_syllables("note") == 1

    def test_consonant_le_keeps_syllable(self):
        assert count_syllables("table") == 2
        assert count_syllables("little") == 2

    def test_minimum_one(self):
        assert count_syllables("rhythm") >= 1
        assert count_syllables("b") == 1

    def test_vowel_y(self):
        assert count_syllables("happy") == 2


_words = st.text(alphabet=string.ascii_letters, min_size=1, max_size=10)
_texts = st.lists(_words, min_size=0, max_size=30).map(" ".join)


class TestProperties:
    @given(_texts)
    @settings(max_examples=200, deadline=None)
    def test_sentences_partition_tokens(self, text):
        tk = tokenize(text)
        cursor = 0
        for start, end in tk.sentences:
            assert start == cursor
            assert end > start
            cursor = end
        assert cursor == len(tk.tokens)

    @given(_texts)
    @settings(max_examples=100, deadline=None)
    def test_tokens_have_no_whitespace(self, text):
        for token in tokenize(text).tokens:
            assert token == token.strip()
            assert " " not in token

    @given(_texts)
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, text):
        a = tokenize(text)
        b = tokenize(text)
        assert a.tokens == b.tokens
        assert a.sentences == b.sentences
        assert a.char_count == b.char_count

    @given(_words)
    @settings(max_examples=200, deadline=None)
    def test_syllables_at_least_one(self, word):
        assert count_syllables(word) >= 1


_REFERENCE_BOUNDARY_RE = re.compile(r"[.!?]+[\"'”’)\]]*(?=\s+[A-Z]|\s*$)")


def _reference_tokenize(text: str) -> TokenizedText:
    """The straightforward tokenizer: every sentence boundary rescans the
    whole span list, so it takes O(tokens x sentences) time. Kept as the
    oracle for the bisecting implementation."""
    abbreviations = resources.abbreviations()
    spans: list[tuple[int, int, str]] = []
    url_ranges: list[tuple[int, int]] = []
    cursor = 0
    for m in URL_RE.finditer(text):
        url = m.group().rstrip(".,;:!?)\"'")
        if not url:
            continue
        end = m.start() + len(url)
        for w in WORD_RE.finditer(text, cursor, m.start()):
            spans.append((w.start(), w.end(), w.group()))
        spans.append((m.start(), end, url))
        url_ranges.append((m.start(), end))
        cursor = m.end()
    for w in WORD_RE.finditer(text, cursor):
        spans.append((w.start(), w.end(), w.group()))

    def token_ending_at(pos):
        for _, e, tok in reversed(spans):
            if e == pos:
                return tok
            if e < pos:
                return None
        return None

    def count_tokens_before(pos):
        n = 0
        for s, _, _ in spans:
            if s < pos:
                n += 1
            else:
                break
        return n

    tokens = [s[2] for s in spans]
    boundaries = []
    for m in _REFERENCE_BOUNDARY_RE.finditer(text):
        if any(a <= m.start() < b for a, b in url_ranges):
            continue
        punct = m.group().rstrip("\"'”’)]")
        if punct == ".":
            prev = token_ending_at(m.start())
            if prev is not None and (prev.lower() in abbreviations or _is_initial(prev)):
                continue
        boundaries.append(m.end())

    sentences: list[tuple[int, int]] = []
    start = 0
    for boundary in boundaries:
        end = count_tokens_before(boundary)
        if end > start:
            sentences.append((start, end))
            start = end
    if start < len(tokens):
        sentences.append((start, len(tokens)))

    char_count = sum(1 for c in text if not c.isspace())
    return TokenizedText(tokens=tokens, sentences=sentences, char_count=char_count)


_ABBREVIATIONS = sorted(resources.abbreviations())
_URLS = ("https://example.com/a.b?c=1", "http://x.org/path", "www.example.com", "www.a.b/c(d)")
_PUNCT_RUNS = (".", "!", "?", "...", "?!", "!!", ".?")
_CLOSERS = ('"', "'", "”", "’", ")", "]")

_pieces = st.one_of(
    _words,
    _words.map(str.capitalize),
    st.sampled_from(["don't", "O'Neil", "rock'n'roll", "'tis", "it's"]),
    st.sampled_from(_ABBREVIATIONS).map(lambda a: a.capitalize() + "."),
    st.sampled_from(string.ascii_letters).map(lambda c: c + "."),
    st.sampled_from(_PUNCT_RUNS),
    st.builds(lambda p, c: p + c, st.sampled_from(_PUNCT_RUNS), st.sampled_from(_CLOSERS)),
    st.sampled_from(_CLOSERS),
    st.builds(
        lambda u, t: u + t,
        st.sampled_from(_URLS),
        st.sampled_from(["", ".", ",", ")", "?", "!", '."', ".)", ";"]),
    ),
    st.sampled_from(["12", "3.5", "No. 5", "well-known"]),
)
_separators = st.sampled_from(["", " ", " ", " ", "  ", "\n", "\t"])
_rich_texts = st.lists(st.tuples(_pieces, _separators), max_size=40).map(
    lambda parts: "".join(piece + sep for piece, sep in parts)
)


def _rich_text(rng: random.Random, words: int) -> str:
    """Deterministic long text built from the same pieces as ``_rich_texts``."""
    vocab = ["alpha", "beta", "gamma", "delta", "news", "report", "state", "city"]
    out: list[str] = []
    for i in range(words):
        r = rng.random()
        if r < 0.80:
            word = rng.choice(vocab)
            out.append(word.capitalize() if rng.random() < 0.3 else word)
        elif r < 0.84:
            out.append(rng.choice(_ABBREVIATIONS).capitalize() + ".")
        elif r < 0.87:
            out.append(rng.choice(string.ascii_uppercase) + ".")
        elif r < 0.90:
            out.append(rng.choice(_URLS) + rng.choice(["", ".", ")", "?"]))
        elif r < 0.92:
            out.append("don't")
        else:
            out.append(rng.choice(vocab) + rng.choice(_PUNCT_RUNS) + rng.choice(("",) + _CLOSERS))
        out.append(rng.choice([" ", " ", " ", "\n"]))
    return "".join(out)


def _assert_matches_reference(text: str) -> None:
    got = tokenize(text)
    want = _reference_tokenize(text)
    assert got.tokens == want.tokens
    assert got.sentences == want.sentences
    assert got.char_count == want.char_count


class TestMatchesReference:
    @given(_rich_texts)
    @settings(max_examples=400, deadline=None)
    def test_generated_text(self, text):
        _assert_matches_reference(text)

    def test_long_text(self):
        # a wrong bisect bound only shows once many spans and boundaries exist
        text = _rich_text(random.Random(20), 20_000)
        assert len(tokenize(text).tokens) >= 20_000
        _assert_matches_reference(text)

    def test_long_runs_of_marks(self):
        for marks in (".", "?!", ".)"):
            _assert_matches_reference("Wait" + marks * 1_000 + " Then" + marks * 1_000 + "x. End")
