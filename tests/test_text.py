"""Tokenization, sentence splitting, and syllable counting."""

from __future__ import annotations

import random
import re
import string
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from veritag import extract_article, granularity_text, parse_html, resources
from veritag.featureset import GRANULARITIES
from veritag.linguistics import count_syllables, tokenize
from veritag.linguistics.text import (
    _ASCII_WORD_RE,
    _BOUNDARY_RE,
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

    def test_curly_apostrophe_reads_as_the_straight_one(self):
        assert tokenize("Mary’s don’t ’tis voters’ rock’n’roll it’'s www.a.b/c’d").tokens == [
            "Mary's", "don't", "tis", "voters", "rock'n'roll", "it", "s", "www.a.b/c", "d",
        ]
        # so the word lists, spelled straight, read one text the same in
        # either typography
        assert tokenize("We don’t know. It isn’t here.") == tokenize("We don't know. It isn't here.")

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


def _reference_tokenize(text: str, abbreviations: frozenset[str]) -> TokenizedText:
    """The straightforward tokenizer: every sentence boundary rescans the
    whole span list, so it takes O(tokens x sentences) time. Kept as the
    oracle for the segment-scanning implementation."""
    text = text.replace("’", "'")
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
_URLS = ("https://example.com/a.b?c=1", "http://x.org/path", "www.example.com", "www.a.b/c(d)",
         "www.x.com/", "http://a.b/c-")
# URL texts that end in neither a letter nor a digit, listed as
# abbreviations in some runs: only the URL's own end can then tell that
# the token before a period ends exactly at it
_URL_ABBREVIATIONS = frozenset({"www.x.com/", "http://a.b/c-"})
_PUNCT_RUNS = (".", "!", "?", "...", "?!", "!!", ".?")
_CLOSERS = ('"', "'", "”", "’", ")", "]")

_pieces = st.one_of(
    _words,
    _words.map(str.capitalize),
    st.sampled_from(["don't", "O'Neil", "rock'n'roll", "'tis", "it's", "Mary’s", "don’t",
                     "’tis", "voters’", "it’'s", "won't"]),
    st.sampled_from(_ABBREVIATIONS).map(lambda a: a.capitalize() + "."),
    st.sampled_from(_ABBREVIATIONS).map(str.capitalize),
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
    # one-word and two-word sentences
    _words.map(lambda w: w.capitalize() + "."),
    st.builds(lambda a, b: f"{a.capitalize()} {b}.", _words, _words),
    # a URL whose text ends right at a sentence boundary
    st.sampled_from(["www.x.com. Next", "http://a.b/c.) Next", "www.x.com/. Next",
                     "http://a.b/c-.\" Next", "https://x.org/a?! Next"]),
    # an abbreviation or initial right after a URL
    st.builds(
        lambda u, sep, a: u + sep + a,
        st.sampled_from(_URLS),
        st.sampled_from([" ", "\"", ")", ".", ". "]),
        st.one_of(
            st.sampled_from(_ABBREVIATIONS).map(lambda a: a.capitalize() + ". Next"),
            st.sampled_from(string.ascii_uppercase).map(lambda c: c + ". Next"),
        ),
    ),
    # non-ASCII letters and digits right before a period
    st.builds(
        lambda w, c: w + c + ".",
        st.sampled_from(["", "x", "Caf", "Dr"]),
        st.sampled_from(["é", "É", "²", "٣", "ß", "Ω"]),
    ),
)
# \x1c-\x1f are whitespace to str.isspace() and to a Unicode \s, but not
# to an ASCII \s; the others are not ASCII
_separators = st.sampled_from(
    ["", " ", " ", " ", "  ", "\n", "\t", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
)
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


def _assert_matches_reference(text: str, abbreviations: frozenset[str] | None = None) -> None:
    got = tokenize(text, abbreviations)
    want = _reference_tokenize(text, abbreviations or resources.abbreviations())
    assert got.tokens == want.tokens
    assert got.sentences == want.sentences
    assert got.char_count == want.char_count


class TestMatchesReference:
    @given(_rich_texts)
    @settings(max_examples=400, deadline=None)
    def test_generated_text(self, text):
        _assert_matches_reference(text)

    @given(_rich_texts)
    @settings(max_examples=200, deadline=None)
    def test_generated_text_with_url_abbreviations(self, text):
        _assert_matches_reference(text, resources.abbreviations() | _URL_ABBREVIATIONS)

    def test_edge_texts(self):
        abbreviations = resources.abbreviations() | _URL_ABBREVIATIONS
        for text in (
            "Go. Now. Stop.",
            "Go now. Stop it.",
            "Visit www.x.com. Next one.",
            "See http://a.b/c.) Next one.",
            "See www.x.com/. Next one.",
            "See http://a.b/c-. Next one.",
            "Ask www.x.com Dr. Smith. Then J. Doe.",
            "Ask www.x.com/\"Dr. Smith. Then http://a.b/c J. Doe.",
            "Say é. Then x². Then ٣. Then Café. End.",
            "Dr . Next one. a . Next one.",
            ". Leading mark. Last",
            "Go.\x1cNow it ends.",
            # a URL keeps ] and ” at its end, and with them the boundary's
            # start: no sentence ends there
            "See http://a.b/c.] Next one. Go www.x.com/a.” Now.",
            "Ask Dr.] Smith. Then J.] Doe. Then Dr.”) Who.",
        ):
            _assert_matches_reference(text)
            _assert_matches_reference(text, abbreviations)

    def test_ascii_text_and_one_non_ascii_letter(self):
        # an ASCII text takes the ASCII word pattern, the same text with one
        # é the Unicode one; both keep the Unicode boundary pattern, whose \s
        # matches the ASCII separators \x1c-\x1f
        text = (
            "Dr. Smith's 3rd x_yz.\x1cThen J. Doe won 12.5 pts.\x1fRock'n'roll?!\x1d"
            "Wait... Go.\x1e\x0bEnd_of it. See www.x.com. Next one."
        )
        assert text.isascii()
        for version in (text, text.replace("Then", "Thén")):
            _assert_matches_reference(version)
            assert len(tokenize(version).sentences) == 8

    def test_ascii_word_pattern_is_the_word_pattern_on_ascii(self):
        text = "".join(f"{c}a'{c}b{c}'{c} 7{c}" for c in map(chr, range(128)))
        assert _ASCII_WORD_RE.findall(text) == WORD_RE.findall(text)

    def test_long_text(self):
        # a misplaced cut only shows once many segments and boundaries exist
        text = _rich_text(random.Random(20), 20_000)
        assert len(tokenize(text).tokens) >= 20_000
        _assert_matches_reference(text)

    def test_bench_pages(self):
        # the long-pages workload's articles and hostile pages, the inputs
        # the tokenizer's speed is measured on, cut to 20 KB of text so the
        # quadratic oracle stays fast
        from test_bench_contract import WORKLOADS, _load_bench_module

        workloads = _load_bench_module(WORKLOADS)
        labels = list(workloads.SITES.values())
        sizes = workloads.SHAPES["full"]["long-pages"].long_sizes_kb
        pages = [
            workloads._long_page(labels[i % len(labels)], i, size_kb, random.Random(7))
            for i, size_kb in enumerate(sizes)
        ]
        pages += workloads._hostile_pages(random.Random(7)).values()
        assert len(pages) == 13
        for html in pages:
            article = extract_article(parse_html(html))
            for granularity in GRANULARITIES:
                _assert_matches_reference(granularity_text(article, granularity)[:20_000])

    def test_long_runs_of_marks(self):
        for marks in (".", "?!", ".)"):
            _assert_matches_reference("Wait" + marks * 1_000 + " Then" + marks * 1_000 + "x. End")

    def test_batches_of_matches_join_up(self):
        # a long sentence is one findall segment cut by the boundary before
        # "Done": tokens on both sides of the cut must be kept, each once,
        # whatever the segment's length
        for words in (1023, 1024, 1025, 2048, 3001):
            text = " ".join(f"w{i}" for i in range(words)) + ". Done"
            assert tokenize(text).tokens == [f"w{i}" for i in range(words)] + ["Done"]


# the boundary pattern before it was rewritten to open with the mark class
_LOOKBEHIND_BOUNDARY_RE = re.compile(r"(?<![.!?])[.!?]+[\"'”’)\]]*(?=\s+[A-Z]|\s*$)")
_boundary_texts = st.text(alphabet=st.sampled_from(".!?\"'”’)] \nAZaz9"), max_size=40)


class TestBoundaryPattern:
    @given(_boundary_texts)
    @settings(max_examples=500, deadline=None)
    def test_same_spans_as_the_old_patterns(self, text):
        spans = [m.span() for m in _BOUNDARY_RE.finditer(text)]
        assert spans == [m.span() for m in _LOOKBEHIND_BOUNDARY_RE.finditer(text)]
        assert spans == [m.span() for m in _REFERENCE_BOUNDARY_RE.finditer(text)]

    def test_mark_runs_and_closers(self):
        for marks in (".", "!", "?", "..", "?!", "...", ".!?.", "." * 50):
            for closers in ("", '"', "”’", ")]", "'\")"):
                for after in (" Next", "\n\tNext", " next", "x", "", " ", "\n", " 5"):
                    text = "Word" + marks + closers + after
                    spans = [m.span() for m in _BOUNDARY_RE.finditer(text)]
                    want = [m.span() for m in _LOOKBEHIND_BOUNDARY_RE.finditer(text)]
                    assert spans == want, text

    def test_matches_start_only_at_the_first_mark_of_a_run(self):
        # what keeps a long run of marks linear: every later start fails
        # at once instead of rescanning the rest of the run
        text = "Wait" + "." * 50 + "?!" * 20 + "” Then"
        assert _BOUNDARY_RE.match(text, 4) is not None
        for i in range(5, text.index("”") + 1):
            assert _BOUNDARY_RE.match(text, i) is None, i


def test_word_chars_are_exactly_isalnum():
    # tokenize decides whether a word ends right before a period with
    # str.isalnum(); WORD_RE's [^\W_] must accept exactly those code points
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"[^\W_]", everything) == list(filter(str.isalnum, everything))


# every code point str.isspace() accepts, from the running interpreter
_ALL_WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


class TestCharCount:
    def test_every_unicode_whitespace(self):
        # plus look-alikes that are not whitespace: zero-width space,
        # word joiner, BOM, and a superscript digit
        text = "".join(f"w{c}x\u200b{c}{c}é\u2060²\ufeff" for c in _ALL_WHITESPACE)
        assert len(_ALL_WHITESPACE) >= 25
        assert tokenize(text).char_count == len(text) - sum(map(str.isspace, text))

    @given(st.text(alphabet=st.sampled_from(_ALL_WHITESPACE + "ab.é²\u200b\U0001f600")))
    @settings(max_examples=200, deadline=None)
    def test_matches_isspace_count(self, text):
        assert tokenize(text).char_count == len(text) - sum(map(str.isspace, text))
