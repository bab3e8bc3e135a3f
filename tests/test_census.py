"""One census of a text's tokens feeds the N, L and R groups: every count
read from it must equal the count a token-by-token loop gives."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veritag.linguistics import (
    PENN_TABLE_TAGS,
    CategoryDictionary,
    ReadabilityScores,
    RuleTagger,
    TokenizedText,
    count_syllables,
    dictionary_scores,
    is_url_token,
    morphological_features,
    readability_features,
)
from veritag.linguistics.tagger import _RAW_TO_TABLE
from veritag.linguistics.text import lowered_census, token_census
from veritag.resources import easy_words, stopwords

# case variants of lexicon words, sentence openers that tag differently
# inside a sentence, URLs, digits, and words whose lowercasing is not a
# plain ASCII fold: İ grows a combining dot, ẞ becomes ß, the final
# sigma of ΟΔΟΣ, and the titlecase digraph ǅ
_WORDS = (
    "the", "The", "THE", "and", "And", "of", "Monday", "monday", "Zorblax",
    "zorblax", "Quickly", "quickly", "Running", "running", "government",
    "Government", "considerable", "little", "Table", "don't", "Don't",
    "http://example.com/A", "https://Example.org", "www.example.com", "WWW.Example.com",
    "3", "1984", "x²", "B2B", "İstanbul", "istanbul", "İ", "i̇", "ẞ", "ß", "STRAẞE",
    "ΟΔΟΣ", "οδος", "οδοσ", "ǅ", "ǆ", "Ǆ", "ǅemal", "Ély", "élan",
)
_token = st.one_of(
    st.sampled_from(_WORDS),
    st.text(alphabet="aZéİẞΣσςǅ²3'", min_size=1, max_size=6),
)


@st.composite
def _texts(draw):
    """Tokens, sentence ranges that partition them, and a character count,
    as ``tokenize`` gives."""
    tokens = draw(st.lists(_token, max_size=40))
    cuts = draw(st.sets(st.integers(1, max(len(tokens) - 1, 1))))
    bounds = [0, *sorted(c for c in cuts if c < len(tokens)), len(tokens)]
    sentences = list(zip(bounds, bounds[1:])) if tokens else []
    return TokenizedText(tokens=tokens, sentences=sentences, char_count=sum(map(len, tokens)))


def _reference_tags(tokens, sentences):
    counts = dict.fromkeys(PENN_TABLE_TAGS, 0)
    for start, end in sentences:
        for raw in RuleTagger().tag(tokens[start:end]):
            table = _RAW_TO_TABLE.get(raw)
            if table is not None:
                counts[table] += 1
    return counts


def _reference_match(dictionary: CategoryDictionary, token: str) -> set[int]:
    """Every pattern tried against the token, straight from the pattern list."""
    t = token.lower()
    hits: set[int] = set()
    for pattern, cats in dictionary.patterns:
        p = pattern.lower()
        if p.endswith("*") and t.startswith(p[:-1]) or p == t:
            hits.update(cats)
    return hits


def _reference_scores(tokens, dictionary):
    counts = [0] * len(dictionary.categories)
    for token in tokens:
        for idx in _reference_match(dictionary, token):
            counts[idx] += 1
    return {
        name: 100.0 * counts[i] / len(tokens) if tokens else 0.0
        for i, name in enumerate(dictionary.categories)
    }


def _reference_readability(tokenized):
    easy, stop = easy_words(), stopwords()
    tokens, sentences = tokenized.tokens, tokenized.sentences
    w, stc, ch = len(tokens), len(sentences), tokenized.char_count
    if w == 0 or stc == 0:
        return ReadabilityScores(
            fri=0.0, fki=0.0, msi=0.0, gfi=0.0, cli=0.0, ari=0.0, lwi=0.0,
            ws=0.0, w=0, stc=0, ch=ch, sy=0, lx=0, cw_cap=0, cw_complex=0,
            dw=0, lw=0, ps=0.0, url=0,
        )
    syllables = [count_syllables(t) for t in tokens]
    sy = sum(syllables)
    complex_words = sum(1 for s in syllables if s >= 3)
    letters = [sum(1 for c in t if c.isalpha()) for t in tokens]
    lowered = [t.lower() for t in tokens]
    ws = w / stc
    sample = syllables[:100]
    points = sum(1 if s <= 2 else 3 for s in sample)
    overlapping = sum(1 for start, end in sentences if start < len(sample) and end > start)
    ratio = points / overlapping
    return ReadabilityScores(
        fri=206.835 - 1.015 * ws - 84.6 * (sy / w),
        fki=0.39 * ws + 11.8 * (sy / w) - 15.59,
        msi=1.0430 * math.sqrt(complex_words * 30.0 / stc) + 3.1291,
        gfi=0.4 * (ws + 100.0 * complex_words / w),
        cli=0.0588 * (100.0 * sum(letters) / w) - 0.296 * (100.0 * stc / w) - 15.8,
        ari=4.71 * (ch / w) + 0.5 * ws - 21.43,
        lwi=ratio / 2.0 if ratio > 20 else (ratio - 2.0) / 2.0,
        ws=ws, w=w, stc=stc, ch=ch, sy=sy, lx=len(set(lowered)),
        cw_cap=sum(1 for t in tokens if t[:1].isupper()),
        cw_complex=complex_words,
        dw=sum(1 for t in lowered if t not in easy),
        lw=sum(1 for n in letters if n > 6),
        ps=100.0 * sum(1 for t in lowered if t in stop) / w,
        url=sum(1 for t in tokens if is_url_token(t)),
    )


# literals, prefixes of several lengths that overlap, a bare "*", and a
# literal and a prefix in one category, over words the tokens above hit
_DICTIONARY = CategoryDictionary(
    categories=["all", "the", "th", "lit", "greek", "dotted", "sharp", "dz"],
    patterns=[
        ("*", (0,)), ("the*", (1,)), ("th*", (2,)), ("the", (3, 1)),
        ("and", (3,)), ("ΟΔΟΣ", (4,)), ("οδο*", (4, 3)), ("i̇*", (5,)),
        ("istanbul", (5,)), ("ß*", (6,)), ("strasse", (6,)), ("ǆ*", (7,)),
        ("Ǆemal", (7, 3)), ("monday*", (2,)),
    ],
)


class TestCensus:
    @given(st.lists(_token, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_censuses_count_every_token(self, tokens):
        text = TokenizedText(tokens=tokens, sentences=[], char_count=0)
        assert dict(text.counts) == {t: tokens.count(t) for t in set(tokens)}
        lowered = [t.lower() for t in tokens]
        assert text.lowered == {t: lowered.count(t) for t in set(lowered)}
        assert text.lowered == lowered_census(token_census(tokens))
        assert sum(text.counts.values()) == sum(text.lowered.values()) == len(tokens)

    @given(st.text())
    @settings(max_examples=500, deadline=None)
    def test_lower_is_idempotent(self, text):
        # counting syllables once per lowercased word relies on this
        assert text.lower().lower() == text.lower()

    @pytest.mark.parametrize("word", ["İ", "ẞ", "ΟΔΟΣ", "ǅ", "STRAẞE", "İstanbul"])
    def test_lower_is_idempotent_on_the_unusual_words(self, word):
        assert word.lower().lower() == word.lower()
        assert count_syllables(word) == count_syllables(word.lower())


class TestGroupsReadingTheCensus:
    @given(_texts())
    @settings(max_examples=300, deadline=None)
    def test_rule_tagger(self, text):
        expected = _reference_tags(text.tokens, text.sentences)
        assert morphological_features(text.tokens, None, text.sentences) == expected
        assert morphological_features(text.tokens, None, text.sentences, text.counts) == expected

    @given(_texts())
    @settings(max_examples=300, deadline=None)
    def test_dictionary(self, text):
        expected = _reference_scores(text.tokens, _DICTIONARY)
        assert dictionary_scores(text.tokens, _DICTIONARY) == expected
        assert dictionary_scores(text.tokens, _DICTIONARY, text.lowered) == expected

    @given(_texts())
    @settings(max_examples=300, deadline=None)
    def test_readability(self, text):
        assert readability_features(text) == _reference_readability(text)


class TestMatch:
    def test_overlapping_prefixes_bare_star_and_shared_categories(self):
        d = CategoryDictionary(
            categories=["all", "ab", "abba", "lit", "shared"],
            patterns=[("*", (0,)), ("ab*", (1,)), ("abba*", (2,)), ("ab", (3,)),
                      ("abb*", (4,)), ("abba", (4,)), ("a*", (4,))],
        )
        for token in ("", "a", "A", "ab", "AB", "abb", "abba", "ABBA", "abbatoir", "b", "ba"):
            assert d.match(token) == _reference_match(d, token), token
        assert d.match("abba") == {0, 1, 2, 4}
        assert d.match("b") == {0}

    def test_one_hit_returns_the_stored_set(self):
        d = CategoryDictionary(categories=["x", "y"], patterns=[("ab*", (0, 1)), ("cd", (1,))])
        assert d.match("ABC") is d.match("abd")
        assert d.match("zz") == frozenset()

    @given(st.lists(_token, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_pattern_list(self, tokens):
        for token in tokens:
            assert _DICTIONARY.match(token) == _reference_match(_DICTIONARY, token)
