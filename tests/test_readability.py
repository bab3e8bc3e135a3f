"""Readability indices and surface counts."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import veritag.resources
from veritag.linguistics import (
    READABILITY_FEATURES,
    count_syllables,
    readability_features,
    tokenize,
)
from veritag.linguistics.readability import _letters, _linsear_write
from veritag.linguistics.text import is_url_token
from veritag.resources import easy_words, reference_text, stopwords


class TestSingleSentenceOracle:
    # "The cat sat on the mat." -> W=6 STC=1 SY=6 CH=18
    def test_counts(self):
        r = readability_features(tokenize("The cat sat on the mat."))
        assert r["W"] == 6
        assert r["STC"] == 1
        assert r["SY"] == 6
        assert r["CH"] == 18
        assert r["WS"] == 6.0

    def test_flesch_reading_ease(self):
        r = readability_features(tokenize("The cat sat on the mat."))
        # 206.835 - 1.015*6 - 84.6*1
        assert r["FRI"] == pytest.approx(116.145, abs=1e-9)

    def test_flesch_kincaid(self):
        r = readability_features(tokenize("The cat sat on the mat."))
        # 0.39*6 + 11.8*1 - 15.59
        assert r["FKI"] == pytest.approx(-1.45, abs=1e-9)

    def test_lexical_diversity(self):
        # "the" appears twice case-folded: 5 distinct of 6
        r = readability_features(tokenize("The cat sat on the mat."))
        assert r["LX"] == 5

    def test_capitalized_words(self):
        r = readability_features(tokenize("The cat sat on the mat."))
        assert r["CW.cap"] == 1


class TestReferenceText:
    def test_is_ten_sentences(self):
        tk = tokenize(reference_text())
        assert len(tk.sentences) == 10

    def test_frozen_statistics(self):
        tk = tokenize(reference_text())
        r = readability_features(tk)
        assert r["W"] == 120
        assert r["STC"] == 10
        assert r["SY"] == 212
        assert r["CH"] == 636
        assert r["CW.complex"] == 24

    def test_frozen_indices(self):
        r = readability_features(tokenize(reference_text()))
        assert r["FRI"] == pytest.approx(45.195, abs=1e-6)
        assert r["FKI"] == pytest.approx(9.936666666666667, abs=1e-6)
        assert r["CLI"] == pytest.approx(12.35833333333333, abs=1e-6)
        assert r["ARI"] == pytest.approx(9.533, abs=1e-6)
        assert r["GFI"] == pytest.approx(12.8, abs=1e-6)


class TestEdgeCases:
    def test_empty_text_all_zero(self):
        r = readability_features(tokenize(""))
        assert r["W"] == 0 and r["STC"] == 0
        for name, value in r.items():
            assert value == 0.0, name

    def test_url_count(self):
        r = readability_features(tokenize("Visit www.example.com and https://b.example now."))
        assert r["URL"] == 2

    def test_long_words(self):
        # letters > 6: "excellent" (9) counts, "lengthy" (7) counts
        r = readability_features(tokenize("An excellent lengthy word set."))
        assert r["LW"] == 2

    def test_stopword_percentage(self, monkeypatch):
        monkeypatch.setattr(veritag.resources, "stopwords", lambda: frozenset({"the", "on"}))
        r = readability_features(tokenize("The cat sat on the mat."))
        assert r["PS"] == pytest.approx(50.0)

    def test_difficult_words_against_easy_list(self, monkeypatch):
        easy = frozenset({"the", "cat", "sat", "on", "mat"})
        monkeypatch.setattr(veritag.resources, "easy_words", lambda: easy)
        r = readability_features(tokenize("The cat sat on the mat."))
        assert r["DW"] == 0

    def test_feature_name_table_matches_keys(self):
        r = readability_features(tokenize("One sentence here."))
        assert tuple(r) == READABILITY_FEATURES


_SENTENCE_POOL = (
    "The vote ended quickly.",
    "Several residents asked about the new budget.",
    "Reporters watched from the back of the room.",
    "A final decision arrives next week.",
    "Nobody expected the second amendment to pass.",
)


class TestAdditivity:
    @given(st.lists(st.sampled_from(_SENTENCE_POOL), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_counts_add_over_concatenation(self, sentences):
        whole = readability_features(tokenize(" ".join(sentences)))
        parts = [readability_features(tokenize(s)) for s in sentences]
        assert whole["W"] == sum(p["W"] for p in parts)
        assert whole["STC"] == sum(p["STC"] for p in parts)
        assert whole["SY"] == sum(p["SY"] for p in parts)
        # joining spaces add no non-whitespace characters
        assert whole["CH"] == sum(p["CH"] for p in parts)

    @given(st.lists(st.sampled_from(_SENTENCE_POOL), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_words_per_sentence_is_ratio(self, sentences):
        r = readability_features(tokenize(" ".join(sentences)))
        assert r["WS"] == pytest.approx(r["W"] / r["STC"])


class TestSyllableConsistency:
    def test_sy_is_sum_of_token_syllables(self):
        text = "Independent estimates projected considerable savings."
        tk = tokenize(text)
        r = readability_features(tk)
        assert r["SY"] == sum(count_syllables(t) for t in tk.tokens)


def _reference_features(tokenized):
    """Every count taken token by token: the oracle for the counted version."""
    easy, stop = easy_words(), stopwords()
    tokens = tokenized.tokens
    w, stc, ch = len(tokens), len(tokenized.sentences), tokenized.char_count
    if w == 0 or stc == 0:
        return {**dict.fromkeys(READABILITY_FEATURES, 0.0), "CH": ch}
    syllables = [count_syllables(t) for t in tokens]
    sy = sum(syllables)
    complex_words = sum(1 for s in syllables if s >= 3)
    lowered = [t.lower() for t in tokens]
    letters = sum(_letters(t) for t in tokens)
    ws = w / stc
    return {
        "FRI": 206.835 - 1.015 * ws - 84.6 * (sy / w),
        "FKI": 0.39 * ws + 11.8 * (sy / w) - 15.59,
        "MSI": 1.0430 * math.sqrt(complex_words * 30.0 / stc) + 3.1291,
        "GFI": 0.4 * (ws + 100.0 * complex_words / w),
        "CLI": 0.0588 * (100.0 * letters / w) - 0.296 * (100.0 * stc / w) - 15.8,
        "ARI": 4.71 * (ch / w) + 0.5 * ws - 21.43,
        "LWI": _linsear_write(syllables, tokenized.sentences),
        "WS": ws, "W": w, "STC": stc, "CH": ch, "SY": sy, "LX": len(set(lowered)),
        "CW.cap": sum(1 for t in tokens if t[:1].isupper()),
        "CW.complex": complex_words,
        "DW": sum(1 for t in lowered if t not in easy),
        "LW": sum(1 for t in tokens if _letters(t) > 6),
        "PS": 100.0 * sum(1 for t in lowered if t in stop) / w,
        "URL": sum(1 for t in tokens if is_url_token(t)),
    }


# easy words, stopwords, long and many-syllable words, a URL, an
# apostrophe and digits, each drawn repeatedly in random case
_VOCAB = (
    "the", "and", "of", "cat", "table", "little", "government", "considerable",
    "independent", "make", "rhythm", "don't", "2019", "www.example.com", "said",
)


def _mixed_case(word: str):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(word, upper))
    )


_repeating_texts = st.lists(
    st.tuples(st.sampled_from(_VOCAB).flatmap(_mixed_case), st.sampled_from([" ", " ", ", ", ". ", "! "])),
    max_size=150,
).map(lambda parts: "".join(word + sep for word, sep in parts))


class TestMatchesReference:
    @given(_repeating_texts)
    @settings(max_examples=200, deadline=None)
    def test_features_equal_per_token_reference(self, text):
        tk = tokenize(text)
        assert readability_features(tk) == _reference_features(tk)

    @given(st.text(alphabet="aZé²3'ǅ́ß.", max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_letter_count_equals_per_character_count(self, token):
        # all-letter tokens take a shortcut; digits, marks and apostrophes do not count
        assert _letters(token) == sum(1 for c in token if c.isalpha())
