"""Category dictionary parsing and percentage scoring."""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veritag.errors import DataError
from veritag.linguistics import CategoryDictionary, dictionary_scores, load_dictionary
from veritag.resources import demo_dictionary_path


class TestDemoDictionary:
    def test_has_31_categories(self, demo_dictionary):
        assert len(demo_dictionary.categories) == 31

    def test_literal_match_percentage(self, demo_dictionary):
        scores = dictionary_scores(["sad", "sad", "day"], demo_dictionary)
        assert scores["AF.sad"] == pytest.approx(200.0 / 3.0)
        assert scores["RL.time"] == pytest.approx(100.0 / 3.0)

    def test_prefix_match(self, demo_dictionary):
        # friend* covers inflections; foes matches nothing
        scores = dictionary_scores(["friendly", "foes"], demo_dictionary)
        assert scores["SO.friend"] == pytest.approx(50.0)

    def test_case_insensitive(self, demo_dictionary):
        a = dictionary_scores(["SAD"], demo_dictionary)
        b = dictionary_scores(["sad"], demo_dictionary)
        assert a == b

    def test_empty_tokens_all_zero(self, demo_dictionary):
        scores = dictionary_scores([], demo_dictionary)
        assert set(scores.values()) == {0.0}


class TestCategoryDictionary:
    def test_multi_category_pattern(self):
        d = CategoryDictionary(
            categories=["one", "two"], patterns=[("always", (0, 1))]
        )
        scores = dictionary_scores(["always"], d)
        assert scores == {"one": 100.0, "two": 100.0}

    def test_token_counts_once_per_category(self):
        # literal and prefix both hit the same category: still one count
        d = CategoryDictionary(
            categories=["c"], patterns=[("run", (0,)), ("run*", (0,))]
        )
        assert dictionary_scores(["run"], d) == {"c": 100.0}

    def test_invalid_category_index(self):
        with pytest.raises(DataError):
            CategoryDictionary(categories=["c"], patterns=[("x", (3,))])

    def test_duplicate_category_names(self):
        with pytest.raises(DataError):
            CategoryDictionary(categories=["c", "c"], patterns=[])

    def test_empty_category_list_on_pattern(self):
        with pytest.raises(DataError):
            CategoryDictionary(categories=["c"], patterns=[("x", ())])


class TestLoadDictionary:
    def _write(self, tmp_path, text):
        path = tmp_path / "dict.dic"
        path.write_text(text, encoding="utf-8")
        return path

    def test_round_trip(self, tmp_path):
        path = self._write(tmp_path, "%\n1\talpha\n2\tbeta\n%\ncat\t1\ndog*\t1\t2\n")
        d = load_dictionary(path)
        assert d.categories == ["alpha", "beta"]
        assert dictionary_scores(["cat"], d)["alpha"] == 100.0
        assert dictionary_scores(["doggy"], d)["beta"] == 100.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_dictionary(tmp_path / "absent.dic")

    def test_missing_delimiters(self, tmp_path):
        with pytest.raises(DataError, match="delimiter"):
            load_dictionary(self._write(tmp_path, "1\talpha\ncat\t1\n"))

    def test_undeclared_category_id(self, tmp_path):
        with pytest.raises(DataError, match="undeclared"):
            load_dictionary(self._write(tmp_path, "%\n1\talpha\n%\ncat\t9\n"))

    def test_interior_star_rejected(self, tmp_path):
        with pytest.raises(DataError, match="final character"):
            load_dictionary(self._write(tmp_path, "%\n1\talpha\n%\nc*t\t1\n"))

    def test_duplicate_category_id(self, tmp_path):
        with pytest.raises(DataError, match="duplicate"):
            load_dictionary(self._write(tmp_path, "%\n1\ta\n1\tb\n%\nx\t1\n"))


_tokens = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
    min_size=1,
    max_size=15,
)


class TestProperties:
    @given(tokens=_tokens)
    @settings(max_examples=100, deadline=None)
    def test_doubling_tokens_preserves_percentages(self, tokens, demo_dictionary):
        once = dictionary_scores(tokens, demo_dictionary)
        twice = dictionary_scores(list(tokens) * 2, demo_dictionary)
        for name in once:
            assert twice[name] == pytest.approx(once[name])

    @given(tokens=_tokens)
    @settings(max_examples=100, deadline=None)
    def test_scores_within_bounds(self, tokens, demo_dictionary):
        for value in dictionary_scores(tokens, demo_dictionary).values():
            assert 0.0 <= value <= 100.0


def _reference_scores(tokens, dictionary):
    """One ``match`` call per token occurrence: the oracle for scoring."""
    counts = [0] * len(dictionary.categories)
    for token in tokens:
        for idx in dictionary.match(token):
            counts[idx] += 1
    if not tokens:
        return {name: 0.0 for name in dictionary.categories}
    return {
        name: 100.0 * counts[i] / len(tokens) for i, name in enumerate(dictionary.categories)
    }


# literal patterns, prefix patterns with and without a suffix, and misses
_VOCAB = sorted(
    {p.rstrip("*") + suffix
     for p, _ in load_dictionary(demo_dictionary_path()).patterns[::7]
     for suffix in ("", "ing")}
    | {"zzyzx", "qwerty", "x"}
)


def _mixed_case(word: str):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(word, upper))
    )


_repeating_tokens = st.lists(st.sampled_from(_VOCAB).flatmap(_mixed_case), max_size=60)


class TestMatchesReference:
    @given(tokens=_repeating_tokens)
    @settings(max_examples=200, deadline=None)
    def test_scores_equal_per_token_reference(self, tokens, demo_dictionary):
        assert dictionary_scores(tokens, demo_dictionary) == _reference_scores(tokens, demo_dictionary)


def _reference_match(dictionary: CategoryDictionary, token: str) -> frozenset[int]:
    """Look up every prefix length from 0 to the longest prefix pattern:
    ``match`` before it visited only the prefix lengths that occur."""
    t = token.lower()
    hits = set(dictionary._literal.get(t, ()))
    longest = max((len(k) for k in dictionary._prefix), default=0)
    for k in range(min(len(t), longest) + 1):
        hits.update(dictionary._prefix.get(t[:k], ()))
    return frozenset(hits)


# patterns over a small alphabet so that prefixes of several lengths,
# a bare "*" and literals all collide with the tokens
_pattern = st.builds(
    lambda stem, star: stem + ("*" if star else ""),
    st.text(alphabet="abAB", max_size=4),
    st.booleans(),
).filter(bool)


@st.composite
def _dictionaries(draw):
    n = draw(st.integers(1, 4))
    patterns = draw(st.lists(
        st.tuples(_pattern, st.lists(st.integers(0, n - 1), min_size=1, max_size=3).map(tuple)),
        max_size=12,
    ))
    return CategoryDictionary(categories=[f"c{i}" for i in range(n)], patterns=patterns)


class TestMatchVisitsOnlyPrefixLengthsThatOccur:
    def test_bare_star_and_several_lengths(self):
        d = CategoryDictionary(
            categories=["all", "ab", "abba", "lit"],
            patterns=[("*", (0,)), ("ab*", (1,)), ("abba*", (2,)), ("ab", (3,))],
        )
        assert d.match("") == {0}
        assert d.match("AB") == {0, 1, 3}
        assert d.match("abb") == {0, 1}
        assert d.match("abba") == {0, 1, 2}
        assert d.match("Abbatoir") == {0, 1, 2}
        for token in ("", "a", "ab", "abb", "abba", "abbax", "b", "ba"):
            assert d.match(token) == _reference_match(d, token)

    @given(_dictionaries(), st.lists(st.text(alphabet="abAB", max_size=6), max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_equals_all_lengths_loop(self, dictionary, tokens):
        for token in tokens:
            assert dictionary.match(token) == _reference_match(dictionary, token)
