"""Part-of-speech tagging and the morphological count features."""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veritag import PENN_TABLE_TAGS, morphological_features, pos_tag, tokenize
from veritag.linguistics.tagger import _RAW_TO_TABLE, RuleTagger


class TestPosTag:
    def test_lexicon_lookup(self):
        assert pos_tag(["The", "cat", "sat"]) == ["DT", "NN", "VBD"]

    def test_digits_are_cardinal(self):
        assert pos_tag(["3"]) == ["CD"]
        assert pos_tag(["1984"]) == ["CD"]

    def test_unknown_capitalized_mid_sequence_is_proper_noun(self):
        tags = pos_tag(["the", "Zorblax"])
        assert tags[1] == "NNP"

    def test_unknown_position_zero_is_not_proper_noun(self):
        # capitalization at position 0 is sentence case, not a name signal
        assert pos_tag(["Zorblax"]) == ["NN"]

    def test_ly_suffix_is_adverb(self):
        assert pos_tag(["zorbly"]) == ["RB"]

    def test_ing_suffix_is_gerund(self):
        assert pos_tag(["zorbing"]) == ["VBG"]

    def test_empty(self):
        assert pos_tag([]) == []

    @pytest.mark.parametrize("tokens, tags", [
        (["the", "B2B"], ["DT", "CD"]),
        (["the", "x²"], ["DT", "CD"]),
        (["the", "Quickly"], ["DT", "NNP"]),
        (["the", "Zorbing"], ["DT", "NNP"]),
        (["Zorbingly"], ["RB"]),
        (["ing"], ["NN"]),
        (["THE", "Cat"], ["DT", "NN"]),
        (["Ély", "élan"], ["RB", "NN"]),
        (["John's"], ["POS"]),
        (["the", "John's"], ["DT", "POS"]),
        (["the", "Its's"], ["DT", "POS"]),
        (["the", "1990's"], ["DT", "CD"]),
        (["the", "JOHN'S"], ["DT", "NNP"]),
        (["Let's", "let's"], ["PRP", "PRP"]),
    ], ids=["digits-before-capital", "superscript-digit", "capital-before-ly",
            "capital-before-ing", "ly-before-ing", "bare-ing", "lexicon-ignores-case",
            "non-ascii-suffix", "possessive-opener", "possessive-inside",
            "possessive-unlisted-host", "digits-before-possessive", "upper-case-s",
            "lexicon-before-possessive"])
    def test_fallback_rule_order(self, tokens, tags):
        """The lexicon comes first, then digits, a word ending in 's at any
        position, a capital inside the sequence, the -ing suffix of a longer
        word, -ly, and NN."""
        assert pos_tag(tokens) == tags

    @pytest.mark.parametrize("word, tag", [
        ("more", "RBR"), ("less", "RBR"), ("such", "DT"), ("made", "VBD"), ("put", "VB"),
        ("may", "MD"), ("back", "RB"), ("report", "VBP"), ("claims", "VBZ"),
    ])
    def test_a_word_in_two_lexicon_groups_takes_the_first(self, word, tag):
        assert pos_tag([word]) == [tag]


class TestRuleTaggerLexicon:
    def test_a_given_lexicon_replaces_the_bundled_one(self):
        tagger = RuleTagger(lexicon={"cat": "VB"})
        assert tagger.tag(["the", "cat", "Monday"]) == ["NN", "VB", "NNP"]
        assert pos_tag(["the", "cat"]) == ["DT", "NN"]

    def test_the_lexicon_is_copied(self):
        lexicon = {"cat": "VB"}
        tagger = RuleTagger(lexicon=lexicon)
        lexicon["cat"] = "JJ"
        assert tagger.tag(["cat"]) == ["VB"]

    def test_every_table_tag_has_a_word(self):
        """Each column of the N group can be nonzero."""
        words = {
            "WDT": "which", "PDT": "half", "JJ": "good", "VB": "be", "MD": "will",
            "CD": "3", "VBD": "was", "VBG": "being", "VBN": "been", "RP": "up", "DT": "the",
            "NNPS": "Americans", "NN": "cat", "CC": "and", "WRB": "when", "FOW": "von",
            "NNS": "people", "TO": "to", "WP$": "whose", "JJS": "best", "WP": "who",
            "VBP": "are", "RBR": "more", "NNP": "Monday", "UH": "oh", "PRP": "it",
            "VBZ": "is", "RBS": "most", "PRP$": "my", "RB": "not", "JJR": "better",
            "IN": "of", "POS": "John's",
        }
        assert set(words) == set(PENN_TABLE_TAGS)
        for tag, word in words.items():
            assert morphological_features([word])[tag] == 1, word
        emitted = set(RuleTagger().lexicon.values()) | {"CD", "POS", "NNP", "VBG", "RB", "NN"}
        assert {_RAW_TO_TABLE[t] for t in emitted if t in _RAW_TO_TABLE} == set(words)


class TestPossessives:
    def test_a_fixed_text(self):
        # one tag per token: the word takes its clitic's tag, POS for the
        # possessive, VBZ after a listed host and PRP for let's; a curly
        # apostrophe reads as a straight one, a trailing one is not part of
        # the word, and n't is no 's
        text = tokenize(
            "John's dog met Mary’s cat. It's late, and it's the voters' choice that won't "
            "wait. Let's go."
        )
        assert text.tokens == [
            "John's", "dog", "met", "Mary's", "cat", "It's", "late", "and", "it's", "the",
            "voters", "choice", "that", "won't", "wait", "Let's", "go",
        ]
        assert pos_tag(text.tokens) == [
            "POS", "NN", "VBD", "POS", "NN", "VBZ", "JJ", "CC", "VBZ", "DT",
            "NNS", "NN", "IN", "NN", "VBP", "PRP", "VB",
        ]
        counts = morphological_features(text.tokens, None, text.sentences, text.counts)
        assert (counts["POS"], counts["VBZ"], counts["PRP"]) == (2, 2, 1)

    @pytest.mark.parametrize("host", "it he she that what who there here where how".split())
    def test_a_listed_host_takes_vbz(self, host):
        assert pos_tag(["the", host + "'s", host.capitalize() + "'s"]) == ["DT", "VBZ", "VBZ"]


class TestMorphologicalFeatures:
    def test_keys_are_the_full_table(self):
        counts = morphological_features(["The", "cat", "sat"])
        assert set(counts) == set(PENN_TABLE_TAGS)
        assert counts["DT"] == 1
        assert counts["NN"] == 1
        assert counts["VBD"] == 1

    def test_counts_sum_to_tagged_tokens(self):
        tokens = ["The", "cat", "sat", "on", "the", "mat"]
        counts = morphological_features(tokens)
        assert sum(counts.values()) == len(tokens)

    def test_tags_outside_the_table_are_dropped(self):
        # existential "there" tags EX, which the table does not carry
        assert pos_tag(["there"]) == ["EX"]
        counts = morphological_features(["there"])
        assert sum(counts.values()) == 0

    def test_foreign_word_tag_maps_to_table_name(self):
        assert pos_tag(["von"]) == ["FW"]
        assert morphological_features(["von"])["FOW"] == 1

    def test_sentence_ranges_reset_position_rules(self):
        # "Zorblax" opens the second sentence, so with ranges it is tagged
        # at position 0 (NN); without them it is mid-sequence (NNP)
        tokens = ["He", "won", "Zorblax", "lost"]
        flat = morphological_features(tokens)
        split = morphological_features(tokens, sentences=[(0, 2), (2, 4)])
        assert flat["NNP"] == split["NNP"] + 1
        assert split["NN"] == flat["NN"] + 1

    def test_empty(self):
        counts = morphological_features([])
        assert sum(counts.values()) == 0


_tokens = st.lists(
    st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=8),
    min_size=0,
    max_size=20,
)


class TestProperties:
    @given(_tokens)
    @settings(max_examples=200, deadline=None)
    def test_one_tag_per_token(self, tokens):
        assert len(pos_tag(tokens)) == len(tokens)

    @given(_tokens)
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, tokens):
        assert pos_tag(tokens) == pos_tag(tokens)

    @given(_tokens)
    @settings(max_examples=100, deadline=None)
    def test_counts_never_exceed_token_count(self, tokens):
        # tags outside the table are dropped, never double-counted
        counts = morphological_features(tokens, tagger=RuleTagger())
        assert 0 <= sum(counts.values()) <= len(tokens)


def _reference_counts(tokens, tagger=None, sentences=None):
    """Tag every sentence slice as its own sequence, then count the tags:
    the loop ``morphological_features`` ran before tags were counted once
    per distinct token."""
    counts = dict.fromkeys(PENN_TABLE_TAGS, 0)
    if sentences is None:
        spans = [(0, len(tokens))] if tokens else []
    else:
        spans = list(sentences)
    for start, end in spans:
        for raw in pos_tag(tokens[start:end], tagger):
            table = _RAW_TO_TABLE.get(raw)
            if table is not None:
                counts[table] += 1
    return counts


# Words whose tag depends on opening a sentence (capitalized unknowns,
# capitalized -ly/-ing words), words that do not (lexicon entries, the
# lexicon's NNP "Monday", digits including the superscript "²" that
# str.isdigit accepts, and words ending in 's), and lower- and upper-case
# forms of each.
_WORDS = (
    "the", "The", "cat", "Cat", "sat", "Zorblax", "zorblax", "ZORBLAX",
    "Quickly", "quickly", "Running", "running", "Zorbing", "Monday", "monday",
    "May", "Paris", "paris", "There", "von", "Von", "Americans", "3", "1984",
    "x²", "²", "B2B", "Ély", "élan", "Ünited", "John's", "john's", "It's", "it's",
    "won't", "Let's",
)
_token = st.one_of(
    st.sampled_from(_WORDS),
    st.text(alphabet=string.ascii_letters + "²3", min_size=1, max_size=6),
)


@st.composite
def _sentenced_tokens(draw):
    """Tokens plus sentence ranges that partition them, as tokenize gives."""
    tokens = draw(st.lists(_token, max_size=30))
    cuts = draw(st.sets(st.integers(1, max(len(tokens) - 1, 1))))
    bounds = [0, *sorted(c for c in cuts if c < len(tokens)), len(tokens)]
    return tokens, list(zip(bounds, bounds[1:])) if tokens else []


_CUSTOM_LEXICON = {"zorblax": "NNP", "paris": "NNP", "sat": "VBD", "there": "EX", "quickly": ""}


class TestCountsMatchThePerSentenceLoop:
    def test_openers_and_inner_words(self):
        tokens = ["Zorblax", "met", "Zorblax", "Monday", "Monday", "Zorblax",
                  "Quickly", "Quickly", "²", "Zorbing", "Zorbing"]
        sentences = [(0, 3), (3, 6), (6, 8), (8, 9), (9, 11)]
        counts = morphological_features(tokens, sentences=sentences)
        assert counts == _reference_counts(tokens, sentences=sentences)
        # the unknown openers fall back to the suffix rules; the lexicon's
        # Monday is NNP in either place
        assert (counts["NN"], counts["RB"], counts["VBG"], counts["CD"]) == (1, 1, 1, 1)
        assert counts["NNP"] == 2 + 2 + 1 + 1

    @given(_sentenced_tokens())
    @settings(max_examples=300, deadline=None)
    def test_rule_tagger_with_sentences(self, text):
        tokens, sentences = text
        assert morphological_features(tokens, sentences=sentences) == _reference_counts(
            tokens, sentences=sentences
        )

    @given(st.lists(_token, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_rule_tagger_as_one_sequence(self, tokens):
        assert morphological_features(tokens) == _reference_counts(tokens)

    @given(_sentenced_tokens())
    @settings(max_examples=200, deadline=None)
    def test_custom_lexicon(self, text):
        tokens, sentences = text
        tagger = RuleTagger(lexicon=_CUSTOM_LEXICON)
        assert morphological_features(tokens, tagger, sentences) == _reference_counts(
            tokens, tagger, sentences
        )
