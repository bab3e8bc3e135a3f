"""Part-of-speech tagging: a rule tagger and a trainable averaged perceptron.

Both taggers expose ``tag(tokens) -> list[str]`` and emit raw Penn Treebank
tags, and ``count_tags(tokens, sentences)`` counts the tags of a text tagged
sentence by sentence. Feature counting maps the raw counts onto the 33-tag
table used by the morphological feature group (``FW`` is reported there as
``FOW``).
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

from ..errors import ConfigError, DataError, is_number_map, is_str_list, read_json
from .text import token_census

# The 33 morphological feature tags, in schema order. FOW is the foreign-word
# tag (raw Penn FW).
PENN_TABLE_TAGS: tuple[str, ...] = (
    "WDT", "PDT", "JJ", "VB", "MD", "CD", "VBD", "VBG", "VBN", "RP", "DT",
    "NNPS", "NN", "CC", "WRB", "FOW", "NNS", "TO", "WP$", "JJS", "WP", "POS",
    "VBP", "RBR", "NNP", "UH", "PRP", "VBZ", "RBS", "PRP$", "RB", "JJR", "IN",
)

_RAW_TO_TABLE = {**{t: t for t in PENN_TABLE_TAGS if t != "FOW"}, "FW": "FOW"}

# Most-frequent-tag lexicon for the rule tagger. Lookup is lowercased.
_LEXICON: dict[str, str] = {}
_LEXICON_GROUPS: Mapping[str, str] = {
    "DT": "the a an this these those some any no every each either neither "
          "another both all such",
    "IN": "of in on at by for with from as that if than because about after "
          "before into over under between through during against among "
          "while since until within without like unless although though "
          "despite toward upon across behind beyond near",
    "CC": "and or but nor plus",
    "TO": "to",
    "PRP": "i you he she it we they them him us me himself herself itself "
           "themselves myself yourself ourselves mine yours hers theirs",
    "PRP$": "my your his her its our their",
    "WDT": "which whichever",
    "WP": "who what whom whoever whatever",
    "WP$": "whose",
    "WRB": "when where why how whenever wherever",
    "MD": "will would can could should shall may might must cannot",
    "EX": "there",
    "RB": "not very also just too only even still never always often "
          "sometimes again already yet soon perhaps maybe quite rather "
          "almost away back then once twice ever instead together however "
          "therefore meanwhile moreover nonetheless indeed anyway abroad "
          "ago apart aside forward nearby nowhere somewhere anywhere "
          "everywhere here now",
    "RBR": "more less further sooner",
    "RBS": "most least",
    "JJR": "better earlier larger smaller bigger greater higher lower older "
           "younger worse newer longer shorter stronger weaker cheaper",
    "JJS": "best worst largest smallest biggest greatest highest lowest "
           "oldest youngest newest longest latest",
    "JJ": "good new old great big small other such last first next own same "
          "able bad high low long public late hard major real sure free "
          "true full special whole clear recent likely difficult important "
          "strong young early possible serious national local political "
          "economic social financial federal foreign official former "
          "popular current senior top chief key main standard private "
          "several many few much more less fewer",
    "CD": "one two three four five six seven eight nine ten eleven twelve "
          "twenty thirty forty fifty hundred thousand million billion "
          "trillion dozen zero",
    "VB": "be go get make take see come want use find give tell work call "
          "try ask need feel become leave put mean keep let begin seem "
          "help show hear play run move believe bring happen write sit "
          "stand lose pay meet include continue set learn lead understand "
          "watch follow stop create speak read spend grow open win teach "
          "offer remember consider appear buy serve die send build stay "
          "fall cut reach kill raise pass sell decide return explain hope "
          "develop carry break receive agree support hit produce eat cover "
          "catch draw choose vote",
    "VBD": "was were had did said made went got saw came took told became "
           "left felt put kept began seemed showed heard played ran moved "
           "believed brought happened wrote sat stood lost paid met "
           "included continued learned led watched followed stopped spoke "
           "read grew opened won offered remembered bought served died "
           "sent built stayed fell reached killed raised passed sold "
           "decided returned hoped developed carried broke received agreed "
           "supported produced ate covered caught drew chose voted found "
           "gave knew thought wanted used asked needed worked called tried "
           "slept reported claimed announced revealed declared admitted "
           "denied warned added",
    "VBG": "being having doing going getting making taking seeing coming "
           "saying telling working calling trying asking using finding "
           "giving feeling becoming leaving putting meaning keeping "
           "letting beginning seeming helping showing hearing playing "
           "running moving living believing holding bringing writing "
           "sitting standing losing paying meeting including continuing "
           "setting learning leading watching following stopping creating "
           "speaking reading growing opening winning reporting",
    "VBN": "been done made known seen taken given gotten shown written "
           "heard held brought kept left felt meant begun become chosen "
           "spoken broken fallen driven eaten drawn grown thrown worn "
           "born",
    "VBP": "are have do know think want say get make go see come take use "
           "find give tell work call try ask need feel seem leave mean "
           "keep let begin help show hear play run move like live believe "
           "hold bring write sit stand lose pay meet include continue set "
           "learn lead understand watch follow stop create speak read "
           "spend grow open walk win offer remember love consider appear "
           "buy wait serve die send expect build stay fall cut reach kill "
           "remain suggest raise pass sell require report decide pull "
           "return explain hope develop carry break receive agree support "
           "hit produce eat cover catch draw choose cause point",
    "VBZ": "is has does says gets makes goes sees comes takes uses finds "
           "gives tells works calls tries asks needs feels becomes leaves "
           "puts means keeps lets begins seems helps shows hears plays "
           "runs moves likes lives believes holds brings writes sits "
           "stands loses pays meets includes continues sets learns leads "
           "understands watches follows stops creates speaks reads spends "
           "grows opens walks wins offers remembers loves considers "
           "appears buys waits serves dies sends expects builds stays "
           "falls cuts reaches kills remains suggests raises passes sells "
           "requires reports decides pulls returns explains hopes develops "
           "carries breaks receives agrees supports hits produces eats "
           "covers catches draws chooses causes claims wants knows thinks",
    "NNS": "people years days things children women men students members "
           "countries problems services hands parts places cases weeks "
           "companies systems programs questions governments numbers "
           "nights points homes waters rooms mothers areas moneys stories "
           "facts months lots rights studies books eyes jobs words "
           "businesses issues sides kinds heads houses friends fathers "
           "powers hours games lines ends laws cars cities communities "
           "names teams minutes ideas kids bodies backs parents faces "
           "others levels offices doors healths persons arts wars "
           "histories parties results changes mornings reasons researches "
           "girls guys foods moments airs teachers forces educations "
           "officials voters elections reports sources claims rumors "
           "celebrities stars fans politicians senators scandals",
    "NN": "time year day thing child woman man student member country "
          "problem service hand part place case week company system "
          "program question government number night point home water room "
          "mother area money story fact month lot right study book eye "
          "job word business issue side kind head house friend father "
          "power hour game line end law car city community name team "
          "minute idea kid body back parent face level office door health "
          "person art war history party result change morning reason "
          "research girl guy food moment air teacher force education "
          "news media press election vote campaign policy report source "
          "claim rumor celebrity star fan politician senator scandal "
          "evidence truth science world state school family group "
          "president leader market price deal plan crisis debate speech "
          "interview article headline website page internet video photo "
          "cat dog mat",
    "NNP": "monday tuesday wednesday thursday friday saturday sunday "
           "january february march april may june july august september "
           "october november december america washington congress senate "
           "london england texas california york",
    "NNPS": "americans republicans democrats europeans russians",
    "RP": "up down out off",
    "UH": "oh hey wow yeah okay hmm alas hello",
    "FW": "de la von der du el das les und",
    "PDT": "half",
}
for _tag, _words in _LEXICON_GROUPS.items():
    for _w in _words.split():
        # first assignment wins on cross-group duplicates
        _LEXICON.setdefault(_w, _tag)


def _fallback_tag(token: str, index: int) -> str:
    """Tag for a word with no lexical information."""
    # no code point is both alphabetic and a digit
    if not token.isalpha() and any(c.isdigit() for c in token):
        return "CD"
    if index > 0 and token[:1].isupper():
        return "NNP"
    low = token.lower()
    if low.endswith("ing") and len(low) > 3:
        return "VBG"
    if low.endswith("ly"):
        return "RB"
    return "NN"


def _shape(token: str) -> str:
    out: list[str] = []
    for ch in token:
        if ch.isdigit():
            code = "d"
        elif ch.isalpha():
            code = "X" if ch.isupper() else "x"
        else:
            code = "o"
        if not out or out[-1] != code:
            out.append(code)
    return "".join(out)


class Tagger(Protocol):
    def tag(self, tokens: Sequence[str]) -> list[str]: ...

    def count_tags(
        self,
        tokens: Sequence[str],
        sentences: Sequence[tuple[int, int]],
        counts: Mapping[str, int] | None = None,
    ) -> Counter[str]:
        """Raw tag counts over the tokens, each sentence range tagged as
        its own sequence; the ranges partition ``[0, len(tokens))``.
        ``counts``, when given, is the tokens' census
        (``TokenizedText.counts``)."""
        ...


class RuleTagger:
    """Lexicon lookup with shape/suffix fallback for unknown words."""

    def __init__(self, lexicon: Mapping[str, str] | None = None):
        self.lexicon = dict(_LEXICON if lexicon is None else lexicon)

    def tag(self, tokens: Sequence[str]) -> list[str]:
        tags = []
        for i, token in enumerate(tokens):
            tag = self.lexicon.get(token.lower())
            tags.append(tag if tag is not None else _fallback_tag(token, i))
        return tags

    def count_tags(
        self,
        tokens: Sequence[str],
        sentences: Sequence[tuple[int, int]],
        counts: Mapping[str, int] | None = None,
    ) -> Counter[str]:
        """A token's tag depends only on the token and on whether it opens
        its sentence, so each distinct token of the census is tagged once
        at an inside position. Only a word the lexicon does not know can
        tag differently when it opens a sentence (capitalized, it is NNP
        inside and falls through to the suffix rules as an opener), so
        such openers are recounted."""
        if counts is None:
            counts = token_census(tokens)
        lexicon = self.lexicon
        tags: Counter[str] = Counter()
        proper: set[str] = set()  # NNP inside a sentence, by fallback only
        for token, n in counts.items():
            tag = lexicon.get(token.lower())
            if tag is None:
                tag = _fallback_tag(token, 1)
                if tag == "NNP":
                    proper.add(token)
            tags[tag] += n
        for start, end in sentences:
            if start < end and tokens[start] in proper:
                tags["NNP"] -= 1
                tags[_fallback_tag(tokens[start], 0)] += 1
        return tags


_START = ("-S1-", "-S2-")

WEIGHTS_FORMAT_VERSION = 1


class PerceptronTagger:
    """Greedy averaged perceptron over shape, suffix, and prior-tag features.

    Words never seen in training are tagged by the same fallback rules as
    the rule tagger; the fallback tag still feeds the context features of
    later positions.
    """

    def __init__(self) -> None:
        self.weights: dict[str, dict[str, float]] = {}
        self.classes: list[str] = []
        self.known_words: set[str] = set()

    @staticmethod
    def _features(token: str, prev: str, prev2: str) -> tuple[str, ...]:
        w = token.lower()
        return (
            "bias",
            "w=" + w,
            "suf1=" + w[-1:],
            "suf2=" + w[-2:],
            "suf3=" + w[-3:],
            "shape=" + _shape(token),
            "t1=" + prev,
            "t2=" + prev2,
            "t12=" + prev + "|" + prev2,
        )

    def _score(self, feats: Iterable[str]) -> dict[str, float]:
        scores = dict.fromkeys(self.classes, 0.0)
        for f in feats:
            per_tag = self.weights.get(f)
            if per_tag:
                for tag, w in per_tag.items():
                    scores[tag] += w
        return scores

    def _predict(self, feats: tuple[str, ...]) -> str:
        scores = self._score(feats)
        # max score, ties to the lexicographically smallest tag
        return min(scores, key=lambda t: (-scores[t], t))

    def tag(self, tokens: Sequence[str]) -> list[str]:
        if not self.classes:
            raise ConfigError("perceptron tagger has no trained weights")
        tags: list[str] = []
        prev, prev2 = _START
        for i, token in enumerate(tokens):
            if token.lower() in self.known_words:
                tag = self._predict(self._features(token, prev, prev2))
            else:
                tag = _fallback_tag(token, i)
            tags.append(tag)
            prev2, prev = prev, tag
        return tags

    def count_tags(
        self,
        tokens: Sequence[str],
        sentences: Sequence[tuple[int, int]],
        counts: Mapping[str, int] | None = None,
    ) -> Counter[str]:
        # a tag depends on the tags before it, so every sentence is tagged
        # and the census is not used
        tags: Counter[str] = Counter()
        for start, end in sentences:
            tags.update(self.tag(tokens[start:end]))
        return tags

    def train(
        self,
        sentences: Sequence[tuple[Sequence[str], Sequence[str]]],
        epochs: int = 5,
        seed: int = 0,
    ) -> None:
        """Fit on (tokens, gold tags) pairs with seeded epoch shuffling."""
        for tokens, gold in sentences:
            if len(tokens) != len(gold):
                raise DataError("token/tag length mismatch in training data")
        self.classes = sorted({t for _, gold in sentences for t in gold})
        self.known_words = {
            w.lower() for tokens, _ in sentences for w in tokens
        }
        totals: dict[str, dict[str, float]] = {}
        stamps: dict[str, dict[str, int]] = {}
        self.weights = {}
        step = 0
        rng = random.Random(seed)
        order = list(range(len(sentences)))

        def bump(feat: str, tag: str, delta: float) -> None:
            per_w = self.weights.setdefault(feat, {})
            per_t = totals.setdefault(feat, {})
            per_s = stamps.setdefault(feat, {})
            per_t[tag] = per_t.get(tag, 0.0) + (step - per_s.get(tag, 0)) * per_w.get(tag, 0.0)
            per_s[tag] = step
            per_w[tag] = per_w.get(tag, 0.0) + delta

        for _ in range(epochs):
            rng.shuffle(order)
            for idx in order:
                tokens, gold = sentences[idx]
                prev, prev2 = _START
                for i, token in enumerate(tokens):
                    step += 1
                    feats = self._features(token, prev, prev2)
                    guess = self._predict(feats)
                    if guess != gold[i]:
                        for f in feats:
                            bump(f, gold[i], 1.0)
                            bump(f, guess, -1.0)
                    # train with gold context so errors do not compound
                    prev2, prev = prev, gold[i]
        # finish averaging
        for feat, per_tag in self.weights.items():
            for tag in per_tag:
                total = totals[feat][tag] + (step - stamps[feat][tag]) * per_tag[tag]
                per_tag[tag] = total / step if step else 0.0

    def save(self, path: str | Path) -> None:
        payload = {
            "format_version": WEIGHTS_FORMAT_VERSION,
            "kind": "perceptron-tagger",
            "classes": self.classes,
            "known_words": sorted(self.known_words),
            "weights": self.weights,
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "PerceptronTagger":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"tagger weights file not found: {path}")
        payload = read_json(path, "tagger weights")
        if not isinstance(payload, dict) or payload.get("kind") != "perceptron-tagger":
            raise DataError(f"{path}: not a tagger weights file")
        if payload.get("format_version") != WEIGHTS_FORMAT_VERSION:
            raise DataError(
                f"{path}: unsupported weights format version "
                f"{payload.get('format_version')!r}"
            )
        weights = payload.get("weights")
        if not (
            is_str_list(payload.get("classes")) and is_str_list(payload.get("known_words"))
            and isinstance(weights, dict) and all(map(is_number_map, weights.values()))
        ):
            raise DataError(
                f"{path}: tagger weights need 'classes' and 'known_words' lists of "
                "strings and 'weights' objects of numbers"
            )
        tagger = cls()
        tagger.classes = list(payload["classes"])
        tagger.known_words = set(payload["known_words"])
        tagger.weights = {
            f: {t: float(w) for t, w in per.items()}
            for f, per in payload["weights"].items()
        }
        return tagger


_DEFAULT_TAGGER = RuleTagger()


def resolve_tagger(spec: str) -> Tagger:
    """Build a tagger from a CLI spec: "rules" or "perceptron:PATH"."""
    if spec == "rules":
        return RuleTagger()
    if spec.startswith("perceptron:"):
        path = spec.split(":", 1)[1]
        if not path:
            raise ConfigError("perceptron tagger spec needs a weights path")
        return PerceptronTagger.load(path)
    raise ConfigError(f"unknown tagger spec {spec!r} (use rules or perceptron:PATH)")


def pos_tag(tokens: Sequence[str], tagger: Tagger | None = None) -> list[str]:
    """One raw Penn Treebank tag per token."""
    return (_DEFAULT_TAGGER if tagger is None else tagger).tag(list(tokens))


def morphological_features(
    tokens: Sequence[str],
    tagger: Tagger | None = None,
    sentences: Sequence[tuple[int, int]] | None = None,
    counts: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Counts over the 33-tag table; raw tags outside it are dropped.

    When sentence ranges are given (they partition ``[0, len(tokens))``, as
    ``TokenizedText.sentences`` does), each sentence is tagged as its own
    sequence so position-0 capitalization rules reset per sentence;
    without them the tokens are one sequence. ``counts`` is the tokens'
    census (``TokenizedText.counts``); without it the tagger takes its own.
    """
    if sentences is None:
        sentences = [(0, len(tokens))] if tokens else []
    raw_counts = (_DEFAULT_TAGGER if tagger is None else tagger).count_tags(
        tokens, sentences, counts
    )
    table_counts = dict.fromkeys(PENN_TABLE_TAGS, 0)
    for raw, n in raw_counts.items():
        table = _RAW_TO_TABLE.get(raw)
        if table is not None:
            table_counts[table] += n
    return table_counts
