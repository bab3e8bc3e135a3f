"""Part-of-speech tagging with the rule tagger.

``RuleTagger.tag(tokens) -> list[str]`` emits raw Penn Treebank tags, and
``count_tags(tokens, sentences)`` counts the tags of a text tagged sentence
by sentence. Feature counting maps the raw counts onto the 33-tag table
used by the morphological feature group (``FW`` is reported there as
``FOW``).
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence


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
           "themselves myself yourself ourselves mine yours hers theirs let's",
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


# Words whose 's is no possessive ending but "is" or "has" ("it's"); such a
# word tags VBZ. The 's of "let's" is "us", and the lexicon tags it PRP.
_CLITIC_VBZ_HOSTS = frozenset("it he she that what who there here where how".split())


def _fallback_tag(token: str, index: int) -> str:
    """Tag for a word with no lexical information."""
    # no code point is both alphabetic and a digit
    if not token.isalpha() and any(c.isdigit() for c in token):
        return "CD"
    # One tag per token: Penn splits "John's" into John/NNP 's/POS, but the
    # tokenizer keeps it whole, so the word takes its clitic's tag.
    if token.endswith("'s"):
        return "VBZ" if token[:-2].lower() in _CLITIC_VBZ_HOSTS else "POS"
    if index > 0 and token[:1].isupper():
        return "NNP"
    low = token.lower()
    if low.endswith("ing") and len(low) > 3:
        return "VBG"
    if low.endswith("ly"):
        return "RB"
    return "NN"


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
        """Raw tag counts over the tokens, each sentence range tagged as
        its own sequence; the ranges partition ``[0, len(tokens))``.
        ``counts``, when given, is the tokens' census
        (``TokenizedText.counts``).

        A token's tag depends only on the token and on whether it opens
        its sentence, so each distinct token of the census is tagged once
        at an inside position. Only a word the lexicon does not know can
        tag differently when it opens a sentence (capitalized, it is NNP
        inside and falls through to the suffix rules as an opener), so
        such openers are recounted."""
        if counts is None:
            counts = Counter(tokens)
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


_DEFAULT_TAGGER = RuleTagger()


def pos_tag(tokens: Sequence[str], tagger: RuleTagger | None = None) -> list[str]:
    """One raw Penn Treebank tag per token."""
    return (_DEFAULT_TAGGER if tagger is None else tagger).tag(list(tokens))


def morphological_features(
    tokens: Sequence[str],
    tagger: RuleTagger | None = None,
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
