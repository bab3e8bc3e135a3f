"""Content-based baseline: TF-IDF n-grams plus the L and R feature groups.

Approximates the FNDetector feature stack without its context-free-grammar
production-rule features (those need a constituency parser and are out of
scope); accuracy comparisons against published FNDetector numbers should
keep that gap in mind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import workers
from ..corpus import RawDocument
from ..errors import DataError
from ..linguistics import CategoryDictionary, dictionary_scores, readability_features, tokenize
from ..markup import Article, extract_article, granularity_text, parse_html


@dataclass(frozen=True)
class BaselineText:
    """One article as the baseline reads it at one granularity: the
    lowercased tokens its n-grams come from, and its L and R blocks, which
    no fit changes."""

    tokens: list[str]
    lr_block: np.ndarray


def baseline_text(
    article: Article, granularity: str, dictionary: CategoryDictionary
) -> BaselineText:
    """Tokenize the article's text at the granularity once."""
    tokenized = tokenize(granularity_text(article, granularity))
    scores = dictionary_scores(tokenized.tokens, dictionary, tokenized.lowered)
    readability = readability_features(tokenized)
    return BaselineText(
        tokens=list(map(str.lower, tokenized.tokens)),
        lr_block=np.array([*scores.values(), *readability.values()], dtype=np.float64),
    )


def document_texts(
    docs: Sequence[RawDocument],
    granularities: Sequence[str],
    dictionary: CategoryDictionary,
    *,
    jobs: int | None = None,
) -> list[list[BaselineText]]:
    """Per granularity, the text of each page. Each page is parsed once, in
    one of up to ``jobs`` processes (default: the usable CPUs). Equal tokens
    are made one string object, so the texts of a corpus take little more
    memory than its distinct words."""

    def texts(doc: RawDocument) -> list[BaselineText]:
        article = extract_article(parse_html(doc.html))
        return [baseline_text(article, g, dictionary) for g in granularities]

    pages = workers.fork_map(texts, docs, jobs)
    strings: dict[str, str] = {}
    for page in pages:
        for text in page:
            text.tokens[:] = map(strings.setdefault, text.tokens, text.tokens)
    return [[page[j] for page in pages] for j in range(len(granularities))]


def _ngrams(tokens: list[str]) -> list[str]:
    """Unigrams, then bigrams joined by a space."""
    return [*tokens, *map(" ".join, zip(tokens, tokens[1:]))]


@dataclass
class BaselineFeaturizer:
    """TF-IDF vocabulary over unigrams+bigrams, concatenated with the
    psychological and readability groups of the same text.

    ``fit`` learns one; ``idf`` holds the vocabulary's terms in column
    order. Every method takes the texts that ``baseline_text`` or
    ``document_texts`` prepare at the featurizer's granularity and
    dictionary, so a caller that fits and transforms the same pages many
    times tokenizes each page once."""

    granularity: str
    dictionary: CategoryDictionary
    min_df: int
    idf: dict[str, float]

    def __post_init__(self) -> None:
        # term columns and an idf array for _row; derived, never persisted
        self._columns = {t: i for i, t in enumerate(self.idf)}
        self._idf = np.array(list(self.idf.values()), dtype=np.float64)

    @property
    def vocabulary(self) -> tuple[str, ...]:
        return tuple(self.idf)

    @classmethod
    def fit(
        cls,
        texts: Sequence[BaselineText],
        granularity: str,
        dictionary: CategoryDictionary,
        min_df: int,
    ) -> "BaselineFeaturizer":
        """Learn the vocabulary (terms in ≥ min_df documents) and idf."""
        if not texts:
            raise DataError("cannot fit the baseline on an empty corpus")
        df: dict[str, int] = {}
        for text in texts:
            for term in set(_ngrams(text.tokens)):
                df[term] = df.get(term, 0) + 1
        n = len(texts)
        vocabulary = sorted(t for t, c in df.items() if c >= min_df)
        idf = {t: math.log((1 + n) / (1 + df[t])) + 1.0 for t in vocabulary}
        return cls(granularity, dictionary, min_df, idf)

    def _row(self, text: BaselineText) -> np.ndarray:
        """L2-normalized raw-tf × idf block, then L, then R."""
        hits = [i for i in map(self._columns.get, _ngrams(text.tokens)) if i is not None]
        tfidf = np.bincount(
            np.array(hits, dtype=np.intp), minlength=self._idf.size
        ).astype(np.float64)
        tfidf *= self._idf
        norm = math.sqrt(float(tfidf @ tfidf))
        if norm > 0.0:
            tfidf /= norm
        return np.concatenate([tfidf, text.lr_block])

    def transform_many(self, texts: Sequence[BaselineText]) -> np.ndarray:
        return np.stack([self._row(t) for t in texts])
