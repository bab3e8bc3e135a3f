"""Content-based baseline: TF-IDF n-grams plus the L and R feature groups.

Approximates the FNDetector feature stack without its context-free-grammar
production-rule features (those need a constituency parser and are out of
scope); accuracy comparisons against published FNDetector numbers should
keep that gap in mind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ConfigError, DataError
from ..featureset import granularity_text
from ..linguistics import (
    READABILITY_FEATURES,
    CategoryDictionary,
    dictionary_scores,
    readability_features,
    tokenize,
)
from ..markup import Article

DEFAULT_MIN_DF = 2


@dataclass(frozen=True)
class BaselineText:
    """One article as the baseline reads it at one granularity: the
    lowercased tokens its n-grams come from, and its L and R blocks, which
    no fit changes."""

    tokens: list[str]
    lr_block: np.ndarray


def baseline_texts(
    articles: Sequence[Article], granularity: str, dictionary: CategoryDictionary
) -> list[BaselineText]:
    """Tokenize each article once. Equal lowercased tokens share one string
    object through one dict per call, so the texts of a corpus take little
    more memory than its distinct words."""
    strings: dict[str, str] = {}
    texts = []
    for article in articles:
        tokenized = tokenize(granularity_text(article, granularity))
        scores = dictionary_scores(tokenized.tokens, dictionary, tokenized.lowered)
        readability = readability_features(tokenized).as_features()
        lowered = list(map(str.lower, tokenized.tokens))
        texts.append(
            BaselineText(
                tokens=list(map(strings.setdefault, lowered, lowered)),
                lr_block=np.array(
                    [scores[c] for c in dictionary.categories]
                    + [readability[r] for r in READABILITY_FEATURES],
                    dtype=np.float64,
                ),
            )
        )
    return texts


Texts = Sequence[Article] | Sequence[BaselineText]


def _ngrams(tokens: list[str]) -> list[str]:
    """Unigrams, then bigrams joined by a space."""
    return [*tokens, *map(" ".join, zip(tokens, tokens[1:]))]


@dataclass
class BaselineFeaturizer:
    """TF-IDF vocabulary over unigrams+bigrams, concatenated with the
    psychological and readability groups of the same text.

    Every method that takes articles also takes their texts from
    ``baseline_texts`` at the featurizer's granularity and dictionary, so a
    caller that fits and transforms the same articles many times prepares
    them once."""

    granularity: str
    dictionary: CategoryDictionary
    min_df: int = DEFAULT_MIN_DF
    vocabulary: tuple[str, ...] = ()
    idf: dict[str, float] = field(default_factory=dict)
    fitted: bool = False

    def __post_init__(self) -> None:
        if self.fitted:
            self._index_vocabulary()

    def _index_vocabulary(self) -> None:
        """Term columns and an idf array for _row; derived, never persisted."""
        self._columns = {t: i for i, t in enumerate(self.vocabulary)}
        self._idf = np.array([self.idf[t] for t in self.vocabulary], dtype=np.float64)

    def _texts(self, articles: Texts) -> Sequence[BaselineText]:
        if all(isinstance(a, BaselineText) for a in articles):
            return articles
        return baseline_texts(articles, self.granularity, self.dictionary)

    def fit(self, articles: Texts) -> "BaselineFeaturizer":
        """Learn the vocabulary (terms in ≥ min_df documents) and idf."""
        texts = self._texts(articles)
        if not texts:
            raise DataError("cannot fit the baseline on an empty corpus")
        df: dict[str, int] = {}
        for text in texts:
            for term in set(_ngrams(text.tokens)):
                df[term] = df.get(term, 0) + 1
        n = len(texts)
        self.vocabulary = tuple(sorted(t for t, c in df.items() if c >= self.min_df))
        self.idf = {
            t: math.log((1 + n) / (1 + df[t])) + 1.0 for t in self.vocabulary
        }
        self.fitted = True
        self._index_vocabulary()
        return self

    def fit_transform(self, articles: Texts) -> np.ndarray:
        """fit, then transform_many of the same articles, tokenizing each
        article once."""
        texts = self._texts(articles)
        self.fit(texts)
        return np.stack([self._row(t) for t in texts])

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise ConfigError("baseline featurizer is not fitted")

    def transform(self, article: Article | BaselineText) -> np.ndarray:
        """Row vector: L2-normalized raw-tf × idf block, then L, then R."""
        self._require_fitted()
        return self._row(self._texts([article])[0])

    def _row(self, text: BaselineText) -> np.ndarray:
        hits = [i for i in map(self._columns.get, _ngrams(text.tokens)) if i is not None]
        tfidf = np.bincount(
            np.array(hits, dtype=np.intp), minlength=len(self.vocabulary)
        ).astype(np.float64)
        tfidf *= self._idf
        norm = math.sqrt(float(tfidf @ tfidf))
        if norm > 0.0:
            tfidf /= norm
        return np.concatenate([tfidf, text.lr_block])

    def transform_many(self, articles: Texts) -> np.ndarray:
        self._require_fitted()
        return np.stack([self._row(t) for t in self._texts(articles)])
