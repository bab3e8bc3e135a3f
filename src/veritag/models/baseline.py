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
    TokenizedText,
    dictionary_scores,
    readability_features,
    tokenize,
)
from ..markup import Article

DEFAULT_MIN_DF = 2


def _ngrams(tokens: Sequence[str], ngram_max: int = 2) -> list[str]:
    tokens = [t.lower() for t in tokens]
    grams = list(tokens)
    for size in range(2, ngram_max + 1):
        grams.extend(
            " ".join(tokens[i : i + size]) for i in range(len(tokens) - size + 1)
        )
    return grams


@dataclass
class BaselineFeaturizer:
    """TF-IDF vocabulary over unigrams+bigrams, concatenated with the
    psychological and readability groups of the same text."""

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

    def fit(self, articles: Sequence[Article]) -> "BaselineFeaturizer":
        """Learn the vocabulary (terms in ≥ min_df documents) and idf."""
        return self._fit([self._tokenize(a) for a in articles])

    def fit_transform(self, articles: Sequence[Article]) -> np.ndarray:
        """fit, then transform_many of the same articles, tokenizing each
        article once."""
        tokenized = [self._tokenize(a) for a in articles]
        self._fit(tokenized)
        return np.stack([self._row(t) for t in tokenized])

    def _tokenize(self, article: Article) -> TokenizedText:
        return tokenize(granularity_text(article, self.granularity))

    def _fit(self, tokenized: Sequence[TokenizedText]) -> "BaselineFeaturizer":
        if not tokenized:
            raise DataError("cannot fit the baseline on an empty corpus")
        df: dict[str, int] = {}
        for doc in tokenized:
            for term in set(_ngrams(doc.tokens)):
                df[term] = df.get(term, 0) + 1
        n = len(tokenized)
        self.vocabulary = tuple(sorted(t for t, c in df.items() if c >= self.min_df))
        self.idf = {
            t: math.log((1 + n) / (1 + df[t])) + 1.0 for t in self.vocabulary
        }
        self.fitted = True
        self._index_vocabulary()
        return self

    @property
    def feature_names(self) -> list[str]:
        self._require_fitted()
        return (
            ["tfidf." + t for t in self.vocabulary]
            + ["L." + c for c in self.dictionary.categories]
            + ["R." + r for r in READABILITY_FEATURES]
        )

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise ConfigError("baseline featurizer is not fitted")

    def transform(self, article: Article) -> np.ndarray:
        """Row vector: L2-normalized raw-tf × idf block, then L, then R."""
        self._require_fitted()
        return self._row(self._tokenize(article))

    def _row(self, tokenized: TokenizedText) -> np.ndarray:
        tfidf = np.zeros(len(self.vocabulary))
        for term in _ngrams(tokenized.tokens):
            i = self._columns.get(term)
            if i is not None:
                tfidf[i] += 1.0
        tfidf *= self._idf
        norm = math.sqrt(float(tfidf @ tfidf))
        if norm > 0.0:
            tfidf /= norm

        scores = dictionary_scores(tokenized.tokens, self.dictionary)
        l_block = np.array([scores[c] for c in self.dictionary.categories])
        readability = readability_features(tokenized).as_features()
        r_block = np.array([readability[r] for r in READABILITY_FEATURES])
        return np.concatenate([tfidf, l_block, r_block])

    def transform_many(self, articles: Sequence[Article]) -> np.ndarray:
        return np.stack([self.transform(a) for a in articles])
