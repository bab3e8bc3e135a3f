"""Trained pipeline: standardizer + classifier (+ schema or featurizer).

Two kinds: "tag" pipelines classify schema-aligned feature vectors; the
"baseline" kind carries its own TF-IDF featurizer and works from articles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import __version__ as package_version
from ..corpus import RawDocument
from ..errors import ConfigError, DataError
from ..featureset import (
    FeatureSchema,
    StandardizerParams,
    extract_document,
    standardize_apply,
    standardize_fit,
)
from ..linguistics import CategoryDictionary, Tagger
from ..markup import Article, extract_article, parse_html
from .baseline import BaselineFeaturizer
from .forest import RandomForestModel, rf_predict, rf_train
from .neighbors import KnnModel, knn_predict, knn_train
from .svm import LinearSvmModel, svm_predict, svm_train

CLASSIFIER_NAMES = ("svm", "knn", "rf")


@dataclass(frozen=True)
class ClassifierSettings:
    name: str = "svm"
    c: float = 0.1
    k: int = 5
    trees: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.name not in CLASSIFIER_NAMES:
            raise ConfigError(f"unknown classifier {self.name!r}")


def train_classifier(X: np.ndarray, y: np.ndarray, settings: ClassifierSettings):
    if settings.name == "svm":
        return svm_train(X, y, C=settings.c)
    if settings.name == "knn":
        return knn_train(X, y, k=settings.k)
    return rf_train(X, y, n_trees=settings.trees, seed=settings.seed)


def classifier_predict(model, x: np.ndarray) -> tuple[int, float]:
    if isinstance(model, LinearSvmModel):
        return svm_predict(model, x)
    if isinstance(model, KnnModel):
        return knn_predict(model, x)
    if isinstance(model, RandomForestModel):
        return rf_predict(model, x)
    raise ConfigError(f"unknown model type {type(model).__name__}")


def _hash_json(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


@dataclass
class TrainedPipeline:
    kind: str  # "tag" | "baseline"
    classifier_name: str
    classifier: object
    standardizer: StandardizerParams
    schema: FeatureSchema | None = None
    featurizer: BaselineFeaturizer | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind == "tag":
            if self.schema is None:
                raise ConfigError("tag pipeline needs a schema")
        elif self.kind == "baseline":
            if self.featurizer is None:
                raise ConfigError("baseline pipeline needs a featurizer")
        else:
            raise ConfigError(f"unknown pipeline kind {self.kind!r}")

    def schema_hash(self) -> str:
        if self.kind == "tag":
            assert self.schema is not None
            return _hash_json(
                [list(self.schema.names), self.schema.granularity, list(self.schema.groups)]
            )
        assert self.featurizer is not None
        return _hash_json(
            [
                list(self.featurizer.vocabulary),
                list(self.featurizer.dictionary.categories),
                self.featurizer.granularity,
            ]
        )

    def predict_matrix(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(classes, scores) for rows already aligned to the pipeline's
        feature space (raw, unstandardized values)."""
        X = np.asarray(X, dtype=np.float64)
        Z = standardize_apply(self.standardizer, X)
        out = [classifier_predict(self.classifier, z) for z in Z]
        classes = np.array([c for c, _ in out], dtype=np.int64)
        scores = np.array([s for _, s in out])
        return classes, scores

    def predict_documents(
        self,
        docs: Sequence[RawDocument],
        dictionary: CategoryDictionary | None = None,
        tagger: Tagger | None = None,
        ad_domains: frozenset[str] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "tag":
            assert self.schema is not None
            X = np.stack(
                [
                    extract_document(
                        doc, self.schema, dictionary, tagger, ad_domains
                    ).values
                    for doc in docs
                ]
            )
        else:
            assert self.featurizer is not None
            articles = [extract_article(parse_html(doc.html)) for doc in docs]
            X = self.featurizer.transform_many(articles)
        return self.predict_matrix(X)


def _base_metadata(settings: ClassifierSettings) -> dict:
    return {
        "classifier": settings.name,
        "seed": settings.seed,
        "version": package_version,
    }


def train_tag_pipeline(
    X: np.ndarray,
    y: np.ndarray,
    schema: FeatureSchema,
    settings: ClassifierSettings,
) -> TrainedPipeline:
    """Standardize (fit on this data only), then train the classifier."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != len(schema.names):
        raise DataError("matrix does not match the schema")
    params = standardize_fit(X)
    model = train_classifier(standardize_apply(params, X), y, settings)
    metadata = _base_metadata(settings)
    metadata.update(granularity=schema.granularity, groups=list(schema.groups))
    return TrainedPipeline(
        kind="tag",
        classifier_name=settings.name,
        classifier=model,
        standardizer=params,
        schema=schema,
        metadata=metadata,
    )


def train_baseline_pipeline(
    articles: Sequence[Article],
    y: np.ndarray,
    granularity: str,
    dictionary: CategoryDictionary,
    settings: ClassifierSettings,
    min_df: int = 2,
) -> TrainedPipeline:
    """Fit the TF-IDF vocabulary and idf on these articles only, then
    standardize the combined block and train the classifier."""
    featurizer = BaselineFeaturizer(
        granularity=granularity, dictionary=dictionary, min_df=min_df
    )
    X = featurizer.fit_transform(articles)
    params = standardize_fit(X)
    model = train_classifier(standardize_apply(params, X), y, settings)
    metadata = _base_metadata(settings)
    metadata.update(granularity=granularity, groups=["tfidf", "L", "R"])
    return TrainedPipeline(
        kind="baseline",
        classifier_name=settings.name,
        classifier=model,
        standardizer=params,
        featurizer=featurizer,
        metadata=metadata,
    )
