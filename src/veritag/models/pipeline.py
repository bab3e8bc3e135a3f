"""Trained pipeline: standardizer + classifier (+ schema or featurizer).

Two kinds: "tag" pipelines classify schema-aligned feature vectors; the
"baseline" kind carries its own TF-IDF featurizer and works from the texts
that ``baseline.document_texts`` prepares from pages.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import __version__ as package_version
from .. import workers
from ..config import CLASSIFIER_NAMES, ClassifierSettings  # noqa: F401  (re-exported by models)
from ..corpus import RawDocument
from ..errors import ConfigError, DataError
from ..featureset import (
    FeatureSchema,
    StandardizerParams,
    extract_document,
    feature_rows,
    standardize_apply,
    standardize_fit,
)
from ..linguistics import CategoryDictionary, RuleTagger
from .baseline import BaselineFeaturizer, BaselineText, document_texts
from .forest import RandomForestModel, rf_predict, rf_train
from .neighbors import KnnModel, knn_predict, knn_train
from .svm import LinearSvmModel, check_binary, svm_predict, svm_train


def train_classifier(
    X: np.ndarray, y: np.ndarray, settings: ClassifierSettings, *, jobs: int | None = None
):
    """The settings' classifier on X; a forest grows its trees in up to
    ``jobs`` processes (default: the usable CPUs). Labels are 0 and 1, the
    classes a model file holds, whichever the classifier."""
    check_binary(y)
    if settings.name == "svm":
        return svm_train(X, y, C=settings.c)
    if settings.name == "knn":
        return knn_train(X, y, k=settings.k)
    return rf_train(X, y, n_trees=settings.trees, seed=settings.seed, jobs=jobs)


def _hash_json(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


@dataclass
class TrainedPipeline:
    classifier_name: str
    classifier: object
    standardizer: StandardizerParams
    schema: FeatureSchema | None = None
    featurizer: BaselineFeaturizer | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.schema is None) == (self.featurizer is None):
            raise ConfigError("a pipeline needs exactly one of a schema and a featurizer")

    @property
    def kind(self) -> str:
        return "tag" if self.schema is not None else "baseline"

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
        feature space (raw, unstandardized values): one classifier call."""
        Z = standardize_apply(self.standardizer, feature_rows(X, self.standardizer.mean.size))
        if isinstance(self.classifier, LinearSvmModel):
            return svm_predict(self.classifier, Z)
        if isinstance(self.classifier, KnnModel):
            return knn_predict(self.classifier, Z)
        if isinstance(self.classifier, RandomForestModel):
            return rf_predict(self.classifier, Z)
        raise ConfigError(f"unknown model type {type(self.classifier).__name__}")

    def predict_documents(
        self,
        docs: Sequence[RawDocument],
        dictionary: CategoryDictionary | None = None,
        tagger: RuleTagger | None = None,
        ad_domains: frozenset[str] | None = None,
        *,
        jobs: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(classes, scores) of the pages, each extracted in one of up to
        ``jobs`` processes (default: the usable CPUs)."""
        if not docs:
            return self.predict_matrix(np.empty((0, self.standardizer.mean.size)))
        if self.kind == "tag":
            assert self.schema is not None
            X = np.stack(workers.fork_map(
                lambda doc: extract_document(
                    doc, self.schema, dictionary, tagger, ad_domains
                ).values,
                docs,
                jobs,
            ))
        else:
            featurizer = self.featurizer
            assert featurizer is not None
            (texts,) = document_texts(
                docs, [featurizer.granularity], featurizer.dictionary, jobs=jobs
            )
            X = featurizer.transform_many(texts)
        return self.predict_matrix(X)


def _train(
    X: np.ndarray, y: np.ndarray, settings: ClassifierSettings,
    granularity: str, groups: Sequence[str], jobs: int | None, **parts,
) -> TrainedPipeline:
    """Standardize (fit on this data only), then train the classifier; a
    forest grows its trees in up to ``jobs`` processes. ``parts`` is the
    pipeline's schema or featurizer."""
    params = standardize_fit(X)
    return TrainedPipeline(
        classifier_name=settings.name,
        classifier=train_classifier(standardize_apply(params, X), y, settings, jobs=jobs),
        standardizer=params,
        metadata={
            "classifier": settings.name,
            "seed": settings.seed,
            "version": package_version,
            "granularity": granularity,
            "groups": list(groups),
        },
        **parts,
    )


def train_tag_pipeline(
    X: np.ndarray,
    y: np.ndarray,
    schema: FeatureSchema,
    settings: ClassifierSettings,
    *,
    jobs: int | None = None,
) -> TrainedPipeline:
    """Standardize (fit on this data only), then train the classifier; a
    forest grows its trees in up to ``jobs`` processes."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != len(schema.names):
        raise DataError("matrix does not match the schema")
    return _train(X, y, settings, schema.granularity, schema.groups, jobs, schema=schema)


def train_baseline_pipeline(
    texts: Sequence[BaselineText],
    y: np.ndarray,
    granularity: str,
    dictionary: CategoryDictionary,
    settings: ClassifierSettings,
    min_df: int,
    *,
    jobs: int | None = None,
) -> TrainedPipeline:
    """Fit the TF-IDF vocabulary and idf on these texts only, then
    standardize the combined block and train the classifier; a forest grows
    its trees in up to ``jobs`` processes."""
    featurizer = BaselineFeaturizer.fit(texts, granularity, dictionary, min_df)
    X = featurizer.transform_many(texts)
    return _train(X, y, settings, granularity, ("tfidf", "L", "R"), jobs, featurizer=featurizer)
