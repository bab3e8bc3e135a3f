"""Evaluation protocols: k-fold CV, temporal drift, cross-domain, plus the
accuracy metric and per-year term-frequency reports."""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import LABEL_TO_CLASS, RawDocument
from .errors import ConfigError, DataError, InvariantError
from .featureset import (
    FeatureSchema,
    apply_paper_pruning,
    build_schema,
    extract_vectors,
    granularity_text,
)
from .linguistics import CategoryDictionary, Tagger, tokenize
from .markup import extract_article, parse_html
from .models import ClassifierSettings, TrainedPipeline, train_baseline_pipeline, train_tag_pipeline
from .models.baseline import BaselineText, baseline_texts
from .resources import stopwords as _default_stopwords

log = logging.getLogger("veritag")


def accuracy(predictions: Sequence[int], labels: Sequence[int]) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.size == 0:
        raise DataError("cannot score an empty prediction set")
    if predictions.shape != labels.shape:
        raise DataError("predictions and labels differ in length")
    return float((predictions == labels).sum() / labels.size)


@dataclass(frozen=True)
class ExtractionResources:
    """Everything extraction needs besides the page itself."""

    dictionary: CategoryDictionary | None = None
    tagger: Tagger | None = None
    ad_domains: frozenset[str] | None = None


@dataclass(frozen=True)
class PipelineSpec:
    """What to train: feature configuration plus the classifier."""

    kind: str = "tag"  # "tag" | "baseline"
    granularity: str = "HC"
    groups: tuple[str, ...] = ("N", "L", "R", "W")
    pruning: str = "none"  # "none" | "paper"
    classifier: ClassifierSettings = field(default_factory=ClassifierSettings)
    min_df: int = 2  # baseline TF-IDF vocabulary floor

    def __post_init__(self) -> None:
        if self.kind not in ("tag", "baseline"):
            raise ConfigError(f"unknown pipeline kind {self.kind!r}")
        if self.pruning not in ("none", "paper"):
            raise ConfigError(f"unknown pruning mode {self.pruning!r}")

    def echo(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class EvalReport:
    protocol: str
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    config: dict

    def __post_init__(self) -> None:
        if any(not 0.0 <= a <= 1.0 for a in self.fold_accuracies):
            raise InvariantError("accuracy outside [0,1]")
        if abs(self.mean_accuracy - float(np.mean(self.fold_accuracies))) > 1e-12:
            raise InvariantError("mean is not the arithmetic mean of the folds")


@dataclass(frozen=True)
class TemporalReport:
    years: tuple[int, ...]
    cells: dict[tuple[int, int], float]  # (train_year, test_year) -> accuracy
    train_means: dict[int, float]
    config: dict


@dataclass(frozen=True)
class TermFrequencyReport:
    per_year: dict[int, list[tuple[str, int]]]


def stratified_folds(y: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Fold id per row; each class is shuffled with the seed and dealt
    round-robin, so per-fold class proportions differ by at most one doc."""
    y = np.asarray(y)
    n = y.size
    if k < 2:
        raise ConfigError("need at least 2 folds")
    if k > n:
        raise DataError(f"cannot make {k} folds from {n} documents")
    rng = np.random.default_rng(seed)
    folds = np.empty(n, dtype=np.int64)
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        rng.shuffle(idx)
        folds[idx] = np.arange(idx.size) % k
    return folds


def _tag_schema(spec: PipelineSpec, dictionary: CategoryDictionary | None) -> FeatureSchema:
    schema = build_schema(spec.granularity, spec.groups, dictionary)
    return apply_paper_pruning(schema) if spec.pruning == "paper" else schema


@dataclass(frozen=True)
class _Fitter:
    """Trains and tests on index subsets of a corpus extracted once. A tag
    spec reads the ``columns`` of ``X`` that hold ``schema``'s features;
    the baseline reads the pages' texts at the spec's granularity."""

    spec: PipelineSpec
    y: np.ndarray
    dictionary: CategoryDictionary | None
    schema: FeatureSchema | None = None
    X: np.ndarray | None = None
    columns: np.ndarray | None = None
    texts: Sequence[BaselineText] | None = None

    def view(self, spec: PipelineSpec) -> _Fitter:
        """The same corpus under another spec whose schema is a column
        selection of this one's (same granularity, fewer groups or pruned)."""
        if spec.kind == "baseline":
            return dataclasses.replace(self, spec=spec)
        schema = _tag_schema(spec, self.dictionary)
        columns = [self.columns[self.schema.index_of(n)] for n in schema.names]
        return dataclasses.replace(
            self, spec=spec, schema=schema, columns=np.array(columns, dtype=np.intp)
        )

    def fit(self, train_idx: np.ndarray, settings: ClassifierSettings) -> TrainedPipeline:
        y_train = self.y[train_idx]
        if np.unique(y_train).size < 2:
            raise DataError("training subset has a single class")
        if self.spec.kind == "tag":
            return train_tag_pipeline(
                self.X[np.ix_(train_idx, self.columns)], y_train, self.schema, settings
            )
        assert self.dictionary is not None
        return train_baseline_pipeline(
            [self.texts[i] for i in train_idx],
            y_train,
            self.spec.granularity,
            self.dictionary,
            settings,
            min_df=self.spec.min_df,
        )

    def evaluate(self, pipeline: TrainedPipeline, test_idx: np.ndarray) -> float:
        if self.spec.kind == "tag":
            X = self.X[np.ix_(test_idx, self.columns)]
        else:
            assert pipeline.featurizer is not None
            X = pipeline.featurizer.transform_many([self.texts[i] for i in test_idx])
        predictions, _ = pipeline.predict_matrix(X)
        return accuracy(predictions, self.y[test_idx])


def _prepare(
    docs: Sequence[RawDocument], specs: Sequence[PipelineSpec], resources: ExtractionResources
) -> list[_Fitter]:
    """Extract the corpus once for specs of one kind, one per granularity:
    each page is parsed once and, page by page, yields its row or text for
    every spec."""
    y = np.array([LABEL_TO_CLASS[d.label] for d in docs], dtype=np.int64)
    dictionary = resources.dictionary
    if specs[0].kind == "baseline":
        assert dictionary is not None
        articles = [extract_article(parse_html(d.html)) for d in docs]
        return [
            _Fitter(spec, y, dictionary, texts=baseline_texts(articles, spec.granularity, dictionary))
            for spec in specs
        ]
    schemas = [_tag_schema(spec, dictionary) for spec in specs]
    rows = [
        extract_vectors(doc, schemas, dictionary, resources.tagger, resources.ad_domains)
        for doc in docs
    ]
    return [
        _Fitter(spec, y, dictionary, schema, np.stack([r[j].values for r in rows]),
                np.arange(len(schema.names)))
        for j, (spec, schema) in enumerate(zip(specs, schemas))
    ]


def _cv(fitter: _Fitter, k: int, seed: int) -> EvalReport:
    if np.unique(fitter.y).size < 2:
        raise DataError("corpus has a single class")
    folds = stratified_folds(fitter.y, k, seed)
    accuracies = []
    for f in range(k):
        pipeline = fitter.fit(np.flatnonzero(folds != f), fitter.spec.classifier)
        accuracies.append(fitter.evaluate(pipeline, np.flatnonzero(folds == f)))
    return EvalReport(
        protocol="cv",
        fold_accuracies=tuple(accuracies),
        mean_accuracy=float(np.mean(accuracies)),
        config={"k": k, "seed": seed, **fitter.spec.echo()},
    )


def kfold_cv(
    docs: Sequence[RawDocument],
    spec: PipelineSpec,
    resources: ExtractionResources,
    k: int = 5,
    seed: int = 0,
) -> EvalReport:
    """Stratified k-fold cross-validation. Standardizer and (for the
    baseline) the TF-IDF vocabulary are fit inside each fold on its
    training part only."""
    return _cv(_prepare(docs, [spec], resources)[0], k, seed)


def temporal_eval(
    docs: Sequence[RawDocument],
    spec: PipelineSpec,
    resources: ExtractionResources,
) -> TemporalReport:
    """Train on each year alone; test on every other year separately.
    Years whose training data holds a single class are skipped with a
    warning and leave their row absent."""
    years = tuple(sorted({d.year for d in docs}))
    if len(years) < 2:
        raise DataError("temporal evaluation needs at least 2 distinct years")
    (fitter,) = _prepare(docs, [spec], resources)
    doc_years = np.array([d.year for d in docs])
    cells: dict[tuple[int, int], float] = {}
    train_means: dict[int, float] = {}
    for train_year in years:
        train_idx = np.flatnonzero(doc_years == train_year)
        if np.unique(fitter.y[train_idx]).size < 2 or train_idx.size < 2:
            log.warning("year %s has a single class; temporal row skipped", train_year)
            continue
        pipeline = fitter.fit(train_idx, spec.classifier)
        row = []
        for test_year in years:
            if test_year == train_year:
                continue
            test_idx = np.flatnonzero(doc_years == test_year)
            acc = fitter.evaluate(pipeline, test_idx)
            cells[(train_year, test_year)] = acc
            row.append(acc)
        train_means[train_year] = float(np.mean(row))
    return TemporalReport(
        years=years, cells=cells, train_means=train_means, config=spec.echo()
    )


def cross_domain_eval(
    train_docs: Sequence[RawDocument],
    test_docs: Sequence[RawDocument],
    spec: PipelineSpec,
    resources: ExtractionResources,
    classifiers: Sequence[str] = ("svm", "knn", "rf"),
) -> dict[str, float]:
    """Fit on the whole training corpus, score on the whole test corpus,
    once per classifier; both corpora are extracted once."""
    (fitter,) = _prepare([*train_docs, *test_docs], [spec], resources)
    train_idx = np.arange(len(train_docs))
    test_idx = np.arange(len(train_docs), fitter.y.size)
    return {
        name: fitter.evaluate(
            fitter.fit(train_idx, dataclasses.replace(spec.classifier, name=name)), test_idx
        )
        for name in classifiers
    }


def feature_grid_eval(
    docs: Sequence[RawDocument],
    spec: PipelineSpec,
    resources: ExtractionResources,
    group_sets: Sequence[Sequence[str]],
    granularities: Sequence[str] = ("H", "C", "HC"),
    k: int = 5,
    seed: int = 0,
) -> list[EvalReport]:
    """kfold_cv per (feature groups, granularity) cell. Groups share no
    inputs, so one page-major pass parses each page once and extracts one
    wide row per granularity with every requested group, and each cell
    reads its schema's columns of that. The baseline ignores the groups,
    so it is cross-validated once per granularity and each of its cells
    echoes its own config."""
    if not group_sets or not granularities:
        return []
    union = tuple(dict.fromkeys(g for groups in group_sets for g in groups))
    distinct = tuple(dict.fromkeys(granularities))
    wide_specs = [
        dataclasses.replace(spec, groups=union, pruning="none", granularity=granularity)
        for granularity in distinct
    ]
    wide = dict(zip(distinct, _prepare(docs, wide_specs, resources)))
    baseline_cv: dict[str, EvalReport] = {}
    reports = []
    for groups in group_sets:
        for granularity in granularities:
            cell = dataclasses.replace(spec, groups=tuple(groups), granularity=granularity)
            if spec.kind == "baseline" and granularity in baseline_cv:
                done = baseline_cv[granularity]
                reports.append(dataclasses.replace(done, config={**done.config, **cell.echo()}))
                continue
            report = _cv(wide[granularity].view(cell), k, seed)
            if spec.kind == "baseline":
                baseline_cv[granularity] = report
            reports.append(report)
    return reports


def term_frequency_report(
    docs: Sequence[RawDocument],
    n_top: int,
    ngram_max: int = 2,
    stopword_list: frozenset[str] | None = None,
) -> TermFrequencyReport:
    """Top lowercased unigrams+bigrams per year; grams containing a
    stopword are dropped; ties break lexicographically."""
    stop = _default_stopwords() if stopword_list is None else stopword_list
    counts: dict[int, dict[str, int]] = {}
    for doc in docs:
        article = extract_article(parse_html(doc.html))
        text = granularity_text(article, "HC")
        tokens = [t.lower() for t in tokenize(text).tokens]
        year_counts = counts.setdefault(doc.year, {})
        for size in range(1, ngram_max + 1):
            for i in range(len(tokens) - size + 1):
                parts = tokens[i : i + size]
                if any(p in stop for p in parts):
                    continue
                gram = " ".join(parts)
                year_counts[gram] = year_counts.get(gram, 0) + 1
    per_year = {
        year: sorted(year_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n_top]
        for year, year_counts in counts.items()
    }
    return TermFrequencyReport(per_year=per_year)


def _config_comment(config: Mapping) -> str:
    return "# config: " + json.dumps(config, sort_keys=True)


def write_cv_report_csv(path: str | Path, report: EvalReport) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(_config_comment(report.config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["fold", "accuracy"])
        for i, acc in enumerate(report.fold_accuracies, start=1):
            writer.writerow([i, "%.9g" % acc])
        writer.writerow(["mean", "%.9g" % report.mean_accuracy])


def write_temporal_report_csv(path: str | Path, report: TemporalReport) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(_config_comment(report.config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["train_year", "test_year", "accuracy"])
        for (train_year, test_year), acc in sorted(report.cells.items()):
            writer.writerow([train_year, test_year, "%.9g" % acc])
        for train_year, mean in sorted(report.train_means.items()):
            writer.writerow([train_year, "mean", "%.9g" % mean])


def write_cross_domain_csv(
    path: str | Path, results: Mapping[str, float], config: Mapping
) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(_config_comment(config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["classifier", "accuracy"])
        for name, acc in results.items():
            writer.writerow([name, "%.9g" % acc])


def write_grid_csv(
    path: str | Path, reports: Sequence[EvalReport], config: Mapping | None = None
) -> None:
    """One row per grid cell. The echoed config describes the shared run
    settings; per-cell groups/granularity live in the row itself."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        if config is None and reports:
            config = {
                k: v
                for k, v in reports[0].config.items()
                if k not in ("groups", "granularity")
            }
        fh.write(_config_comment(config or {}) + "\n")
        writer = csv.writer(fh)
        k = max((len(r.fold_accuracies) for r in reports), default=0)
        writer.writerow(
            ["groups", "granularity", *(f"fold_{i+1}" for i in range(k)), "mean"]
        )
        for r in reports:
            writer.writerow(
                [
                    "-".join(r.config["groups"]),
                    r.config["granularity"],
                    *("%.9g" % a for a in r.fold_accuracies),
                    "%.9g" % r.mean_accuracy,
                ]
            )


def write_term_report_csv(
    path: str | Path, report: TermFrequencyReport, config: Mapping | None = None
) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(_config_comment(config or {}) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["year", "rank", "term", "count"])
        for year in sorted(report.per_year):
            for rank, (term, count) in enumerate(report.per_year[year], start=1):
                writer.writerow([year, rank, term, count])
