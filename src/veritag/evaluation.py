"""Evaluation protocols: k-fold CV, temporal drift, cross-domain, plus the
accuracy metric and per-year term-frequency reports."""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import resources as bundled, workers
from .config import (
    CLASSIFIER_NAMES, GRANULARITIES, ClassifierSettings, ExtractionResources, PipelineSpec,
    check_groups,
)
from .corpus import RawDocument
from .errors import ConfigError, DataError, InvariantError, write_csv
from .featureset import (
    FeatureSchema, build_schema, document_labels, extract_vectors,
)
from .linguistics import CategoryDictionary, tokenize
from .markup import extract_article, granularity_text, parse_html
from .models import TrainedPipeline, train_baseline_pipeline, train_tag_pipeline
from .models.baseline import BaselineText, _ngrams, document_texts

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
class EvalReport:
    fold_accuracies: tuple[float, ...]
    config: dict

    def __post_init__(self) -> None:
        if any(not 0.0 <= a <= 1.0 for a in self.fold_accuracies):
            raise InvariantError("accuracy outside [0,1]")

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.fold_accuracies))


@dataclass(frozen=True)
class TemporalReport:
    years: tuple[int, ...]
    cells: dict[tuple[int, int], float]  # (train_year, test_year) -> accuracy
    config: dict

    @property
    def train_means(self) -> dict[int, float]:
        """Each train year's mean accuracy over its row, in test-year order."""
        rows: dict[int, list[float]] = {}
        for (train_year, _), acc in sorted(self.cells.items()):
            rows.setdefault(train_year, []).append(acc)
        return {year: float(np.mean(row)) for year, row in rows.items()}


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
        schema = build_schema(spec.granularity, spec.groups, self.dictionary, spec.pruning)
        columns = [self.columns[self.schema.index_of(n)] for n in schema.names]
        return dataclasses.replace(
            self, spec=spec, schema=schema, columns=np.array(columns, dtype=np.intp)
        )

    def problem(self) -> object:
        """A key for the data the folds read: fitters of one corpus and
        classifier with equal keys give the same cv. The baseline's texts
        are prepared once per granularity; a tag view is its column values."""
        if self.spec.kind == "baseline":
            return self.spec.granularity
        view = self.X[:, self.columns]
        return view.shape, view.tobytes()

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

    def score(
        self, train_idx: np.ndarray, test_idx: np.ndarray, settings: ClassifierSettings
    ) -> float:
        return self.evaluate(self.fit(train_idx, settings), test_idx)


def _prepare(
    docs: Sequence[RawDocument],
    specs: Sequence[PipelineSpec],
    resources: ExtractionResources,
    jobs: int | None,
) -> list[_Fitter]:
    """Extract the corpus once for specs of one kind, one per granularity:
    each page is parsed once and, page by page, yields its row or text for
    every spec, in one of up to ``jobs`` processes."""
    if not docs:
        raise DataError("cannot evaluate an empty corpus")
    y = document_labels(docs)
    dictionary = resources.dictionary
    if specs[0].kind == "baseline":
        assert dictionary is not None
        texts = document_texts(docs, [spec.granularity for spec in specs], dictionary, jobs=jobs)
        return [_Fitter(spec, y, dictionary, texts=t) for spec, t in zip(specs, texts)]
    schemas = [
        build_schema(spec.granularity, spec.groups, dictionary, spec.pruning) for spec in specs
    ]
    rows = workers.fork_map(
        lambda doc: [
            v.values for v in extract_vectors(
                doc, schemas, dictionary, resources.tagger, resources.ad_domains
            )
        ],
        docs,
        jobs,
    )
    return [
        _Fitter(spec, y, dictionary, schema, np.stack([r[j] for r in rows]),
                np.arange(len(schema.names)))
        for j, (spec, schema) in enumerate(zip(specs, schemas))
    ]


def _cv(fitters: Sequence[_Fitter], k: int, seed: int, jobs: int | None) -> list[EvalReport]:
    """One k-fold cv per fitter of one corpus; every fold of every fitter
    is one item of one ``fork_map``."""
    y = fitters[0].y
    if np.unique(y).size < 2:
        raise DataError("corpus has a single class")
    folds = stratified_folds(y, k, seed)
    splits = [(np.flatnonzero(folds != f), np.flatnonzero(folds == f)) for f in range(k)]
    accuracies = workers.fork_map(
        lambda task: task[0].score(task[1], task[2], task[0].spec.classifier),
        [(fitter, train, test) for fitter in fitters for train, test in splits],
        jobs,
    )
    return [
        EvalReport(
            fold_accuracies=tuple(accuracies[i * k : (i + 1) * k]),
            config={"k": k, "seed": seed, **fitter.spec.echo()},
        )
        for i, fitter in enumerate(fitters)
    ]


def kfold_cv(
    docs: Sequence[RawDocument],
    spec: PipelineSpec,
    resources: ExtractionResources,
    k: int,
    seed: int,
    *,
    jobs: int | None = None,
) -> EvalReport:
    """Stratified k-fold cross-validation. Standardizer and (for the
    baseline) the TF-IDF vocabulary are fit inside each fold on its
    training part only. The pages are extracted and the folds fit by up to
    ``jobs`` processes (default: the usable CPUs); the report does not
    depend on ``jobs``."""
    return _cv(_prepare(docs, [spec], resources, jobs), k, seed, jobs)[0]


def temporal_eval(
    docs: Sequence[RawDocument],
    spec: PipelineSpec,
    resources: ExtractionResources,
    *,
    jobs: int | None = None,
) -> TemporalReport:
    """Train on each year alone; test on every other year separately.
    Years whose training data holds a single class are skipped with a
    warning and leave their row absent. The pages are extracted and the
    train years fit by up to ``jobs`` processes (default: the usable
    CPUs)."""
    years = tuple(sorted({d.year for d in docs}))
    if len(years) < 2:
        raise DataError("temporal evaluation needs at least 2 distinct years")
    (fitter,) = _prepare(docs, [spec], resources, jobs)
    doc_years = np.array([d.year for d in docs])
    year_idx = {year: np.flatnonzero(doc_years == year) for year in years}
    train_years = []
    for train_year in years:
        train_idx = year_idx[train_year]
        if np.unique(fitter.y[train_idx]).size < 2 or train_idx.size < 2:
            log.warning("year %s has a single class; temporal row skipped", train_year)
            continue
        train_years.append(train_year)

    def row(train_year: int) -> list[float]:
        pipeline = fitter.fit(year_idx[train_year], spec.classifier)
        return [fitter.evaluate(pipeline, year_idx[year]) for year in years if year != train_year]

    cells: dict[tuple[int, int], float] = {}
    for train_year, accuracies in zip(train_years, workers.fork_map(row, train_years, jobs)):
        test_years = [year for year in years if year != train_year]
        cells.update(zip(((train_year, year) for year in test_years), accuracies))
    return TemporalReport(years=years, cells=cells, config=spec.echo())


def cross_domain_eval(
    train_docs: Sequence[RawDocument],
    test_docs: Sequence[RawDocument],
    spec: PipelineSpec,
    resources: ExtractionResources,
    classifiers: Sequence[str] = CLASSIFIER_NAMES,
    *,
    jobs: int | None = None,
) -> dict[str, float]:
    """Fit on the whole training corpus, score on the whole test corpus,
    once per classifier; both corpora are extracted once. The pages are
    extracted and the classifiers fit by up to ``jobs`` processes (default:
    the usable CPUs)."""
    for corpus, docs in (("training", train_docs), ("test", test_docs)):
        if not docs:
            raise DataError(f"cannot evaluate across domains: the {corpus} corpus has no pages")
    (fitter,) = _prepare([*train_docs, *test_docs], [spec], resources, jobs)
    train_idx = np.arange(len(train_docs))
    test_idx = np.arange(len(train_docs), fitter.y.size)
    accuracies = workers.fork_map(
        lambda name: fitter.score(
            train_idx, test_idx, dataclasses.replace(spec.classifier, name=name)
        ),
        classifiers,
        jobs,
    )
    return dict(zip(classifiers, accuracies))


def feature_grid_eval(
    docs: Sequence[RawDocument],
    spec: PipelineSpec,
    resources: ExtractionResources,
    group_sets: Sequence[Sequence[str]],
    k: int,
    seed: int,
    *,
    jobs: int | None = None,
) -> list[EvalReport]:
    """kfold_cv per (feature groups, granularity) cell. Groups share no
    inputs, so one page-major pass parses each page once and extracts one
    wide row per granularity with every requested group, and each cell
    reads its schema's columns of that. Cells that pose the same problem
    (the W group at every granularity; the baseline, which ignores the
    groups, per granularity) are cross-validated once, and each echoes its
    own config. The pages are extracted and the folds of every distinct
    problem fit by up to ``jobs`` processes (default: the usable CPUs)."""
    if not group_sets:
        return []
    for groups in group_sets:
        check_groups(groups, "a grid cell")
    union = tuple(dict.fromkeys(g for groups in group_sets for g in groups))
    wide_specs = [
        dataclasses.replace(spec, groups=union, pruning="none", granularity=granularity)
        for granularity in GRANULARITIES
    ]
    wide = dict(zip(GRANULARITIES, _prepare(docs, wide_specs, resources, jobs)))
    problems: dict[object, _Fitter] = {}
    cells = []
    for groups in group_sets:
        for granularity in GRANULARITIES:
            cell = dataclasses.replace(spec, groups=tuple(groups), granularity=granularity)
            fitter = wide[granularity].view(cell)
            key = fitter.problem()
            problems.setdefault(key, fitter)
            cells.append((cell, key))
    done = dict(zip(problems, _cv(list(problems.values()), k, seed, jobs)))
    return [
        dataclasses.replace(done[key], config={**done[key].config, **cell.echo()})
        for cell, key in cells
    ]


def term_frequency_report(docs: Sequence[RawDocument], n_top: int) -> TermFrequencyReport:
    """Top lowercased unigrams+bigrams per year; grams containing a
    bundled stopword are dropped; ties break lexicographically."""
    stop = bundled.stopwords()
    counts: dict[int, dict[str, int]] = {}
    for doc in docs:
        article = extract_article(parse_html(doc.html))
        text = granularity_text(article, "HC")
        tokens = [t.lower() for t in tokenize(text).tokens]
        year_counts = counts.setdefault(doc.year, {})
        for gram in _ngrams(tokens):  # no token holds a space
            if not any(part in stop for part in gram.split(" ")):
                year_counts[gram] = year_counts.get(gram, 0) + 1
    per_year = {
        year: sorted(year_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n_top]
        for year, year_counts in counts.items()
    }
    return TermFrequencyReport(per_year=per_year)


def write_cv_report_csv(path: str | Path, report: EvalReport) -> None:
    rows = [*enumerate(report.fold_accuracies, start=1), ("mean", report.mean_accuracy)]
    write_csv(path, ["fold", "accuracy"], rows, report.config)


def write_temporal_report_csv(path: str | Path, report: TemporalReport) -> None:
    rows = [(*cell, acc) for cell, acc in sorted(report.cells.items())]
    rows += [(year, "mean", mean) for year, mean in sorted(report.train_means.items())]
    write_csv(path, ["train_year", "test_year", "accuracy"], rows, report.config)


def write_cross_domain_csv(
    path: str | Path, results: Mapping[str, float], config: Mapping
) -> None:
    write_csv(path, ["classifier", "accuracy"], results.items(), config)


def write_grid_csv(path: str | Path, reports: Sequence[EvalReport]) -> None:
    """One row per grid cell. The echoed config describes the shared run
    settings; per-cell groups/granularity live in the row itself."""
    shared = {
        k: v
        for k, v in (reports[0].config.items() if reports else ())
        if k not in ("groups", "granularity")
    }
    k = max((len(r.fold_accuracies) for r in reports), default=0)
    header = ["groups", "granularity", *(f"fold_{i+1}" for i in range(k)), "mean"]
    rows = (
        ["-".join(r.config["groups"]), r.config["granularity"], *r.fold_accuracies,
         r.mean_accuracy]
        for r in reports
    )
    write_csv(path, header, rows, shared)


def write_term_report_csv(
    path: str | Path | None, report: TermFrequencyReport, config: Mapping | None = None
) -> None:
    """The top terms of each year; ``config``, when given, is echoed. A
    path of None or ``-`` is stdout."""
    rows = (
        [year, rank, term, count]
        for year in sorted(report.per_year)
        for rank, (term, count) in enumerate(report.per_year[year], start=1)
    )
    write_csv(path, ["year", "rank", "term", "count"], rows, config)
