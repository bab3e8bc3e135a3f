"""Evaluation protocols: k-fold CV, temporal drift, cross-domain, plus the
accuracy metric and per-year term-frequency reports."""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import LABEL_TO_CLASS, RawDocument
from .errors import ConfigError, DataError, InvariantError
from .featureset import (
    GRANULARITIES,
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


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_map(fn: Callable, items: Sequence, jobs: int | None) -> list:
    """``[fn(item) for item in items]``, with the items dealt out to forked
    processes.

    At most ``min(jobs, usable CPUs, len(items))`` processes run, the caller
    included; ``jobs=None`` means the usable CPUs. Child ``s`` takes items
    ``s, s + n, s + 2n, ...`` of the ``n`` shares, reads them from the memory
    it inherited, and pickles back one ``(index, (ok, value))`` per item: the
    result, or the exception it raised. The caller runs share 0 itself, and
    any share it cannot fork. Each share stops at its first failure, and the
    first failure in item order is raised, as a serial loop would raise it;
    a child that ends before reporting its share fails its next item with an
    ``InvariantError``. No child outlives the call. Without ``os.fork`` the
    loop runs serially."""
    if jobs is not None and jobs < 1:
        raise ConfigError("jobs must be >= 1")
    cpus = _usable_cpus()
    n = min(jobs or cpus, cpus, len(items))
    if n <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    results: list = [None] * len(items)  # None: not run

    def run_share(indices: Sequence[int], send: Callable) -> None:
        for i in indices:
            try:
                result = (True, fn(items[i]))
            except Exception as exc:
                result = (False, exc)
            send(i, result)
            if not result[0]:
                return

    mine = list(range(0, len(items), n))
    children: dict[int, tuple] = {}  # pid -> (pipe from the child, its share)
    try:
        _flush_stdio()  # else a child would write the caller's buffered output again
        for s in range(1, n):
            share = range(s, len(items), n)
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory: the caller takes the share
                os.close(read)
                os.close(write)
                mine.extend(share)
                continue
            if pid == 0:  # the child leaves only through os._exit
                code = 1
                try:
                    os.close(read)
                    with os.fdopen(write, "wb") as pipe:
                        run_share(share, lambda i, result: _send(pipe, i, result))
                    _flush_stdio()
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children[pid] = (os.fdopen(read, "rb"), share)
        run_share(sorted(mine), results.__setitem__)
        for pid, (pipe, share) in list(children.items()):
            while True:
                try:
                    i, result = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # the end, or a child cut short
                    break
                results[i] = result
            pipe.close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            for i in share:
                if results[i] is None:
                    results[i] = (False, InvariantError(
                        f"evaluation worker exited with status {status} "
                        f"before reporting item {i}"
                    ))
                if not results[i][0]:
                    break
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped already
                pass
    for ok, value in results:
        if not ok:
            raise value
    return [value for _, value in results]


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _send(pipe, i: int, result: tuple) -> None:
    """Write one pickled ``(i, result)``; an exception that cannot make the
    round trip goes as an ``InvariantError`` naming it."""
    try:
        data = pickle.dumps((i, result))
        if not result[0]:
            pickle.loads(data)
    except Exception as exc:
        error = InvariantError(f"{type(result[1]).__name__}: {result[1]} ({exc})")
        data = pickle.dumps((i, (False, error)))
    pipe.write(data)
    pipe.flush()


def _prepare(
    docs: Sequence[RawDocument], specs: Sequence[PipelineSpec], resources: ExtractionResources
) -> list[_Fitter]:
    """Extract the corpus once for specs of one kind, one per granularity:
    each page is parsed once and, page by page, yields its row or text for
    every spec."""
    if not docs:
        raise DataError("cannot evaluate an empty corpus")
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


def _cv(fitters: Sequence[_Fitter], k: int, seed: int, jobs: int | None) -> list[EvalReport]:
    """One k-fold cv per fitter of one corpus; every fold of every fitter
    is one task of one ``_fork_map``."""
    y = fitters[0].y
    if np.unique(y).size < 2:
        raise DataError("corpus has a single class")
    folds = stratified_folds(y, k, seed)
    splits = [(np.flatnonzero(folds != f), np.flatnonzero(folds == f)) for f in range(k)]
    accuracies = _fork_map(
        lambda task: task[0].score(task[1], task[2], task[0].spec.classifier),
        [(fitter, train, test) for fitter in fitters for train, test in splits],
        jobs,
    )
    reports = []
    for i, fitter in enumerate(fitters):
        fold_accuracies = accuracies[i * k : (i + 1) * k]
        reports.append(EvalReport(
            protocol="cv",
            fold_accuracies=tuple(fold_accuracies),
            mean_accuracy=float(np.mean(fold_accuracies)),
            config={"k": k, "seed": seed, **fitter.spec.echo()},
        ))
    return reports


def kfold_cv(
    docs: Sequence[RawDocument],
    spec: PipelineSpec,
    resources: ExtractionResources,
    k: int = 5,
    seed: int = 0,
    *,
    jobs: int | None = None,
) -> EvalReport:
    """Stratified k-fold cross-validation. Standardizer and (for the
    baseline) the TF-IDF vocabulary are fit inside each fold on its
    training part only. The folds are fit by up to ``jobs`` processes
    (default: the usable CPUs); the report does not depend on ``jobs``."""
    return _cv(_prepare(docs, [spec], resources), k, seed, jobs)[0]


def temporal_eval(
    docs: Sequence[RawDocument],
    spec: PipelineSpec,
    resources: ExtractionResources,
    *,
    jobs: int | None = None,
) -> TemporalReport:
    """Train on each year alone; test on every other year separately.
    Years whose training data holds a single class are skipped with a
    warning and leave their row absent. The train years are fit by up to
    ``jobs`` processes (default: the usable CPUs)."""
    years = tuple(sorted({d.year for d in docs}))
    if len(years) < 2:
        raise DataError("temporal evaluation needs at least 2 distinct years")
    (fitter,) = _prepare(docs, [spec], resources)
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
    train_means: dict[int, float] = {}
    for train_year, accuracies in zip(train_years, _fork_map(row, train_years, jobs)):
        test_years = [year for year in years if year != train_year]
        cells.update(zip(((train_year, year) for year in test_years), accuracies))
        train_means[train_year] = float(np.mean(accuracies))
    return TemporalReport(
        years=years, cells=cells, train_means=train_means, config=spec.echo()
    )


def cross_domain_eval(
    train_docs: Sequence[RawDocument],
    test_docs: Sequence[RawDocument],
    spec: PipelineSpec,
    resources: ExtractionResources,
    classifiers: Sequence[str] = ("svm", "knn", "rf"),
    *,
    jobs: int | None = None,
) -> dict[str, float]:
    """Fit on the whole training corpus, score on the whole test corpus,
    once per classifier; both corpora are extracted once. The classifiers
    are fit by up to ``jobs`` processes (default: the usable CPUs)."""
    (fitter,) = _prepare([*train_docs, *test_docs], [spec], resources)
    train_idx = np.arange(len(train_docs))
    test_idx = np.arange(len(train_docs), fitter.y.size)
    accuracies = _fork_map(
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
    k: int = 5,
    seed: int = 0,
    *,
    jobs: int | None = None,
) -> list[EvalReport]:
    """kfold_cv per (feature groups, granularity) cell. Groups share no
    inputs, so one page-major pass parses each page once and extracts one
    wide row per granularity with every requested group, and each cell
    reads its schema's columns of that. Cells that pose the same problem
    (the W group at every granularity; the baseline, which ignores the
    groups, per granularity) are cross-validated once, and each echoes its
    own config. The folds of every distinct problem are fit by up to
    ``jobs`` processes (default: the usable CPUs)."""
    if not group_sets:
        return []
    union = tuple(dict.fromkeys(g for groups in group_sets for g in groups))
    wide_specs = [
        dataclasses.replace(spec, groups=union, pruning="none", granularity=granularity)
        for granularity in GRANULARITIES
    ]
    wide = dict(zip(GRANULARITIES, _prepare(docs, wide_specs, resources)))
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


def term_frequency_report(
    docs: Sequence[RawDocument],
    n_top: int,
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
        for size in (1, 2):
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
