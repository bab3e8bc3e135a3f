#!/usr/bin/env python3
"""veritag benchmark: one workload per run, closed loop, seeded inputs.

    python3 perfbench/run.py --workload short-pages --seed 1 --seconds 20 --trace 0

A run generates the workload's corpus from ``--seed`` (see workloads.py),
then repeats a round while the next round still fits in ``--seconds``:
SETUP_PER_PASS set-up samples, each a fresh process, and one pipeline pass
(load, extract, train, predict, and for ``evaluate`` also select, cv,
temporal and grid, one step after another). Every artifact of every pass
is hashed; all passes must give the same digests. ``--trace 1`` runs two
untraced passes and one traced pass instead and reports per-layer self times
and counts (tracer.py).

Pipeline times are speed-normalised (speed.py). On a shared machine one
processor's speed swings by up to 70%, in phases that can outlast a whole
run, so even the fastest of a dozen passes can be slow. Every timed
interval (each page's extraction or prediction, each step) is therefore
paired with a fixed pure-Python calibration loop, timed right before and
right after it and every 50 ms during it, and is reported as its wall time
x NOMINAL_CAL_S / mean calibration time: the time it would take where the
loop takes NOMINAL_CAL_S. A page's wall and calibration times are summed
over the passes before the division; throughputs divide the pages by the
sum of those times, and percentiles are taken over pages. A step's time is
its median over the passes, and ``flow_s`` sums the steps. Set-up time is
the median wall time of the set-up samples, not normalised: it is mostly
imports and file reads and barely follows the calibration loop. The report
lines also print the raw wall times.

Report lines go to stdout first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The full report,
with digests and, when traced, every span, is written under
``.perfbench/out/``. ``--workload all`` runs every workload in its own
process. The program is imported from ``src/`` of this checkout; without
it the run fails before printing a result.
"""

from __future__ import annotations

import os

# Single-threaded numpy/BLAS; set before numpy is first imported.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (this directory is on sys.path when run as a script)
from speed import NOMINAL_CAL_S, Speedometer, normalised  # noqa: E402
from tracer import Tracer, install  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOADS = ("short-pages", "long-pages", "evaluate")
SETUP_SAMPLES = 11  # at least this many set-up samples per run
SETUP_PER_PASS = 2  # set-up samples taken before each pass
GRID_GROUP_SETS = "N;L;R;W;N,L,R,W"  # the CLI's default grid

# Metrics printed in the result line, by name and unit.
END_TO_END = {
    "setup_s": "s",
    "flow_s": "s",
    "extract_pages_per_s": "pages/s",
    "extract_ms_p50": "ms",
    "extract_ms_p95": "ms",
    "predict_pages_per_s": "pages/s",
    "peak_rss_mb": "MiB",
    "page_ok_ratio": "ratio",
}
# Also printed in the report lines: p99 has too few pages beyond it to be
# steady, and the fail ratio is 0 on most workloads.
REPORT_ONLY = {"extract_ms_p99": "ms", "page_fail_ratio": "ratio"}
_RULES = (
    "headline_og_title", "headline_title", "headline_h1", "no_headline_source",
    "content_article", "content_paragraphs", "content_stripped_body", "no_content_source",
)
PER_LAYER = {
    "corpus.load_s": "s",
    "corpus.pages": "count",
    "corpus.bytes": "bytes",
    "markup.parse_s": "s",
    "markup.parse_calls": "count",
    "markup.parse_per_page": "ratio",
    "markup.article_s": "s",
    "markup.features_s": "s",
    **{f"markup.rule.{rule}": "count" for rule in _RULES},
    "linguistics.text.tokenize_s": "s",
    "linguistics.text.tokenize_calls": "count",
    "linguistics.text.tokens": "count",
    "linguistics.text.sentences": "count",
    "linguistics.text.tokenize_per_page": "ratio",
    "linguistics.tagger.tag_s": "s",
    "linguistics.tagger.tokens": "count",
    "linguistics.dictionary.scores_s": "s",
    "linguistics.dictionary.tokens": "count",
    "linguistics.readability.features_s": "s",
    "featureset.extract_self_s": "s",
    "featureset.extract_calls": "count",
    "featureset.extract_per_page": "ratio",
    "featureset.extract_per_page.grid": "ratio",
    "featureset.csv_write_s": "s",
    "featureset.csv_read_s": "s",
    "featureset.standardize_s": "s",
    "selection.retained": "count",
    "models.svm.train_s": "s",
    "models.svm.train_calls": "count",
    "models.svm.train_rows": "count",
    "models.neighbors.predict_rows": "count",
    "models.forest.predict_rows": "count",
    "models.baseline.vocabulary": "count",
    "models.pipeline.predict_matrix_s": "s",
    "models.pipeline.predict_rows": "count",
    "models.persistence.save_s": "s",
    "models.persistence.load_s": "s",
    "models.persistence.model_bytes": "bytes",
    "bench.trace_overhead_s": "s",
}
# Layer times of layers only the evaluate workload calls. They read 0 on
# the page workloads, so they are reported but kept out of the result line.
EVALUATE_LAYER_TIMES = (
    "selection.entropy_s", "selection.mi_s", "selection.tree_s", "selection.l1_s",
    "models.neighbors.predict_s", "models.forest.train_s", "models.forest.predict_s",
    "models.baseline.fit_s", "models.baseline.transform_s", "evaluation.protocol_self_s",
)


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def _import_program():
    """Import veritag from this checkout's src/, never from elsewhere."""
    if not (SRC / "veritag" / "__init__.py").is_file():
        raise SetupError(f"no veritag package under {SRC}")
    sys.path.insert(0, str(SRC))
    import veritag

    if Path(veritag.__file__).resolve().parent != (SRC / "veritag").resolve():
        raise SetupError(f"imported veritag from {veritag.__file__}, not from {SRC}")
    return veritag


_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from veritag import RunConfig, load_manifest, load_run_resources
load_run_resources(RunConfig())
docs = list(load_manifest(sys.argv[2]).iter_documents())
print(time.perf_counter() - t0)
"""


def measure_setup(corpus: Path, count: int) -> list[float]:
    """Set-up wall time of ``count`` fresh processes: import, resources,
    manifest, pages."""
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(corpus)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(out.stdout.strip()))
    return samples


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclasses.dataclass
class PassResult:
    cal_s: float = 0.0  # mean calibration time
    # (wall time, calibration time) per step, per page in corpus order and
    # per predicted page
    step_s: dict = dataclasses.field(default_factory=dict)
    extract_s: list = dataclasses.field(default_factory=list)
    predict_s: list = dataclasses.field(default_factory=list)
    extract_pages: int = 0
    predict_pages: int = 0
    failed_pages: set = dataclasses.field(default_factory=set)
    errors: Counter = dataclasses.field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0
    digests: dict = dataclasses.field(default_factory=dict)
    problems: list = dataclasses.field(default_factory=list)


class Bench:
    """One workload's pipeline pass over a generated corpus."""

    def __init__(self, workload: str, corpus: Path, work: Path, hostile_prefix: str):
        from veritag import RunConfig, build_schema, load_run_resources, pipeline_spec

        self.workload = workload
        self.corpus = corpus
        self.work = work
        self.hostile_prefix = hostile_prefix
        self.cfg = RunConfig()
        self.resources = load_run_resources(self.cfg)
        self.schema = build_schema(self.cfg.granularity, self.cfg.groups, self.resources.dictionary)
        self.spec = {
            name: pipeline_spec(dataclasses.replace(self.cfg, classifier=name))
            for name in ("svm", "knn", "rf", "baseline-svm")
        }
        self.tracer = None
        self.meter: Speedometer | None = None  # set by run_pass

    def _step(self, result: PassResult, name: str, fn) -> None:
        """Run one step; a raising step is recorded and makes the run
        incorrect, and the pass goes on."""
        if self.tracer is not None:
            self.tracer.step = name
            self.tracer.open("step." + name)
        first = self.meter.mark()
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # keep the pass running; the failure is reported
            result.errors[f"step.{name}:{type(exc).__name__}"] += 1
            result.problems.append(f"step {name} raised {type(exc).__name__}: {exc}")
        finally:
            elapsed = time.perf_counter() - t0
            result.step_s[name] = self.meter.interval(first, self.meter.mark(), elapsed)
            if self.tracer is not None:
                self.tracer.close("bench.step")
                self.tracer.step = ""

    def _page_failed(self, result: PassResult, doc, exc: Exception) -> None:
        result.failed += 1
        result.failed_pages.add(doc.id)
        result.errors[type(exc).__name__] += 1
        if not doc.id.startswith(self.hostile_prefix):
            result.problems.append(f"page {doc.id} raised {type(exc).__name__}: {exc}")

    def run_pass(self) -> PassResult:
        import numpy as np
        from veritag import (
            CLASS_TO_LABEL, extract_document, feature_grid_eval, kfold_cv, load_manifest,
            load_pipeline, read_feature_csv, save_pipeline, select_features, temporal_eval,
            train_tag_pipeline, vectors_to_matrix, write_feature_csv, write_importance_report,
        )
        from veritag.evaluation import write_cv_report_csv, write_grid_csv, write_temporal_report_csv

        res = self.resources
        work = self.work
        result = PassResult()
        state: dict = {}

        def load():
            state["docs"] = list(load_manifest(self.corpus).iter_documents())

        def extract():
            vectors = []
            first = self.meter.mark()
            for doc in state["docs"]:
                result.attempted += 1
                t0 = time.perf_counter()
                try:
                    vectors.append(extract_document(doc, self.schema, res.dictionary, res.tagger, res.ad_domains))
                except Exception as exc:  # per-page failure accounting
                    self._page_failed(result, doc, exc)
                elapsed = time.perf_counter() - t0
                last = self.meter.mark()
                result.extract_s.append(self.meter.interval(first, last, elapsed))
                first = last
            result.extract_pages = len(state["docs"])
            write_feature_csv(work / "features.csv", self.schema, vectors)

        def read_features():
            vectors, _ = read_feature_csv(work / "features.csv", self.schema)
            X, y, ids = vectors_to_matrix(vectors)
            if not np.all(np.isfinite(X)):
                result.problems.append("non-finite feature values")
            return X, y, ids

        def train():
            X, y, ids = read_features()
            years = {d.id: d.year for d in state["docs"]}
            newest = max(years.values())
            rows = np.array([years[i] < newest for i in ids])
            pipeline = train_tag_pipeline(X[rows], y[rows], self.schema, self.spec["svm"].classifier)
            save_pipeline(pipeline, work / "model.json")

        def predict():
            pipeline = load_pipeline(work / "model.json")
            newest = max(d.year for d in state["docs"])
            rows = []
            first = self.meter.mark()
            for doc in (d for d in state["docs"] if d.year == newest):
                result.attempted += 1
                result.predict_pages += 1
                t0 = time.perf_counter()
                try:
                    classes, scores = pipeline.predict_documents([doc], res.dictionary, res.tagger, res.ad_domains)
                    if len(classes) != 1 or len(scores) != 1:
                        result.problems.append(f"page {doc.id} got {len(classes)} predictions")
                    rows.append([doc.id, CLASS_TO_LABEL[int(classes[0])], "%.9g" % scores[0]])
                except Exception as exc:  # per-page failure accounting
                    self._page_failed(result, doc, exc)
                    rows.append([doc.id, "error", type(exc).__name__])
                elapsed = time.perf_counter() - t0
                last = self.meter.mark()
                result.predict_s.append(self.meter.interval(first, last, elapsed))
                first = last
            with (work / "predictions.csv").open("w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["doc_id", "predicted_label", "score"])
                writer.writerows(rows)

        def select():
            X, y, _ = read_features()
            _, scores = select_features(X, y, self.schema, seed=self.cfg.seed)
            write_importance_report(work / "importance.csv", scores)

        def accuracies_ok(values) -> None:
            if not all(0.0 <= a <= 1.0 for a in values):
                result.problems.append("accuracy outside [0, 1]")

        def cv(name: str):
            def step():
                report = kfold_cv(state["docs"], self.spec[name], res, k=self.cfg.folds, seed=self.cfg.seed)
                accuracies_ok(report.fold_accuracies)
                write_cv_report_csv(work / f"cv_{name}.csv", report)
            return step

        def temporal(name: str, out: str):
            def step():
                report = temporal_eval(state["docs"], self.spec[name], res)
                accuracies_ok(report.cells.values())
                write_temporal_report_csv(work / out, report)
            return step

        def grid():
            group_sets = [tuple(part.split(",")) for part in GRID_GROUP_SETS.split(";")]
            reports = feature_grid_eval(
                state["docs"], self.spec["svm"], res, group_sets, k=self.cfg.folds, seed=self.cfg.seed
            )
            for report in reports:
                accuracies_ok(report.fold_accuracies)
            write_grid_csv(work / "grid.csv", reports)

        steps = [("load", load), ("extract", extract), ("train", train), ("predict", predict)]
        if self.workload == "evaluate":
            steps += [
                ("select", select),
                ("cv_svm", cv("svm")), ("cv_knn", cv("knn")), ("cv_rf", cv("rf")),
                ("temporal", temporal("svm", "temporal.csv")),
                ("temporal_baseline", temporal("baseline-svm", "temporal_baseline.csv")),
                ("grid", grid),
            ]
        self.meter = Speedometer(self.tracer)
        with self.meter:
            for name, fn in steps:
                self._step(result, name, fn)
        result.cal_s = statistics.fmean(self.meter.cals)
        for path in sorted(work.glob("*.*")):
            result.digests[path.name] = _sha256(path)
            path.unlink()
        return result


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def step_times(passes: list[PassResult]) -> dict[str, float]:
    """Each step's median normalised time over the passes."""
    return {name: statistics.median(normalised([p.step_s[name]]) for p in passes) for name in passes[0].step_s}


def flow_s(result: PassResult) -> float:
    """One pass's normalised time: the sum of its steps'."""
    return sum(normalised([sample]) for sample in result.step_s.values())


def wall_steps(passes: list[PassResult]) -> dict[str, float]:
    """Each step's median wall time over the passes."""
    return {name: statistics.median(p.step_s[name][0] for p in passes) for name in passes[0].step_s}


def end_to_end_metrics(passes: list[PassResult], setup: list[float]) -> dict[str, float]:
    steps = step_times(passes)
    page_ms = [1000.0 * normalised(samples) for samples in zip(*(p.extract_s for p in passes))]
    predict_ms = [1000.0 * normalised(samples) for samples in zip(*(p.predict_s for p in passes))]
    first = passes[0]
    return {
        "setup_s": statistics.median(setup),
        "flow_s": sum(steps.values()),
        "extract_pages_per_s": 1000.0 * len(page_ms) / sum(page_ms),
        "extract_ms_p50": statistics.median(page_ms),
        "extract_ms_p95": _percentile(page_ms, 95),
        "extract_ms_p99": _percentile(page_ms, 99),
        "predict_pages_per_s": 1000.0 * len(predict_ms) / sum(predict_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "page_ok_ratio": 1.0 - len(first.failed_pages) / first.extract_pages,
        "page_fail_ratio": len(first.failed_pages) / first.extract_pages,
    }


def per_layer_metrics(tracer, pages: int, overhead_s: float) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        out[name] = float(tracer.self_s.get(name, 0.0)) if unit == "s" else float(tracer.counts.get(name, 0))
    for name in EVALUATE_LAYER_TIMES:
        out[name] = float(tracer.self_s.get(name, 0.0))
    out["markup.parse_per_page"] = tracer.counts["markup.parse_calls"] / pages
    out["linguistics.text.tokenize_per_page"] = tracer.counts["linguistics.text.tokenize_calls"] / pages
    distinct = set().union(*tracer.extract_pages_by_step.values())
    out["featureset.extract_per_page"] = tracer.counts["featureset.extract_calls"] / max(1, len(distinct))
    for step, calls in sorted(tracer.extract_calls_by_step.items()):
        out[f"featureset.extract_per_page.{step}"] = calls / len(tracer.extract_pages_by_step[step])
    out.setdefault("featureset.extract_per_page.grid", 0.0)
    out["bench.trace_overhead_s"] = overhead_s
    return out


def measure(bench: Bench, seconds: float, tracer) -> tuple[list[float], list[PassResult], PassResult | None]:
    """Set-up samples and untraced passes while the next round of both fits
    in ``seconds``; with a tracer, two untraced passes and then one traced
    pass. SETUP_PER_PASS set-up samples go before each pass, so they span
    the run like the passes do, after one discarded warm-up sample."""
    measure_setup(bench.corpus, 1)
    setup: list[float] = []
    if tracer is None:
        passes: list[PassResult] = []
        t0 = time.perf_counter()
        round_s = 0.0
        while not passes or time.perf_counter() - t0 + round_s <= seconds:
            t_round = time.perf_counter()
            setup += measure_setup(bench.corpus, SETUP_PER_PASS)
            passes.append(bench.run_pass())
            round_s = time.perf_counter() - t_round
        setup += measure_setup(bench.corpus, max(0, SETUP_SAMPLES - len(setup)))
        return setup, passes, None
    setup += measure_setup(bench.corpus, SETUP_SAMPLES)
    passes = [bench.run_pass(), bench.run_pass()]  # the first one warms caches
    bench.tracer = tracer
    uninstall = install(tracer)
    try:
        return setup, passes, bench.run_pass()
    finally:
        uninstall()
        bench.tracer = None


def run_workload(args) -> int:
    _import_program()
    work = STATE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    corpus = work / "corpus"
    artifacts = work / "artifacts"
    try:
        artifacts.mkdir(parents=True)
        workloads.build_corpus(corpus, args.workload, args.seed, args.scale)
        corpus_digest = workloads.corpus_sha256(corpus)
        bench = Bench(args.workload, corpus, artifacts, workloads.HOSTILE_PREFIX)
        tracer = Tracer() if args.trace else None
        setup, passes, traced = measure(bench, args.seconds, tracer)
        all_passes = passes + ([traced] if traced else [])

        problems = [msg for p in all_passes for msg in p.problems]
        for p in all_passes[1:]:
            if p.digests != all_passes[0].digests:
                problems.append("artifact digests differ between passes")
                break
        if workloads.corpus_sha256(corpus) != corpus_digest:
            problems.append("the corpus changed during the run")

        e2e = end_to_end_metrics(passes, setup)
        if tracer is not None:
            pages = all_passes[0].extract_pages
            overhead = flow_s(traced) - flow_s(passes[-1])
            layers = per_layer_metrics(tracer, pages, overhead)
            reported = {n: {"value": layers[n], "unit": PER_LAYER[n]} for n in PER_LAYER}
        else:
            reported = {n: {"value": e2e[n], "unit": END_TO_END[n]} for n in END_TO_END}

        errors = Counter()
        for p in all_passes:
            errors.update(p.errors)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "scale": args.scale,
            "trace": args.trace,
            "blas_threads": BLAS_THREADS,
            "passes": len(passes),
            "corpus_sha256": corpus_digest,
            "artifact_sha256": all_passes[0].digests,
            "setup_samples_s": setup,
            "step_s": step_times(passes),
            "wall_step_s": wall_steps(passes),
            "calibration_ms": 1000.0 * statistics.median(p.cal_s for p in passes),
            "pages": passes[0].extract_pages,
            "errors": dict(sorted(errors.items())),
            "problems": problems,
            "end_to_end": e2e,
        }
        if tracer is not None:
            report["per_layer"] = layers
        _print_report(report)
        out_dir = STATE / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        if tracer is not None:
            (out_dir / f"{stem}-spans.json").write_text(
                json.dumps({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}) + "\n"
            )
        print(json.dumps({
            "correct": not problems,
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(p.failed for p in passes),
            "metrics": reported,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_report(report: dict) -> None:
    print(f"# perfbench workload={report['workload']} seed={report['seed']} scale={report['scale']} "
          f"trace={report['trace']} passes={report['passes']} blas_threads={report['blas_threads']}")
    print(f"corpus_sha256 {report['corpus_sha256']}")
    print(f"calibration_ms {report['calibration_ms']:.6g}  (median of the pass means; times below are scaled to {NOMINAL_CAL_S * 1000:g})")
    for name, digest in sorted(report["artifact_sha256"].items()):
        print(f"artifact_sha256 {name} {digest}")
    e2e = report["end_to_end"]
    for name, unit in {**END_TO_END, **REPORT_ONLY}.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(report['setup_samples_s'])} processes)"
        elif name.startswith("extract_ms"):
            note = f"  (n={report['pages']} pages, {report['passes']} passes each)"
        print(f"metric {name} {e2e[name]:.6g} {unit}{note}")
    for step, seconds in report["step_s"].items():
        wall = report["wall_step_s"][step]
        print(f"metric {step}_s {seconds:.6g} s  (median of {report['passes']} passes; wall {wall:.6g} s)")
    print(f"errors {json.dumps(report['errors'], sort_keys=True)}")
    for problem in report["problems"]:
        print(f"problem {problem}")
    for name, value in sorted(report.get("per_layer", {}).items()):
        unit = PER_LAYER.get(name, "s" if name.endswith("_s") else "ratio")
        print(f"layer {name} {value:.6g} {unit}")


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is for the self-test only")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
