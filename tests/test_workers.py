"""Independent loops in forked workers: ``--jobs`` never changes an output,
failures surface as a serial run's would, and no process outlives a call."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import veritag.evaluation
import veritag.featureset
import veritag.workers
from veritag import (
    LABEL_TO_CLASS,
    ClassifierSettings,
    ConfigError,
    DataError,
    FeatureSchema,
    InvariantError,
    PipelineSpec,
    RawDocument,
    build_schema,
    cross_domain_eval,
    extract_document,
    feature_grid_eval,
    kfold_cv,
    rf_train,
    select_features,
    stratified_folds,
    temporal_eval,
    train_baseline_pipeline,
    train_tag_pipeline,
    tree_importance,
)
from veritag.cli import main
from veritag.featureset import document_labels
from veritag.models.baseline import document_texts
from veritag.workers import _usable_cpus, fork_map, processes

SRC = Path(__file__).resolve().parents[1] / "src"
CLASSIFIERS = ("svm", "knn", "rf", "baseline-svm")
JOBS = (1, 2, 64)


@pytest.fixture(autouse=True)
def no_process_left_behind():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Count the processes forked by the caller."""
    calls = []
    fork = os.fork
    parent = os.getpid()

    def counting():
        if os.getpid() == parent:
            calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


def _three_cpus(monkeypatch):
    """Fork workers whatever the machine has: up to three processes."""
    monkeypatch.setattr(veritag.workers, "_usable_cpus", lambda: 3)


def _in_child(parent=os.getpid()):
    return os.getpid() != parent


def _slow_in_caller(seconds=0.05):
    """Hold the caller on its items, so the children take some."""
    if not _in_child():
        time.sleep(seconds)


class _TwoArgError(Exception):
    """Pickles, but cannot be loaded back: its ``args`` hold one string."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


class TestForkMap:
    @pytest.mark.parametrize("jobs", [1, 2, 3, 64, None])
    def test_results_come_back_in_item_order(self, monkeypatch, forks, jobs):
        _three_cpus(monkeypatch)

        def task(i):
            _slow_in_caller(0.01)
            return i * i, os.getpid()

        results = fork_map(task, list(range(10)), jobs)
        n = min(jobs or 3, 3)
        assert [value for value, _ in results] == [i * i for i in range(10)]
        assert len(forks) == n - 1
        assert len({pid for _, pid in results}) <= n

    def test_idle_processes_take_the_next_item(self, monkeypatch):
        _three_cpus(monkeypatch)

        def task(i):
            time.sleep(0.01 if _in_child() else 0.3)
            return os.getpid()

        pids = fork_map(task, list(range(8)), 3)
        assert pids.count(os.getpid()) == 1  # the caller's one slow item

    def test_never_more_processes_than_items(self, monkeypatch, forks):
        _three_cpus(monkeypatch)
        assert fork_map(lambda i: i + 0.5, [1, 2], None) == [1.5, 2.5]
        assert len(forks) == 1
        assert fork_map(lambda i: i, [], None) == []
        assert fork_map(lambda i: i, [7], 64) == [7]
        assert len(forks) == 1
        assert [processes(None, n) for n in (0, 1, 2, 5)] == [0, 1, 2, 3]

    def test_jobs_is_capped_at_the_usable_cpus(self, forks):
        fork_map(lambda i: i, list(range(200)), 64)
        assert len(forks) + 1 <= _usable_cpus()

    def test_jobs_below_one_is_a_config_error(self):
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            fork_map(lambda i: i, [1, 2], 0)

    @given(
        n=st.integers(0, 40),
        jobs=st.sampled_from([1, 2, 3, 64, None]),
        bad=st.sets(st.integers(0, 40), max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_a_serial_loop(self, n, jobs, bad):
        def task(i):
            if i in bad:
                raise DataError(f"item {i}")
            time.sleep(0.0005)
            return i * i

        def outcome(run):
            try:
                return run()
            except DataError as exc:
                return str(exc)

        with pytest.MonkeyPatch.context() as patch:
            _three_cpus(patch)
            forked = outcome(lambda: fork_map(task, list(range(n)), jobs))
        assert forked == outcome(lambda: [task(i) for i in range(n)])

    def test_more_items_than_the_queue_holds_tickets(self, monkeypatch):
        _three_cpus(monkeypatch)
        items = list(range(20_000))
        assert fork_map(lambda i: i * 3, items, 3) == [i * 3 for i in items]

    @pytest.mark.parametrize("error", [DataError, InvariantError, ValueError])
    def test_a_child_only_exception_is_the_serial_list(self, monkeypatch, error):
        """The caller runs again what a child failed, and gets its value."""
        _three_cpus(monkeypatch)

        def task(i):
            _slow_in_caller()
            if _in_child():
                raise error(f"item {i} is bad")
            return float(i), os.getpid()

        assert fork_map(task, list(range(9)), 3) == [(float(i), os.getpid()) for i in range(9)]

    @pytest.mark.parametrize("error", [DataError, InvariantError, ValueError])
    def test_an_exception_in_every_process_reraises_with_its_type_and_message(
        self, monkeypatch, error
    ):
        _three_cpus(monkeypatch)

        def task(i):
            _slow_in_caller()
            if i >= 4:
                raise error(f"item {i} is bad")
            return float(i)

        with pytest.raises(error, match=r"^item 4 is bad$"):
            fork_map(task, list(range(9)), 3)

    @pytest.mark.parametrize("bad, first", [({3, 4}, 3), ({1, 3}, 1), ({2, 4, 5}, 2)])
    def test_the_first_failure_in_item_order_wins(self, monkeypatch, bad, first):
        _three_cpus(monkeypatch)

        def task(i):
            _slow_in_caller(0.01)
            if i in bad:
                raise DataError(f"item {i}")
            return i

        with pytest.raises(DataError, match=f"^item {first}$"):
            fork_map(task, list(range(9)), 3)

    @pytest.mark.parametrize("death", ["exit", "sigkill"])
    def test_a_dead_child_costs_only_time(self, monkeypatch, death):
        _three_cpus(monkeypatch)

        def task(i):
            _slow_in_caller()
            if _in_child():
                if death == "exit":
                    os._exit(7)
                os.kill(os.getpid(), signal.SIGKILL)
            return i, os.getpid()

        assert fork_map(task, list(range(9)), 3) == [(i, os.getpid()) for i in range(9)]

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("at", [0, 1, 4, 8])
    @pytest.mark.parametrize("fault", ["exit", "sigkill", "raise", "unpicklable exception",
                                       "unpicklable value", "value that cannot be loaded"])
    def test_a_fault_in_a_child_is_the_serial_list(self, monkeypatch, fault, at, jobs):
        """Whichever child takes item ``at`` fails it; the caller runs it
        again, and every other item the child did not report."""
        _three_cpus(monkeypatch)

        def task(i):
            _slow_in_caller(0.01)
            if i == at and _in_child():
                if fault == "exit":
                    os._exit(0)
                if fault == "sigkill":
                    os.kill(os.getpid(), signal.SIGKILL)
                if fault == "raise":
                    raise DataError(f"item {i}")
                if fault == "unpicklable exception":
                    raise _TwoArgError("x", "y")
                if fault == "unpicklable value":
                    return i, threading.Lock()
                return i, _TwoArgError("x", "y")
            return i, None

        items = list(range(9))
        assert fork_map(task, items, jobs) == [(i, None) for i in items]

    def test_an_earlier_failure_beats_a_later_death(self, monkeypatch):
        _three_cpus(monkeypatch)

        def task(i):
            if i == 0:
                raise DataError("item 0")
            if _in_child():
                os._exit(7)
            return i

        with pytest.raises(DataError, match="^item 0$"):
            fork_map(task, list(range(9)), 3)

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_children_are_killed_when_the_caller_is_interrupted(self, monkeypatch, interrupt):
        _three_cpus(monkeypatch)

        def task(i):
            if _in_child():
                time.sleep(60)
            raise interrupt("stop")

        t0 = time.perf_counter()
        with pytest.raises(interrupt):
            fork_map(task, list(range(3)), 3)
        assert time.perf_counter() - t0 < 30

    def test_an_exception_that_cannot_be_pickled_back(self, monkeypatch):
        """Raised in a child, it costs only time; raised everywhere, it is
        raised as the serial loop raises it."""
        _three_cpus(monkeypatch)

        def task(i):
            _slow_in_caller()
            if _in_child() or i == 2:
                raise _TwoArgError("x", "y")
            return i

        with pytest.raises(_TwoArgError, match="^x/y$"):
            fork_map(task, [0, 1, 2], 3)
        with pytest.raises(_TwoArgError, match="^x/y$"):
            [task(i) for i in [0, 1, 2]]
        assert fork_map(task, [0, 1], 3) == [0, 1]

    def test_a_process_that_cannot_be_forked_leaves_its_items_to_the_others(
        self, monkeypatch
    ):
        _three_cpus(monkeypatch)

        def no_fork():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        results = fork_map(lambda i: (i, os.getpid()), list(range(7)), 3)
        assert results == [(i, os.getpid()) for i in range(7)]

    @pytest.mark.parametrize("opened", [0, 1])
    def test_a_process_whose_file_cannot_be_opened_leaves_its_items_to_the_others(
        self, monkeypatch, forks, opened
    ):
        _three_cpus(monkeypatch)
        temporary_file, calls = tempfile.TemporaryFile, []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) > opened:
                raise OSError(24, "Too many open files")
            return temporary_file(*args, **kwargs)

        monkeypatch.setattr(tempfile, "TemporaryFile", failing)

        def task(i):
            _slow_in_caller(0.01)
            return i, os.getpid()

        results = fork_map(task, list(range(7)), 3)
        assert [i for i, _ in results] == list(range(7))
        assert len(forks) == opened
        assert len({pid for _, pid in results} - {os.getpid()}) <= opened

    def test_results_larger_than_a_pipe_come_back_while_the_caller_works(self, monkeypatch):
        _three_cpus(monkeypatch)
        size = 256 * 1024  # four times a Linux pipe's 64 KB

        def task(i):
            time.sleep(0.01 if _in_child() else 0.3)
            return os.getpid(), bytes([i]) * size

        results = fork_map(task, list(range(9)), 3)
        assert [data for _, data in results] == [bytes([i]) * size for i in range(9)]
        assert [pid for pid, _ in results].count(os.getpid()) == 1  # no child waited

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    @pytest.mark.parametrize("case", ["normal", "failed fork", "dead child"])
    def test_a_round_leaves_no_file_descriptor_open(self, monkeypatch, case):
        _three_cpus(monkeypatch)
        fork, calls = os.fork, []
        temporary_file, opened = tempfile.TemporaryFile, []
        monkeypatch.setattr(
            tempfile, "TemporaryFile", lambda: opened.append(temporary_file()) or opened[-1]
        )

        def second_fork_fails():
            calls.append(1)
            if len(calls) == 2:
                raise OSError(11, "Resource temporarily unavailable")
            return fork()

        if case == "failed fork":
            monkeypatch.setattr(os, "fork", second_fork_fails)

        def task(i):
            _slow_in_caller()
            if case == "dead child" and _in_child():
                os._exit(7)
            return i

        before = sorted(os.listdir("/proc/self/fd"))
        assert fork_map(task, list(range(9)), 3) == list(range(9))
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert opened and all(f.closed for f in opened)

    def test_without_fork_the_loop_is_serial(self, monkeypatch):
        _three_cpus(monkeypatch)
        monkeypatch.delattr(os, "fork")
        assert fork_map(lambda i: (i, os.getpid()), list(range(5)), 3) == [
            (i, os.getpid()) for i in range(5)
        ]

    def test_with_another_thread_alive_nothing_forks(self, monkeypatch, forks):
        _three_cpus(monkeypatch)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            results = fork_map(lambda i: (i * i, os.getpid()), list(range(6)), 3)
        finally:
            stop.set()
            thread.join()
        assert results == [(i * i, os.getpid()) for i in range(6)]
        assert forks == []

    def test_a_nested_call_runs_in_its_callers_process(self, monkeypatch, forks):
        _three_cpus(monkeypatch)

        def outer(i):
            _slow_in_caller(0.02)
            return os.getpid(), fork_map(lambda j: os.getpid(), list(range(4)), None)

        results = fork_map(outer, list(range(6)), None)
        assert all(inner == [pid] * 4 for pid, inner in results)
        assert len({pid for pid, _ in results}) <= 3
        assert len(forks) == 2  # the nested calls forked nothing in the caller

    def test_jobs_one_makes_nested_calls_serial(self, monkeypatch, forks):
        _three_cpus(monkeypatch)
        assert fork_map(lambda i: fork_map(lambda j: j, [1, 2, 3]), [0, 1], 1) == [[1, 2, 3]] * 2
        assert forks == []

    def test_without_affinity_the_cpu_count_is_used(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _usable_cpus() == 1


class TestUsers:
    """Every loop the helper serves gives the same result for any ``jobs``."""

    @pytest.mark.parametrize("classifier", ["svm", "baseline-svm"])
    def test_each_page_is_one_item_in_corpus_order(
        self, monkeypatch, demo_corpus_dir, demo_docs, drift_docs, resources, tmp_path,
        classifier,
    ):
        """Every page round hands ``fork_map`` the pages themselves."""
        _three_cpus(monkeypatch)
        fork_map, rounds = veritag.workers.fork_map, []
        monkeypatch.setattr(
            veritag.workers, "fork_map",
            lambda fn, items, jobs=None: rounds.append(list(items)) or fork_map(fn, items, jobs),
        )

        def page_rounds():
            pages = [items for items in rounds if any(isinstance(i, RawDocument) for i in items)]
            rounds.clear()
            return pages

        def handed(docs):
            (pages,) = page_rounds()
            return list(map(id, pages)) == list(map(id, docs))

        assert main(["extract", "--corpus", str(demo_corpus_dir),
                     "--out", str(tmp_path / "f.csv")]) == 0
        assert page_rounds() == [demo_docs]

        y = document_labels(demo_docs)
        if classifier == "svm":
            spec = PipelineSpec()
            schema = build_schema("HC", spec.groups, resources.dictionary)
            X = np.stack([
                extract_document(d, schema, resources.dictionary, resources.tagger,
                                 resources.ad_domains).values
                for d in demo_docs
            ])
            pipeline = train_tag_pipeline(X, y, schema, ClassifierSettings())
        else:
            spec = PipelineSpec(kind="baseline")
            (texts,) = document_texts(demo_docs, ["HC"], resources.dictionary)
            pipeline = train_baseline_pipeline(
                texts, y, "HC", resources.dictionary, ClassifierSettings(), min_df=2
            )
        page_rounds()
        pipeline.predict_documents(
            drift_docs, resources.dictionary, resources.tagger, resources.ad_domains
        )
        assert handed(drift_docs)
        kfold_cv(demo_docs, spec, resources, k=3, seed=0)
        assert handed(demo_docs)
        temporal_eval(drift_docs, spec, resources)
        assert handed(drift_docs)
        cross_domain_eval(demo_docs, drift_docs, spec, resources, ["svm"])
        assert handed(demo_docs + drift_docs)
        feature_grid_eval(demo_docs, spec, resources, [("R",), ("W",)], k=3, seed=0)
        assert handed(demo_docs)

    def test_a_single_page_never_forks(
        self, monkeypatch, forks, demo_corpus_dir, demo_docs, resources, tmp_path
    ):
        _three_cpus(monkeypatch)
        (texts,) = document_texts(demo_docs, ["HC"], resources.dictionary, jobs=1)
        pipeline = train_baseline_pipeline(
            texts, document_labels(demo_docs), "HC", resources.dictionary, ClassifierSettings(),
            min_df=2,
        )
        classes, _ = pipeline.predict_documents(demo_docs[:1])
        assert classes.tolist() == pipeline.predict_matrix(
            pipeline.featurizer.transform_many(texts[:1])
        )[0].tolist()

        corpus = tmp_path / "corpus"
        (corpus / "pages").mkdir(parents=True)
        for name in ("site_labels.json", "pages/" + demo_docs[0].id + ".html"):
            (corpus / name).write_bytes((demo_corpus_dir / name).read_bytes())
        first = (demo_corpus_dir / "manifest.jsonl").read_text(encoding="utf-8").splitlines()[0]
        (corpus / "manifest.jsonl").write_text(first + "\n", encoding="utf-8")
        out = tmp_path / "f.csv"
        assert main(["extract", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 2
        assert forks == []

    def test_forest_and_tree_scorer_are_bit_equal_for_any_jobs(self, monkeypatch):
        _three_cpus(monkeypatch)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 9))
        y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(np.int64)
        forests = [rf_train(X, y, 12, seed=5, jobs=jobs).trees for jobs in (1, 2, 3)]
        assert forests[1] == forests[0] and forests[2] == forests[0]
        scores = {tree_importance(X, y, 30, seed=5, jobs=jobs).tobytes() for jobs in (1, 2, 3)}
        assert len(scores) == 1
        schema = FeatureSchema(names=tuple(f"R.{i}" for i in range(9)), granularity="HC",
                               groups=("R",), pruning="none")
        selections = [
            select_features(X, y, schema, trees=30, seed=5, jobs=jobs) for jobs in (1, 2, 3)
        ]
        assert len({pruned for pruned, _ in selections}) == 1
        fields = ("se_raw", "tb_raw", "l1_raw", "mi_raw", "r")
        assert len({tuple(getattr(s, f).tobytes() for f in fields) for _, s in selections}) == 1
        assert selections[0][1].tb_raw.tobytes() in scores  # the tree scorer's own sum


def test_a_dead_child_leaves_a_protocol_as_a_serial_run(demo_docs, resources, monkeypatch):
    _three_cpus(monkeypatch)
    expected = kfold_cv(demo_docs, PipelineSpec(), resources, k=3, seed=0, jobs=1)
    score = veritag.evaluation._Fitter.score

    def dying(self, *args):
        _slow_in_caller(0.2)
        if _in_child():
            os._exit(5)
        return score(self, *args)

    monkeypatch.setattr(veritag.evaluation._Fitter, "score", dying)
    assert kfold_cv(demo_docs, PipelineSpec(), resources, k=3, seed=0, jobs=3) == expected


def _report(argv, tmp_path, name):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("classifier", CLASSIFIERS)
@pytest.mark.parametrize("protocol", ["cv", "temporal", "cross-domain", "grid"])
@pytest.mark.parametrize("corpus", ["demo", "drift"])
def test_evaluate_reports_are_byte_identical_for_any_jobs(
    demo_corpus_dir, drift_corpus_dir, tmp_path, forks, corpus, protocol, classifier
):
    corpora = {"demo": demo_corpus_dir, "drift": drift_corpus_dir}
    other = "drift" if corpus == "demo" else "demo"
    argv = ["evaluate", "--protocol", protocol, "--classifier", classifier,
            "--trees", "7", "--corpus", str(corpora[corpus])]
    if protocol == "cross-domain":
        argv += ["--test-corpus", str(corpora[other])]
    if protocol == "grid":
        argv += ["--group-sets", "R;N,L,R,W", "--folds", "3"]
    reports = {1: _report([*argv, "--jobs", "1"], tmp_path, "1.csv")}
    assert forks == []
    for jobs in JOBS[1:]:
        reports[jobs] = _report([*argv, "--jobs", str(jobs)], tmp_path, f"{jobs}.csv")
    reports[None] = _report(argv, tmp_path, "auto.csv")
    assert len(set(reports.values())) == 1
    # two rounds a run, the pages' and the fits'; a forest's trees grow serially
    assert len(forks) <= 3 * 2 * (_usable_cpus() - 1)


def test_the_feature_flow_is_byte_identical_for_any_jobs(demo_corpus_dir, tmp_path):
    """extract, select, train (rf and baseline-svm) and predict."""
    outputs = []
    for jobs in (["--jobs", "1"], ["--jobs", "2"], ["--jobs", "64"], []):
        run = tmp_path / (jobs[-1] if jobs else "auto")
        run.mkdir()
        steps = [
            ["extract", "--corpus", str(demo_corpus_dir), "--out", str(run / "f.csv"),
             "--schema-out", str(run / "s.json")],
            ["select", "--features", str(run / "f.csv"), "--trees", "40",
             "--out", str(run / "pruned.json"), "--report", str(run / "importance.csv")],
            ["train", "--classifier", "rf", "--trees", "9", "--features", str(run / "f.csv"),
             "--schema", str(run / "pruned.json"), "--out", str(run / "rf.bin")],
            ["train", "--classifier", "baseline-svm", "--corpus", str(demo_corpus_dir),
             "--out", str(run / "baseline.bin")],
            ["predict", "--model", str(run / "rf.bin"), "--corpus", str(demo_corpus_dir),
             "--out", str(run / "rf.csv")],
            ["predict", "--model", str(run / "baseline.bin"), "--corpus",
             str(demo_corpus_dir), "--out", str(run / "baseline.csv")],
        ]
        for argv in steps:
            assert main([*argv, *jobs]) == 0, argv
        outputs.append({path.name: path.read_bytes() for path in sorted(run.iterdir())})
    assert len(outputs[0]) == 8
    assert all(output == outputs[0] for output in outputs[1:])


def test_a_bad_page_exits_as_a_serial_run_would(
    demo_corpus_dir, demo_docs, tmp_path, caplog, monkeypatch
):
    _three_cpus(monkeypatch)
    extract = veritag.featureset.extract_vectors
    bad = {demo_docs[30].id, demo_docs[35].id}  # in the last chunk, a child's

    def failing(doc, *args):
        if doc.id in bad:
            raise DataError(f"page {doc.id} is bad")
        return extract(doc, *args)

    for module in (veritag.featureset, veritag.evaluation):
        monkeypatch.setattr(module, "extract_vectors", failing)
    runs = []
    for command in (["extract"], ["evaluate", "--protocol", "cv"]):
        for jobs in ("1", "3"):
            caplog.clear()
            with caplog.at_level("ERROR", logger="veritag"):
                code = main([*command, "--corpus", str(demo_corpus_dir), "--jobs", jobs,
                             "--out", str(tmp_path / "out.csv")])
            runs.append((code, caplog.text))
    assert runs[0] == runs[1] and runs[2] == runs[3]
    assert runs[0][0] == 2 and f"page {demo_docs[30].id} is bad" in runs[0][1]


@pytest.mark.parametrize("error, code", [(DataError, 2), (InvariantError, 3)])
def test_a_child_error_exits_as_a_serial_run_would(
    demo_corpus_dir, demo_docs, tmp_path, caplog, monkeypatch, error, code
):
    y = np.array([LABEL_TO_CLASS[d.label] for d in demo_docs])
    test_rows = np.flatnonzero(stratified_folds(y, 5, 0) == 1).tolist()
    score = veritag.evaluation._Fitter.score

    def failing(self, train_idx, test_idx, settings):
        _slow_in_caller(0.02)
        if test_idx.tolist() == test_rows:
            raise error("fold 1 is bad")
        return score(self, train_idx, test_idx, settings)

    monkeypatch.setattr(veritag.evaluation._Fitter, "score", failing)
    _three_cpus(monkeypatch)
    argv = ["evaluate", "--protocol", "cv", "--corpus", str(demo_corpus_dir),
            "--out", str(tmp_path / "cv.csv")]
    runs = []
    for jobs in ("1", "2"):
        caplog.clear()
        with caplog.at_level("ERROR", logger="veritag"):
            runs.append((main([*argv, "--jobs", jobs]), caplog.text))
    assert runs[0] == runs[1]
    assert runs[0][0] == code and "fold 1 is bad" in runs[0][1]


@pytest.mark.parametrize("argv", [
    ["extract", "--corpus", "{missing}"],
    ["select", "--features", "{missing}"],
    ["train", "--classifier", "rf", "--features", "{missing}"],
    ["predict", "--model", "{missing}", "--corpus", "{missing}"],
    ["evaluate", "--protocol", "cv", "--corpus", "{missing}"],
], ids=lambda argv: argv[0])
def test_jobs_zero_is_a_usage_error(tmp_path, caplog, argv):
    out = tmp_path / "out"
    argv = [a.format(missing=tmp_path / "absent") for a in argv]
    with caplog.at_level("ERROR", logger="veritag"):
        assert main([*argv, "--jobs", "0", "--out", str(out)]) == 1
    assert "--jobs must be >= 1" in caplog.text
    assert not out.exists()


def _run(args, code=""):
    """A fresh process with block-buffered stdout, as a pipe gets by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    command = [sys.executable, "-c", code, *args] if code else [sys.executable, *args]
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=300)


def test_a_dead_child_exits_0_with_the_serial_report(demo_corpus_dir, tmp_path):
    # a fresh process, so stderr is exactly what a user would see
    script = (
        "import os, sys, time\n"
        "import veritag.cli as cli, veritag.evaluation as ev, veritag.workers as workers\n"
        "parent, score = os.getpid(), ev._Fitter.score\n"
        "def dying(self, *args):\n"
        "    if os.getpid() != parent:\n"
        "        os._exit(7)\n"
        "    time.sleep(0.2)\n"
        "    return score(self, *args)\n"
        "ev._Fitter.score = dying\n"
        "workers._usable_cpus = lambda: 2\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    out = tmp_path / "cv.csv"
    argv = ["evaluate", "--protocol", "cv", "--corpus", str(demo_corpus_dir), "--out", str(out)]
    runs = []
    for jobs in ("1", "2"):
        proc = _run([*argv, "--jobs", jobs], script)
        runs.append((proc.returncode, proc.stderr, out.read_bytes()))
    assert runs[1] == runs[0]
    assert runs[0][0] == 0
    assert re.fullmatch(r"INFO cv mean accuracy \S+ over 5 folds\n", runs[0][1])


def test_grid_logs_its_summary_once(demo_corpus_dir, tmp_path):
    out = tmp_path / "grid.csv"
    proc = _run(["-m", "veritag", "evaluate", "--protocol", "grid", "--jobs", "2",
                 "--corpus", str(demo_corpus_dir), "--out", str(out)])
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [f"INFO grid: 15 cells -> {out}"]
    assert proc.stdout == ""


def test_output_buffered_before_a_fork_is_written_once():
    script = (
        "import veritag.workers as workers\n"
        "workers._usable_cpus = lambda: 2\n"
        "print('before', end='')\n"
        "print(workers.fork_map(lambda i: i * 2, [1, 2, 3], 2))\n"
    )
    proc = _run([], script)
    assert proc.returncode == 0
    assert proc.stdout == "before[2, 4, 6]\n"


def test_no_file_is_left_unclosed_under_dev_mode():
    """A normal round, a failed fork and a dead child, with every unclosed
    file an error; a file left to the garbage collector writes to stderr."""
    script = (
        "import os, time\n"
        "import veritag.workers as workers\n"
        "workers._usable_cpus = lambda: 3\n"
        "parent, fork, forks, die = os.getpid(), os.fork, [], False\n"
        "def second_fork_fails():\n"
        "    forks.append(1)\n"
        "    if len(forks) == 2:\n"
        "        raise OSError(11, 'Resource temporarily unavailable')\n"
        "    return fork()\n"
        "def task(i):\n"
        "    if os.getpid() == parent:\n"
        "        time.sleep(0.05)\n"
        "    elif die:\n"
        "        os._exit(7)\n"
        "    return i\n"
        "assert workers.fork_map(task, list(range(9)), 3) == list(range(9))\n"
        "os.fork = second_fork_fails\n"
        "assert workers.fork_map(task, list(range(4)), 3) == list(range(4))\n"
        "os.fork, die = fork, True\n"
        "print(workers.fork_map(task, list(range(9)), 3))\n"
    )
    proc = _run(["-X", "dev", "-W", "error::ResourceWarning", "-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == f"{list(range(9))}\n"


def test_a_child_that_cannot_write_its_file_costs_only_time():
    """Under a file size limit on this process only, a child's 200 KB value
    fails its write with EFBIG, and the caller runs the item itself."""
    script = (
        "import os, resource, signal, time\n"
        "import veritag.workers as workers\n"
        "workers._usable_cpus = lambda: 2\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, resource.RLIM_INFINITY))\n"
        "parent = os.getpid()\n"
        "def task(i):\n"
        "    if os.getpid() == parent:\n"
        "        time.sleep(0.2)\n"
        "    return os.getpid(), bytes([i]) * 200_000\n"
        "items = list(range(4))\n"
        "serial = [data for _, data in workers.fork_map(task, items, 1)]\n"
        "forked = workers.fork_map(task, items, 2)\n"
        "assert [data for _, data in forked] == serial\n"
        "assert [pid for pid, _ in forked] == [parent] * 4\n"
        "print('ok')\n"
    )
    proc = _run([], script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_importing_the_package_starts_no_pool_machinery():
    proc = _run([], "import sys, veritag; print(sorted(m for m in sys.modules "
                    "if m.startswith(('multiprocessing', 'concurrent'))))")
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


def test_only_the_workers_module_forks():
    """One helper owns every fork and counts every process, pages go to it
    one item each, and no pool library comes in."""
    for path in sorted((SRC / "veritag").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name != "workers.py":
            assert "os.fork(" not in text, path
            assert not re.search(r"\bprocesses\(", text), path
        assert "map_pages" not in text, path
        assert not re.search(r"^\s*(import|from)\s+(multiprocessing|concurrent)\b", text,
                             re.MULTILINE), path


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_reports_are_byte_identical_without(
    demo_corpus_dir, tmp_path, monkeypatch, missing
):
    argv = ["evaluate", "--protocol", "grid", "--group-sets", "R;W", "--folds", "3",
            "--corpus", str(demo_corpus_dir)]
    expected = _report(argv, tmp_path, "with.csv")
    monkeypatch.delattr(os, missing)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _report(argv, tmp_path, "without.csv") == expected
