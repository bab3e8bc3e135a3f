"""Evaluation fits in forked workers: ``--jobs`` never changes a report,
failures surface as a serial run's would, and no process outlives a call."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import veritag.evaluation
from veritag import (
    LABEL_TO_CLASS,
    ConfigError,
    DataError,
    InvariantError,
    PipelineSpec,
    kfold_cv,
    stratified_folds,
)
from veritag.cli import main
from veritag.evaluation import _fork_map, _usable_cpus

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
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
    monkeypatch.setattr(veritag.evaluation, "_usable_cpus", lambda: 3)


def _in_child(parent=os.getpid()):
    return os.getpid() != parent


class TestForkMap:
    @pytest.mark.parametrize("jobs", [1, 2, 3, 64, None])
    def test_results_in_item_order_from_each_share(self, monkeypatch, forks, jobs):
        _three_cpus(monkeypatch)
        results = _fork_map(lambda i: (i * i, os.getpid()), list(range(10)), jobs)
        n = min(jobs or 3, 3)
        assert [value for value, _ in results] == [i * i for i in range(10)]
        pids = [pid for _, pid in results]
        assert len(set(pids)) == n == len(forks) + 1
        assert all(pid == os.getpid() for pid in pids[::n])  # the caller runs share 0
        assert all(pids[i] == pids[i % n] for i in range(10))

    def test_never_more_processes_than_items(self, monkeypatch, forks):
        _three_cpus(monkeypatch)
        assert _fork_map(lambda i: i + 0.5, [1, 2], None) == [1.5, 2.5]
        assert len(forks) == 1
        assert _fork_map(lambda i: i, [], None) == []
        assert _fork_map(lambda i: i, [7], 64) == [7]
        assert len(forks) == 1

    def test_jobs_is_capped_at_the_usable_cpus(self, forks):
        _fork_map(lambda i: i, list(range(200)), 64)
        assert len(forks) + 1 <= _usable_cpus()

    def test_jobs_below_one_is_a_config_error(self):
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            _fork_map(lambda i: i, [1, 2], 0)

    @pytest.mark.parametrize("error", [DataError, InvariantError, ValueError])
    def test_a_child_exception_reraises_with_its_type_and_message(self, monkeypatch, error):
        _three_cpus(monkeypatch)

        def task(i):
            if i == 4:  # share 1: a child
                assert _in_child()
                raise error(f"item {i} is bad")
            return float(i)

        with pytest.raises(error, match="^item 4 is bad$"):
            _fork_map(task, list(range(9)), 3)

    @pytest.mark.parametrize(
        "bad, first",
        [
            ({3, 4}, 3),  # the caller's share fails first
            ({1, 3}, 1),  # a child's share fails first
            ({2, 4, 5}, 2),  # two children fail
        ],
    )
    def test_the_first_failure_in_item_order_wins(self, monkeypatch, bad, first):
        _three_cpus(monkeypatch)

        def task(i):
            if i in bad:
                raise DataError(f"item {i}")
            return i

        with pytest.raises(DataError, match=f"^item {first}$"):
            _fork_map(task, list(range(9)), 3)

    def test_a_dead_child_is_an_invariant_error(self, monkeypatch):
        _three_cpus(monkeypatch)

        def task(i):
            if i == 5 and _in_child():
                os._exit(7)
            return i

        with pytest.raises(InvariantError, match="status 7 before reporting item 5"):
            _fork_map(task, list(range(9)), 3)

    def test_an_earlier_failure_beats_a_later_death(self, monkeypatch):
        _three_cpus(monkeypatch)

        def task(i):
            if i == 0:
                raise DataError("item 0")
            if _in_child():
                os._exit(7)
            return i

        with pytest.raises(DataError, match="^item 0$"):
            _fork_map(task, list(range(9)), 3)

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_children_are_killed_when_the_caller_is_interrupted(self, monkeypatch, interrupt):
        _three_cpus(monkeypatch)

        def task(i):
            if _in_child():
                time.sleep(60)
            raise interrupt("stop")

        t0 = time.perf_counter()
        with pytest.raises(interrupt):
            _fork_map(task, list(range(3)), 3)
        assert time.perf_counter() - t0 < 30

    def test_an_exception_that_cannot_be_pickled_back(self, monkeypatch):
        _three_cpus(monkeypatch)

        class TwoArgError(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a}/{b}")

        def task(i):
            if i == 1:
                raise TwoArgError("x", "y")
            return i

        with pytest.raises(InvariantError, match="TwoArgError: x/y"):
            _fork_map(task, [0, 1, 2], 3)

    def test_a_share_that_cannot_be_forked_runs_in_the_caller(self, monkeypatch):
        _three_cpus(monkeypatch)

        def no_fork():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        results = _fork_map(lambda i: (i, os.getpid()), list(range(7)), 3)
        assert results == [(i, os.getpid()) for i in range(7)]

    def test_without_fork_the_loop_is_serial(self, monkeypatch):
        _three_cpus(monkeypatch)
        monkeypatch.delattr(os, "fork")
        assert _fork_map(lambda i: (i, os.getpid()), list(range(5)), 3) == [
            (i, os.getpid()) for i in range(5)
        ]

    def test_without_affinity_the_cpu_count_is_used(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _usable_cpus() == 1


def test_a_dead_child_fails_a_protocol(demo_docs, resources, monkeypatch):
    _three_cpus(monkeypatch)
    score = veritag.evaluation._Fitter.score

    def dying(self, *args):
        if _in_child():
            os._exit(5)
        return score(self, *args)

    monkeypatch.setattr(veritag.evaluation._Fitter, "score", dying)
    with pytest.raises(InvariantError, match="status 5 before reporting item 1"):
        kfold_cv(demo_docs, PipelineSpec(), resources, k=3, jobs=3)


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
    reports = {jobs: _report([*argv, "--jobs", str(jobs)], tmp_path, f"{jobs}.csv")
               for jobs in JOBS}
    reports[None] = _report(argv, tmp_path, "auto.csv")
    assert len(set(reports.values())) == 1
    assert len(forks) <= 3 * (_usable_cpus() - 1)  # jobs 2, 64 and auto


@pytest.mark.parametrize("error, code", [(DataError, 2), (InvariantError, 3)])
def test_a_child_error_exits_as_a_serial_run_would(
    demo_corpus_dir, demo_docs, tmp_path, caplog, monkeypatch, error, code
):
    # fold 1 of 5 is the first task of the first child
    y = np.array([LABEL_TO_CLASS[d.label] for d in demo_docs])
    test_rows = np.flatnonzero(stratified_folds(y, 5, 0) == 1).tolist()
    score = veritag.evaluation._Fitter.score

    def failing(self, train_idx, test_idx, settings):
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


def test_jobs_zero_is_a_usage_error_for_evaluate(demo_corpus_dir, tmp_path):
    assert main(["evaluate", "--protocol", "cv", "--corpus", str(demo_corpus_dir),
                 "--jobs", "0", "--out", str(tmp_path / "cv.csv")]) == 1


def _run(args, code=""):
    """A fresh process with block-buffered stdout, as a pipe gets by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    command = [sys.executable, "-c", code, *args] if code else [sys.executable, *args]
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=300)


def test_a_dead_child_exits_3_with_one_error_line(demo_corpus_dir, tmp_path):
    # a fresh process, so stderr is exactly what a user would see
    script = (
        "import os, sys\n"
        "import veritag.cli as cli, veritag.evaluation as ev\n"
        "parent, score = os.getpid(), ev._Fitter.score\n"
        "def dying(self, *args):\n"
        "    if os.getpid() != parent:\n"
        "        os._exit(7)\n"
        "    return score(self, *args)\n"
        "ev._Fitter.score = dying\n"
        "ev._usable_cpus = lambda: 2\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = _run(["evaluate", "--protocol", "cv", "--jobs", "2", "--corpus",
                 str(demo_corpus_dir), "--out", str(tmp_path / "cv.csv")], script)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "ERROR invariant violation: evaluation worker exited with status 7 "
        "before reporting item 1"
    ]


def test_grid_logs_its_summary_once(demo_corpus_dir, tmp_path):
    out = tmp_path / "grid.csv"
    proc = _run(["-m", "veritag", "evaluate", "--protocol", "grid", "--jobs", "2",
                 "--corpus", str(demo_corpus_dir), "--out", str(out)])
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [f"INFO grid: 15 cells -> {out}"]
    assert proc.stdout == ""


def test_output_buffered_before_a_fork_is_written_once():
    script = (
        "import veritag.evaluation as ev\n"
        "ev._usable_cpus = lambda: 2\n"
        "print('before', end='')\n"
        "print(ev._fork_map(lambda i: i * 2, [1, 2, 3], 2))\n"
    )
    proc = _run([], script)
    assert proc.returncode == 0
    assert proc.stdout == "before[2, 4, 6]\n"


def test_importing_the_package_starts_no_pool_machinery():
    proc = _run([], "import sys, veritag; print(sorted(m for m in sys.modules "
                    "if m.startswith(('multiprocessing', 'concurrent'))))")
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


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
