"""End-to-end command-line flows on the generated demo corpus."""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import re
import shlex
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import veritag.models.pipeline
from veritag.cli import build_parser, main
from veritag.demo import main as demo_main
from veritag.resources import demo_dictionary_path


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def _subcommand_flags():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {o for action in sub._actions for o in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }


class TestEntryPoint:
    def test_no_command_prints_usage_and_fails(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("veritag ")

    def test_unknown_command_fails(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_fails(self, capsys):
        assert main(["ingest", "--nope"]) == 1

    def test_console_script_is_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "veritag", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("veritag ")

    def test_jobs_must_be_positive(self, demo_corpus_dir, tmp_path, caplog):
        out = tmp_path / "cv.csv"
        assert main(["evaluate", "--protocol", "cv", "--corpus", str(demo_corpus_dir),
                     "--jobs", "0", "--out", str(out)]) == 1
        assert "--jobs must be >= 1" in caplog.text
        assert not out.exists()

    def test_each_subcommand_takes_exactly_these_flags(self):
        """A flag a subcommand accepts but never reads would come back
        unnoticed; adding or dropping one has to change this table."""
        resources = {"--dictionary", "--ad-domains"}
        schema = {"--granularity", "--groups", "--pruning"}
        classifier = {"--classifier", "--c", "--k", "--trees", "--min-df"}
        expected = {
            "ingest": {"--config", "--corpus", "--check"},
            "filter-political": {"--config", "--corpus", "--model", "--topics",
                                 "--save-model", "--threshold", "--out"},
            "sample": {"--config", "--seed", "--corpus", "--cap", "--out"},
            "extract": {"--config", *schema, *resources, "--jobs", "--corpus", "--schema",
                        "--out", "--schema-out"},
            "select": {"--config", "--seed", "--granularity", "--jobs", "--features",
                       "--schema", "--bins", "--trees", "--lambda", "--out", "--report"},
            "train": {"--config", "--seed", "--granularity", "--dictionary", *classifier,
                      "--jobs", "--features", "--schema", "--corpus", "--out"},
            "predict": {"--config", *resources, "--jobs", "--model", "--corpus", "--out"},
            "evaluate": {"--config", "--seed", *schema, *resources, *classifier, "--jobs",
                         "--protocol", "--corpus", "--test-corpus", "--folds",
                         "--group-sets", "--out"},
            "report-terms": {"--config", "--corpus", "--top", "--out"},
        }
        assert _subcommand_flags() == expected
        assert sum(map(len, expected.values())) == 81

    def test_readme_flag_table_matches_the_parser(self):
        """The README's table of subcommands and their flags is the parser's."""
        readme = Path(__file__).parents[1] / "README.md"
        lines = readme.read_text(encoding="utf-8").splitlines()
        start = lines.index("| subcommand | flags |") + 2
        table = {}
        for line in itertools.takewhile(lambda row: row.startswith("|"), lines[start:]):
            command, flags = line.strip("|").split("|")
            table[command.strip().strip("`")] = re.findall(r"`(--[a-z-]+)", flags)
        assert {name: set(flags) for name, flags in table.items()} == _subcommand_flags()
        assert all(len(set(flags)) == len(flags) for flags in table.values())

    def test_unexpected_exception_exits_3_without_traceback(self, demo_corpus_dir):
        # a fresh process, so stderr is exactly what a user would see
        script = (
            "import sys, veritag.cli as cli\n"
            "def boom(args):\n"
            "    raise RuntimeError('boom')\n"
            "cli.cmd_ingest = boom\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "ingest", "--corpus", str(demo_corpus_dir)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == ["ERROR internal error: RuntimeError: boom"]


def _ignored(context, *argv):
    """A command line whose last flag the run would ignore because of the
    flag ``context``. Its input paths are missing, except that ``{file}``
    names a file that exists and ``{baseline}`` a config file choosing
    baseline-svm."""
    return pytest.param(list(argv), context, id=" ".join(a for a in argv if "{" not in a))


IGNORED_COMBINATIONS = [
    _ignored("--schema", "extract", "--corpus", "{missing}", "--schema", "{missing}",
             "--granularity", "H"),
    _ignored("--schema", "extract", "--corpus", "{missing}", "--schema", "{missing}",
             "--groups", "R"),
    _ignored("--schema", "extract", "--corpus", "{missing}", "--schema", "{missing}",
             "--pruning", "paper"),
    _ignored("--schema", "select", "--features", "{missing}", "--schema", "{missing}",
             "--granularity", "H"),
    _ignored("--schema", "train", "--features", "{missing}", "--schema", "{missing}",
             "--granularity", "H"),
    _ignored("--classifier", "train", "--features", "{missing}", "--corpus", "{missing}"),
    _ignored("--classifier", "train", "--classifier", "knn", "--features", "{missing}",
             "--corpus", "{missing}"),
    _ignored("--classifier", "train", "--classifier", "rf", "--features", "{missing}",
             "--corpus", "{missing}"),
    _ignored("--classifier", "train", "--features", "{missing}", "--dictionary",
             "{file}"),
    _ignored("--classifier", "train", "--features", "{missing}", "--jobs", "2"),
    _ignored("--classifier", "train", "--classifier", "knn", "--features", "{missing}",
             "--jobs", "2"),
    _ignored("--classifier", "train", "--classifier", "baseline-svm", "--corpus", "{missing}",
             "--features", "{missing}"),
    _ignored("--classifier", "train", "--classifier", "baseline-svm", "--corpus", "{missing}",
             "--schema", "{missing}"),
    # the classifier comes from the config file
    _ignored("--classifier", "train", "--config", "{baseline}", "--corpus", "{missing}",
             "--features", "{missing}"),
    _ignored("--protocol", "evaluate", "--protocol", "cv", "--corpus", "{missing}",
             "--test-corpus", "{missing}"),
    _ignored("--protocol", "evaluate", "--protocol", "temporal", "--corpus", "{missing}",
             "--test-corpus", "{missing}"),
    _ignored("--protocol", "evaluate", "--protocol", "grid", "--corpus", "{missing}",
             "--test-corpus", "{missing}"),
    _ignored("--protocol", "evaluate", "--protocol", "cv", "--corpus", "{missing}",
             "--group-sets", "R"),
    _ignored("--protocol", "evaluate", "--protocol", "temporal", "--corpus", "{missing}",
             "--group-sets", "R"),
    _ignored("--protocol", "evaluate", "--protocol", "cross-domain", "--corpus", "{missing}",
             "--test-corpus", "{missing}", "--group-sets", "R"),
    _ignored("--protocol", "evaluate", "--protocol", "temporal", "--corpus", "{missing}",
             "--folds", "3"),
    _ignored("--protocol", "evaluate", "--protocol", "cross-domain", "--corpus", "{missing}",
             "--test-corpus", "{missing}", "--folds", "3"),
    _ignored("--protocol", "evaluate", "--protocol", "grid", "--corpus", "{missing}",
             "--groups", "R"),
    _ignored("--protocol", "evaluate", "--protocol", "grid", "--corpus", "{missing}",
             "--granularity", "H"),
    _ignored("--classifier", "evaluate", "--protocol", "cv", "--classifier", "baseline-svm",
             "--corpus", "{missing}", "--ad-domains", "{file}"),
    _ignored("--classifier", "evaluate", "--protocol", "temporal", "--classifier",
             "baseline-svm", "--corpus", "{missing}", "--ad-domains", "{file}"),
]


class TestIgnoredFlags:
    """A flag the run would ignore is a usage error before any input is read:
    a read of the missing corpus, features or model would be exit 2."""

    @staticmethod
    def _refused(argv, tmp_path, caplog):
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"classifier": "baseline-svm"}', encoding="utf-8")
        paths = {"missing": tmp_path / "absent", "file": demo_dictionary_path(),
                 "baseline": baseline}
        out = tmp_path / "out"
        argv = [a.format(**paths) for a in argv] + ["--out", str(out)]
        with caplog.at_level("ERROR", logger="veritag"):
            assert main(argv) == 1
        assert [r.levelname for r in caplog.records] == ["ERROR"]
        assert not out.exists()
        return caplog.records[0].getMessage()

    @pytest.mark.parametrize("argv, context", IGNORED_COMBINATIONS)
    def test_ignored_combination_is_refused(self, tmp_path, caplog, argv, context):
        message = self._refused(argv, tmp_path, caplog)
        assert context in message and argv[-2] in message

    @pytest.mark.parametrize("group_sets", [";", "", "R; ,", "R;", "R;X", "R,R", "N;R,W,R"])
    def test_each_grid_group_set_must_name_groups(self, tmp_path, caplog, group_sets):
        argv = ["evaluate", "--protocol", "grid", "--corpus", "{missing}",
                "--group-sets", group_sets]
        assert "--group-sets" in self._refused(argv, tmp_path, caplog)

    def test_config_file_values_are_not_refused(self, artifacts, demo_corpus_dir, tmp_path):
        config = tmp_path / "run.json"
        config.write_text('{"granularity": "H", "groups": ["R"], "pruning": "paper"}',
                          encoding="utf-8")
        outputs = []
        for extra in ([], ["--config", str(config)]):
            out = tmp_path / f"features{len(extra)}.csv"
            assert main(["extract", "--corpus", str(demo_corpus_dir), *extra,
                         "--schema", str(artifacts["pruned"]), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


_TAGGER_RUNS = pytest.mark.parametrize("argv", [
    ["extract"],
    ["predict", "--model", "{missing}"],
    ["evaluate", "--protocol", "cv"],
], ids=["extract", "predict", "evaluate"])


class TestOneTagger:
    """The rule tagger is the only tagger, so nothing chooses one. Each run
    names a missing corpus, model and features, whose read would be exit 2."""

    @_TAGGER_RUNS
    def test_tagger_flag_is_a_usage_error(self, tmp_path, capsys, argv):
        missing, out = str(tmp_path / "absent"), tmp_path / "out"
        argv = [a.format(missing=missing) for a in argv]
        assert main([*argv, "--corpus", missing, "--tagger", "rules", "--out", str(out)]) == 1
        assert "unrecognized arguments: --tagger rules" in capsys.readouterr().err
        assert not out.exists()

    @_TAGGER_RUNS
    def test_tagger_in_a_config_file_is_an_unknown_key(self, tmp_path, caplog, argv):
        missing, config, out = str(tmp_path / "absent"), tmp_path / "run.json", tmp_path / "out"
        config.write_text('{"tagger": "rules"}', encoding="utf-8")
        argv = [a.format(missing=missing) for a in argv]
        with caplog.at_level("ERROR", logger="veritag"):
            assert main([*argv, "--config", str(config), "--corpus", missing,
                         "--out", str(out)]) == 1
        assert _one_error(caplog) == f"{config}: unknown config keys ['tagger']"
        assert not out.exists()


class TestIngest:
    def test_summary_json(self, demo_corpus_dir, capsys):
        assert main(["ingest", "--corpus", str(demo_corpus_dir)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["documents"] == 40
        assert summary["sites"] == 4
        assert summary["years"] == [2016, 2017]
        assert summary["label_counts"] == {"reliable": 20, "unreliable": 20}
        assert summary["checked_html"] is False

    def test_check_reads_every_page(self, demo_corpus_dir, capsys):
        assert main(["ingest", "--corpus", str(demo_corpus_dir), "--check"]) == 0
        assert json.loads(capsys.readouterr().out)["checked_html"] is True

    def test_missing_corpus_is_a_data_error(self, tmp_path):
        assert main(["ingest", "--corpus", str(tmp_path / "absent")]) == 2


class TestSample:
    def test_cap_limits_each_site_year(self, demo_corpus_dir, tmp_path):
        out = tmp_path / "sampled.jsonl"
        assert main(["sample", "--corpus", str(demo_corpus_dir),
                     "--cap", "3", "--out", str(out)]) == 0
        records = [json.loads(line) for line in _lines(out)]
        assert len(records) == 24  # 4 sites x 2 years x cap 3
        cells = {}
        for record in records:
            cells.setdefault((record["site"], record["year"]), []).append(record["id"])
        assert all(len(ids) == 3 for ids in cells.values())

    def test_large_cap_keeps_everything(self, demo_corpus_dir, tmp_path):
        out = tmp_path / "sampled.jsonl"
        assert main(["sample", "--corpus", str(demo_corpus_dir),
                     "--cap", "10", "--out", str(out)]) == 0
        assert len(_lines(out)) == 40

    def test_deterministic_for_a_seed(self, demo_corpus_dir, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        argv = ["sample", "--corpus", str(demo_corpus_dir), "--cap", "2", "--seed", "7"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFilterPolitical:
    def test_train_score_and_save(self, demo_corpus_dir, topic_fixture_path, tmp_path):
        out = tmp_path / "decisions.csv"
        model = tmp_path / "filter.bin"
        assert main(["filter-political", "--corpus", str(demo_corpus_dir),
                     "--topics", str(topic_fixture_path),
                     "--save-model", str(model), "--out", str(out)]) == 0
        header, *rows = _lines(out)
        assert header == "doc_id,score,is_political"
        assert len(rows) == 40
        for row in rows:
            _, score, flag = row.split(",")
            assert 0.0 <= float(score) <= 1.0
            assert flag in ("0", "1")
        assert model.is_file()

    def test_saved_model_reproduces_decisions(self, demo_corpus_dir,
                                              topic_fixture_path, tmp_path):
        trained = tmp_path / "a.csv"
        reloaded = tmp_path / "b.csv"
        model = tmp_path / "filter.bin"
        main(["filter-political", "--corpus", str(demo_corpus_dir),
              "--topics", str(topic_fixture_path),
              "--save-model", str(model), "--out", str(trained)])
        assert main(["filter-political", "--corpus", str(demo_corpus_dir),
                     "--model", str(model), "--out", str(reloaded)]) == 0
        assert trained.read_bytes() == reloaded.read_bytes()

    def test_threshold_flag_changes_decisions(self, demo_corpus_dir,
                                              topic_fixture_path, tmp_path):
        lenient = tmp_path / "lenient.csv"
        strict = tmp_path / "strict.csv"
        base = ["filter-political", "--corpus", str(demo_corpus_dir),
                "--topics", str(topic_fixture_path)]
        assert main(base + ["--out", str(lenient)]) == 0
        assert main(base + ["--threshold", "0.99", "--out", str(strict)]) == 0

        def flags(path):
            return [row.rsplit(",", 1)[1] for row in _lines(path)[1:]]

        # the formal demo prose reads as uniformly political at the default
        assert set(flags(lenient)) == {"1"}
        assert set(flags(strict)) == {"0", "1"}

    def test_needs_model_or_topics(self, demo_corpus_dir):
        assert main(["filter-political", "--corpus", str(demo_corpus_dir)]) == 1

    @pytest.mark.parametrize("out", ["file", "-"])
    def test_decisions_stream_until_a_data_error(
        self, demo_corpus_dir, topic_fixture_path, tmp_path, capsys, monkeypatch, out
    ):
        import veritag.political
        from veritag.errors import DataError

        scored = []
        score = veritag.political.apply_political_filter

        def fail_third(*args):
            if len(scored) == 2:
                raise DataError("third page")
            scored.append(1)
            return score(*args)

        monkeypatch.setattr(veritag.political, "apply_political_filter", fail_third)
        path = tmp_path / "decisions.csv"
        assert main(["filter-political", "--corpus", str(demo_corpus_dir), "--topics",
                     str(topic_fixture_path), "--out", str(path) if out == "file" else "-"]) == 2
        written = path.read_bytes().decode() if out == "file" else capsys.readouterr().out
        assert written.split("\r\n")[0] == "doc_id,score,is_political"
        assert len(written.split("\r\n")) == 1 + 2 + 1  # header, two rows, the last "\r\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--model", "{missing}", "--save-model", "{saved}"],
             "filter-political --save-model needs --topics to train a model"),
            (["--model", "{missing}", "--topics", "{missing}"],
             "filter-political takes --model or --topics, not both"),
        ],
        ids=["save-a-loaded-model", "model-and-topics"],
    )
    def test_a_flag_that_would_be_ignored_is_a_usage_error(
        self, tmp_path, caplog, flags, message
    ):
        saved, missing = tmp_path / "saved.bin", tmp_path / "missing"
        flags = [f.format(saved=saved, missing=missing) for f in flags]
        with caplog.at_level("ERROR", logger="veritag"):
            # the missing model, topics and corpus would exit 2 if read first
            assert main(["filter-political", "--corpus", str(missing), *flags,
                         "--out", str(tmp_path / "out.csv")]) == 1
        assert [r.getMessage() for r in caplog.records] == [message]
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def artifacts(demo_corpus_dir, tmp_path_factory):
    """extract -> select -> train -> predict, shared by TestFeatureFlow."""
    root = tmp_path_factory.mktemp("cli-flow")
    paths = {
        "features": root / "features.csv",
        "schema": root / "schema.json",
        "pruned": root / "pruned.json",
        "report": root / "importance.csv",
        "model": root / "model.bin",
        "predictions": root / "predictions.csv",
    }
    assert main(["extract", "--corpus", str(demo_corpus_dir),
                 "--out", str(paths["features"]),
                 "--schema-out", str(paths["schema"])]) == 0
    assert main(["select", "--features", str(paths["features"]),
                 "--schema", str(paths["schema"]),
                 "--out", str(paths["pruned"]),
                 "--report", str(paths["report"])]) == 0
    assert main(["train", "--features", str(paths["features"]),
                 "--schema", str(paths["schema"]),
                 "--out", str(paths["model"])]) == 0
    assert main(["predict", "--model", str(paths["model"]),
                 "--corpus", str(demo_corpus_dir),
                 "--out", str(paths["predictions"])]) == 0
    return paths


# sha256 of the demo corpus feature CSVs with all four groups, recorded
# before the N, L and R groups read one token census: any change to the
# bytes extraction writes fails here
_GOLDEN_FEATURE_DIGESTS = {
    "H": "e9b678cde8e65fa0341e1b8cef97c0059f8bffc0d8731f7180a67c8b212051af",
    "C": "771caafa275e93727adaa04936e22c90b36b260a503fb3d6f9f50582381fa049",
    "HC": "5766cc0a1ea393a98b4c2124211fcc3768e6b18787460e30dbbb69bbb05f68aa",
}


@pytest.mark.parametrize("granularity", sorted(_GOLDEN_FEATURE_DIGESTS))
def test_demo_feature_csv_bytes_are_pinned(demo_corpus_dir, tmp_path, granularity):
    out = tmp_path / "features.csv"
    assert main(["extract", "--corpus", str(demo_corpus_dir), "--granularity", granularity,
                 "--groups", "N,L,R,W", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_FEATURE_DIGESTS[granularity]


# sha256 of the demo predictions of each classifier, trained on the demo
# corpus with default flags, recorded while every model still predicted
# row by row: any change to the bytes prediction writes fails here
_GOLDEN_PREDICTION_DIGESTS = {
    "svm": "93229549939f7a0c9eb0a2a5cdfc6e9596235f32d4cfc861808a7c6fb1e5c16b",
    "knn": "832a52bacc4b787502aeb95716800073866ca6d83b898f8cb6ef8532edbc19a2",
    "rf": "3e4adfa8d93e3fcb2b4a5252ae2986d0ef4c57524a4b0bd666563560dfb3833f",
    "baseline-svm": "332ab3175ef48b92ee62c8ab0d4ce3f3474e604068b6f7f1cc8c176c6f628ab3",
}


@pytest.mark.parametrize("classifier", sorted(_GOLDEN_PREDICTION_DIGESTS))
def test_demo_prediction_bytes_are_pinned(artifacts, demo_corpus_dir, tmp_path, classifier):
    model, out = tmp_path / "model.bin", tmp_path / "predictions.csv"
    source = (["--corpus", str(demo_corpus_dir)] if classifier == "baseline-svm"
              else ["--features", str(artifacts["features"])])
    assert main(["train", "--classifier", classifier, *source, "--out", str(model)]) == 0
    assert main(["predict", "--model", str(model), "--corpus", str(demo_corpus_dir),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_PREDICTION_DIGESTS[classifier]


# sha256 of the demo cv reports of the two classifiers whose predict paths
# are not a dot product, recorded alongside the prediction digests
_GOLDEN_CV_DIGESTS = {
    "knn": "411d3b7adf06c2117370ddb6670733023cfbe24410509b8c04059bb86b13b720",
    "rf": "6acd0aca3897ca6ad82792b9dee5e8fdf5ba23739c245a50e5217ad0adbce894",
}


@pytest.mark.parametrize("classifier", sorted(_GOLDEN_CV_DIGESTS))
def test_demo_cv_report_bytes_are_pinned(demo_corpus_dir, tmp_path, classifier):
    out = tmp_path / "cv.csv"
    assert main(["evaluate", "--protocol", "cv", "--classifier", classifier,
                 "--corpus", str(demo_corpus_dir), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_CV_DIGESTS[classifier]


def test_default_grid_cross_validates_each_distinct_problem_once(
    demo_corpus_dir, tmp_path, monkeypatch
):
    # 5 group sets x 3 granularities x 5 folds, less the W cells at C and
    # HC, which hold the same matrix as the W cell at H; one process, so
    # every call reaches the counter
    calls = []
    train = veritag.models.pipeline.svm_train
    monkeypatch.setattr(veritag.models.pipeline, "svm_train",
                        lambda *args, **kwargs: calls.append(1) or train(*args, **kwargs))
    assert main(["evaluate", "--protocol", "grid", "--corpus", str(demo_corpus_dir),
                 "--jobs", "1", "--out", str(tmp_path / "grid.csv")]) == 0
    assert len(calls) == 65
    assert len(_lines(tmp_path / "grid.csv")) == 2 + 15


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the demo svm model and the select outputs of the shared flow,
# recorded while every grid cell still ran its own cv
_GOLDEN_FLOW_DIGESTS = {
    "model": "c597950ababf23f420bed7e0e8fac463dbdd8c7c3837f1d22b903cdc32bd4ff0",
    "pruned": "443c847b3e28306ea32d5901eca0664a44a3cb4f998f85cd381bbd6278482fd8",
    "report": "55e038a152181cfc1a1b6510715bc712d68558fdc3935126b36f68936819d310",
}


@pytest.mark.parametrize("artifact", sorted(_GOLDEN_FLOW_DIGESTS))
def test_demo_flow_artifact_bytes_are_pinned(artifacts, artifact):
    assert _sha256(artifacts[artifact]) == _GOLDEN_FLOW_DIGESTS[artifact]


# sha256 of the demo grid reports, recorded alongside the flow digests
_GOLDEN_GRID_DIGESTS = {
    "svm": "d678df0a6e8d1c39bb0e25bf793a75f1fea93b74f94ffd84e3e3b5d5616a203f",
    "rf": "1ed93a63e4b48b10365f26876bca9c635f4100ea95260a5687695cbc705ce3c7",
    "baseline-svm": "9ac6023822f4867f764402c69677a73553971e5eaf6797111092340eba4c4d15",
}


@pytest.mark.parametrize("classifier", sorted(_GOLDEN_GRID_DIGESTS))
def test_demo_grid_report_bytes_are_pinned(demo_corpus_dir, tmp_path, classifier):
    out = tmp_path / "grid.csv"
    trees = ["--trees", "7"] if classifier == "rf" else []
    assert main(["evaluate", "--protocol", "grid", "--classifier", classifier, *trees,
                 "--corpus", str(demo_corpus_dir), "--out", str(out)]) == 0
    assert _sha256(out) == _GOLDEN_GRID_DIGESTS[classifier]


# sha256 of the drift corpus temporal reports, recorded alongside the flow digests
_GOLDEN_TEMPORAL_DIGESTS = {
    "svm": "17ab7d4000bf6efd56b417f8d090f4dffbace1476cd9ff9f59205b881bcac793",
    "baseline-svm": "361764e99a103dae3f05668035583f0aa5e55cde08352d2bfe6148d7d9485fa4",
}


@pytest.mark.parametrize("classifier", sorted(_GOLDEN_TEMPORAL_DIGESTS))
def test_drift_temporal_report_bytes_are_pinned(drift_corpus_dir, tmp_path, classifier):
    out = tmp_path / "temporal.csv"
    assert main(["evaluate", "--protocol", "temporal", "--classifier", classifier,
                 "--corpus", str(drift_corpus_dir), "--out", str(out)]) == 0
    assert _sha256(out) == _GOLDEN_TEMPORAL_DIGESTS[classifier]


# sha256 of the drift term report and the demo topic-filter decisions,
# recorded alongside the flow digests
_GOLDEN_TERM_DIGEST = "cfcff96dc12f068081e2d468ccfb9f04a6d2171ef43980bfe8a8b4e73abb4f9b"
_GOLDEN_FILTER_DIGEST = "8caafb6f4d265a9e8b6172b5c8dabf8b30f40bb1a7522651758bec99857f3b2b"


def test_drift_term_report_bytes_are_pinned(drift_corpus_dir, tmp_path):
    out = tmp_path / "terms.csv"
    assert main(["report-terms", "--corpus", str(drift_corpus_dir), "--out", str(out)]) == 0
    assert _sha256(out) == _GOLDEN_TERM_DIGEST


def test_demo_filter_decision_bytes_are_pinned(demo_corpus_dir, topic_fixture_path, tmp_path):
    out = tmp_path / "decisions.csv"
    assert main(["filter-political", "--corpus", str(demo_corpus_dir),
                 "--topics", str(topic_fixture_path), "--out", str(out)]) == 0
    assert _sha256(out) == _GOLDEN_FILTER_DIGEST


# sha256 of the demo models of the other classifiers, the full and the
# paper-pruned demo schemas and the demo-to-drift cross-domain report,
# recorded before the report writers shared one CSV writer
_GOLDEN_MODEL_DIGESTS = {
    "knn": "73b368cb939fae8424376d4c2facdd391daa607c3d075e224e352d554ced1634",
    "rf": "a0dd51a1c018a9e40846b26af0334d3d65394c833854dab3a0c669794ed7a6a5",
    "baseline-svm": "7fec8c4dfa261a94100358a1ce070e2a68933c59e7d90d29089ca8649857751d",
}
_GOLDEN_SCHEMA_DIGESTS = {
    "none": "af3625c60cdc483c1e01cb2c75a53b13354a1def4754f0a1b05acf7c19a3df86",
    "paper": "b36cf7a1ffc433f2083003c4bb28da7feca08d266fcfcfad2361bf1ad1ee3f38",
}
_GOLDEN_CROSS_DOMAIN_DIGEST = "978e68faf2cf235c92845657e44067229ed8688ecb27e1ba7bd98223b5e4780b"


@pytest.mark.parametrize("classifier", sorted(_GOLDEN_MODEL_DIGESTS))
def test_demo_model_bytes_are_pinned(artifacts, demo_corpus_dir, tmp_path, classifier):
    model = tmp_path / "model.bin"
    source = (["--corpus", str(demo_corpus_dir)] if classifier == "baseline-svm"
              else ["--features", str(artifacts["features"])])
    assert main(["train", "--classifier", classifier, *source, "--out", str(model)]) == 0
    assert _sha256(model) == _GOLDEN_MODEL_DIGESTS[classifier]


@pytest.mark.parametrize("pruning", sorted(_GOLDEN_SCHEMA_DIGESTS))
def test_demo_schema_bytes_are_pinned(demo_corpus_dir, tmp_path, pruning):
    schema = tmp_path / "schema.json"
    assert main(["extract", "--corpus", str(demo_corpus_dir), "--pruning", pruning,
                 "--out", str(tmp_path / "features.csv"), "--schema-out", str(schema)]) == 0
    assert _sha256(schema) == _GOLDEN_SCHEMA_DIGESTS[pruning]


def test_cross_domain_report_bytes_are_pinned(demo_corpus_dir, drift_corpus_dir, tmp_path):
    out = tmp_path / "cross.csv"
    assert main(["evaluate", "--protocol", "cross-domain", "--corpus", str(demo_corpus_dir),
                 "--test-corpus", str(drift_corpus_dir), "--out", str(out)]) == 0
    assert _sha256(out) == _GOLDEN_CROSS_DOMAIN_DIGEST


# sha256 of the stdout of the three subcommands that stream a CSV there,
# recorded with the cross-domain digest; report-terms writes no config line
_GOLDEN_STDOUT_DIGESTS = {
    "predict": "93229549939f7a0c9eb0a2a5cdfc6e9596235f32d4cfc861808a7c6fb1e5c16b",
    "filter-political": "8caafb6f4d265a9e8b6172b5c8dabf8b30f40bb1a7522651758bec99857f3b2b",
    "report-terms": "b4c41426b6ae1fc7f74c67df6a0dc628c9f0fdfbb7d524d478c87c6fbed4b408",
}


@pytest.mark.parametrize("command", sorted(_GOLDEN_STDOUT_DIGESTS))
def test_stdout_csv_bytes_are_pinned(
    artifacts, demo_corpus_dir, drift_corpus_dir, topic_fixture_path, capsys, command
):
    argv = {
        "predict": ["predict", "--model", str(artifacts["model"]),
                    "--corpus", str(demo_corpus_dir), "--out", "-"],
        "filter-political": ["filter-political", "--corpus", str(demo_corpus_dir),
                             "--topics", str(topic_fixture_path), "--out", "-"],
        "report-terms": ["report-terms", "--corpus", str(drift_corpus_dir)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == _GOLDEN_STDOUT_DIGESTS[command]


class TestFeatureFlow:
    def test_extract_writes_labeled_matrix(self, artifacts):
        header = _lines(artifacts["features"])[0].split(",")
        assert header[0] == "doc_id"
        assert header[-1] == "label"
        assert len(header) == 2 + 97  # doc_id + features + label
        assert len(_lines(artifacts["features"])) == 1 + 40

    def test_schema_out_round_trips(self, artifacts):
        payload = json.loads(artifacts["schema"].read_text(encoding="utf-8"))
        assert payload["granularity"] == "HC"
        assert len(payload["names"]) == 97

    def test_select_retains_a_strict_subset(self, artifacts):
        full = json.loads(artifacts["schema"].read_text(encoding="utf-8"))["names"]
        pruned = json.loads(artifacts["pruned"].read_text(encoding="utf-8"))["names"]
        assert 0 < len(pruned) < len(full)
        assert set(pruned) <= set(full)
        report_header = _lines(artifacts["report"])[0]
        assert report_header.startswith("feature,se_raw,tb_raw")

    def test_predictions_cover_corpus_with_known_labels(self, artifacts):
        header, *rows = _lines(artifacts["predictions"])
        assert header == "doc_id,predicted_label,score"
        assert len(rows) == 40
        labels = {row.split(",")[1] for row in rows}
        assert labels <= {"reliable", "unreliable"}

    def test_model_predicts_demo_labels_correctly(self, artifacts, demo_docs):
        truth = {d.id: d.label for d in demo_docs}
        rows = _lines(artifacts["predictions"])[1:]
        predicted = {r.split(",")[0]: r.split(",")[1] for r in rows}
        agreement = sum(predicted[i] == truth[i] for i in truth) / len(truth)
        assert agreement == 1.0  # training set, fully separable

    def test_rerun_is_byte_identical(self, artifacts, demo_corpus_dir, tmp_path):
        features2 = tmp_path / "features2.csv"
        model2 = tmp_path / "model2.bin"
        assert main(["extract", "--corpus", str(demo_corpus_dir),
                     "--out", str(features2)]) == 0
        assert features2.read_bytes() == artifacts["features"].read_bytes()
        assert main(["train", "--features", str(features2),
                     "--schema", str(artifacts["schema"]),
                     "--out", str(model2)]) == 0
        assert model2.read_bytes() == artifacts["model"].read_bytes()

    def test_jobs_flag_never_changes_output(self, demo_corpus_dir, tmp_path):
        reports = []
        for jobs in ("1", "3"):
            report = tmp_path / f"cv-j{jobs}.csv"
            assert main(["evaluate", "--protocol", "cv", "--corpus", str(demo_corpus_dir),
                         "--jobs", jobs, "--out", str(report)]) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_schema_projects_a_superset_csv(self, artifacts, demo_corpus_dir, tmp_path):
        pruned = str(artifacts["pruned"])
        selected = tmp_path / "selected-features.csv"
        assert main(["extract", "--corpus", str(demo_corpus_dir),
                     "--schema", pruned, "--out", str(selected)]) == 0
        outputs = {}
        for source in ("selected", "full"):
            features = selected if source == "selected" else artifacts["features"]
            model, schema = tmp_path / f"{source}.bin", tmp_path / f"{source}.json"
            assert main(["train", "--features", str(features), "--schema", pruned,
                         "--out", str(model)]) == 0
            assert main(["select", "--features", str(features), "--schema", pruned,
                         "--out", str(schema)]) == 0
            names = json.loads(schema.read_text(encoding="utf-8"))["names"]
            outputs[source] = (model.read_bytes(), names)
        assert outputs["full"] == outputs["selected"]

    def test_select_output_does_not_depend_on_the_features_path(
        self, artifacts, demo_corpus_dir, tmp_path
    ):
        outputs = []
        for features in (tmp_path / "a" / "features.csv", tmp_path / "b" / "renamed.csv"):
            features.parent.mkdir()
            features.write_bytes(artifacts["features"].read_bytes())
            schema, model = features.parent / "schema.json", features.parent / "model.bin"
            assert main(["select", "--features", str(features),
                         "--schema", str(artifacts["schema"]), "--out", str(schema)]) == 0
            assert main(["train", "--features", str(features), "--schema", str(schema),
                         "--out", str(model)]) == 0
            outputs.append((schema.read_bytes(), model.read_bytes()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["pruning"] == "computed:"
        # schemas written when the mode still carried the features path load
        legacy = tmp_path / "legacy.json"
        payload = json.loads(outputs[0][0])
        payload["pruning"] = "computed:" + str(artifacts["features"])
        legacy.write_text(json.dumps(payload), encoding="utf-8")
        model = tmp_path / "legacy.bin"
        assert main(["train", "--features", str(artifacts["features"]), "--schema", str(legacy),
                     "--out", str(model)]) == 0
        assert main(["predict", "--model", str(model), "--corpus", str(demo_corpus_dir),
                     "--out", str(tmp_path / "legacy.csv")]) == 0

    @pytest.mark.parametrize("command", ["train", "select"])
    @pytest.mark.parametrize(
        "header, column",
        [("doc_id,a,label", "a"), ("doc_id,N.DT,X.Y,label", "X.Y"),
         ("doc_id,N,label", "N"), ("doc_id,N.,label", "N."), ("doc_id,R.W,R.W,label", "R.W")],
        ids=["no-group", "unknown-group", "no-name", "empty-name", "twice"],
    )
    def test_bad_feature_column_is_a_data_error(self, tmp_path, caplog, command, header, column):
        features = tmp_path / "features.csv"
        width = header.count(",") - 1
        features.write_text(
            header + "\n" + "d1," + "0.5," * width + "1\n" + "d2," + "1.5," * width + "0\n",
            encoding="utf-8",
        )
        with caplog.at_level("ERROR", logger="veritag"):
            assert main([command, "--features", str(features),
                         "--out", str(tmp_path / "out")]) == 2
        assert [r.levelname for r in caplog.records] == ["ERROR"]
        assert str(features) in caplog.text and repr(column) in caplog.text

    @pytest.mark.parametrize("command", ["train", "select"])
    def test_a_feature_file_without_feature_columns_is_a_data_error(
        self, tmp_path, caplog, command
    ):
        features = tmp_path / "features.csv"
        features.write_text("doc_id,label\nd1,1\nd2,0\n", encoding="utf-8")
        with caplog.at_level("ERROR", logger="veritag"):
            assert main([command, "--features", str(features),
                         "--out", str(tmp_path / "out")]) == 2
        assert caplog.text.count("ERROR") == 1 and "no feature columns" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "select"])
    def test_schema_naming_a_missing_column_is_a_data_error(
        self, artifacts, demo_corpus_dir, tmp_path, command
    ):
        features = tmp_path / "readability.csv"
        assert main(["extract", "--corpus", str(demo_corpus_dir),
                     "--groups", "R", "--out", str(features)]) == 0
        assert main([command, "--features", str(features),
                     "--schema", str(artifacts["schema"]),
                     "--out", str(tmp_path / "out")]) == 2

    def test_paper_pruning_shrinks_the_schema(self, demo_corpus_dir, tmp_path):
        out = tmp_path / "features.csv"
        schema_out = tmp_path / "schema.json"
        assert main(["extract", "--corpus", str(demo_corpus_dir),
                     "--pruning", "paper", "--out", str(out),
                     "--schema-out", str(schema_out)]) == 0
        names = json.loads(schema_out.read_text(encoding="utf-8"))["names"]
        assert len(names) < 97
        assert "N.DT" not in names  # pruned at HC granularity
        markup = {n.split(".", 1)[1] for n in names if n.startswith("W.")}
        assert markup == {"IT", "AVT", "AU", "LKT", "ADS", "ST", "BT"}

    def test_train_needs_features_for_tag_classifiers(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "model.bin")]) == 1

    def test_train_baseline_needs_corpus(self, tmp_path):
        assert main(["train", "--classifier", "baseline-svm",
                     "--out", str(tmp_path / "model.bin")]) == 1

    def test_baseline_trains_from_pages(self, demo_corpus_dir, tmp_path):
        model = tmp_path / "baseline.bin"
        out = tmp_path / "pred.csv"
        assert main(["train", "--classifier", "baseline-svm",
                     "--corpus", str(demo_corpus_dir), "--out", str(model)]) == 0
        assert main(["predict", "--model", str(model),
                     "--corpus", str(demo_corpus_dir), "--out", str(out)]) == 0
        assert len(_lines(out)) == 1 + 40

    def test_predict_to_stdout(self, artifacts, demo_corpus_dir, capsys):
        assert main(["predict", "--model", str(artifacts["model"]),
                     "--corpus", str(demo_corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "doc_id,predicted_label,score"


def _forbid_page_parsing(monkeypatch):
    """Make every page parse in the package raise, wherever it is bound."""
    import veritag.markup

    def parse_html(html):
        raise AssertionError("a page was parsed")

    original = veritag.markup.parse_html
    for name, module in list(sys.modules.items()):
        if name == "veritag" or name.startswith("veritag."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, parse_html)


class TestMalformedInputFiles:
    @pytest.mark.parametrize("fields", [
        {"id": ["x"], "url": {"u": 1}}, {"site": 1}, {"html_path": None}, {"year": True},
    ], ids=["id-and-url", "site", "html-path", "year"])
    def test_manifest_field_of_another_json_type_is_a_data_error(
        self, tmp_path, caplog, fields
    ):
        """No field is passed through ``str()``, and a bool is no year, even
        under a year range that holds 1."""
        record = {"id": "x", "url": "https://a.example/x", "site": "a.example",
                  "label": "reliable", "year": 1, "html_path": "x.html"}
        (tmp_path / "site_labels.json").write_text('{"a.example": "reliable"}', encoding="utf-8")
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(record) + "\n" + json.dumps({**record, "id": "y", **fields})
                            + "\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text('{"year_range": [0, 3]}', encoding="utf-8")
        with caplog.at_level("ERROR", logger="veritag"):
            assert main(["ingest", "--config", str(config), "--corpus", str(tmp_path)]) == 2
        assert f"{manifest}:2: " in _one_error(caplog)

    @pytest.mark.parametrize("command", ["ingest", "extract"])
    def test_page_outside_the_corpus_is_a_data_error(self, tmp_path, caplog, command):
        (tmp_path / "outside.html").write_text("<p>outside</p>", encoding="utf-8")
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "site_labels.json").write_text('{"a.example": "reliable"}', encoding="utf-8")
        manifest = corpus / "manifest.jsonl"
        manifest.write_text(json.dumps({
            "id": "x", "url": "https://a.example/x", "site": "a.example", "label": "reliable",
            "year": 2016, "html_path": "../outside.html",
        }) + "\n", encoding="utf-8")
        args = [command, "--corpus", str(corpus)]
        if command == "extract":
            args += ["--out", str(tmp_path / "features.csv")]
        with caplog.at_level("ERROR", logger="veritag"):
            assert main(args) == 2
        assert f"{manifest}:1: html_path" in _one_error(caplog)

    @pytest.mark.parametrize("fields", [
        {"text": ["the vote"]}, {"text": None}, {"topic": 1}, {"topic": {"politics": 1}},
    ], ids=["text-list", "text-null", "topic-number", "topic-object"])
    def test_topic_record_of_another_json_type_is_a_data_error(
        self, demo_corpus_dir, tmp_path, caplog, fields
    ):
        record = {"text": "the senate passed the vote", "topic": "politics"}
        topics, out = tmp_path / "topics.jsonl", tmp_path / "decisions.csv"
        topics.write_text(json.dumps(record) + "\n" + json.dumps({**record, **fields}) + "\n",
                          encoding="utf-8")
        with caplog.at_level("ERROR", logger="veritag"):
            assert main(["filter-political", "--corpus", str(demo_corpus_dir), "--topics",
                         str(topics), "--out", str(out)]) == 2
        assert f"{topics}:2: " in _one_error(caplog)
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload", ["[]", '{"format_version": 1}', "[" * 100_000],
        ids=["list", "no-names", "deeply-nested"],
    )
    def test_malformed_schema_is_a_data_error(self, demo_corpus_dir, tmp_path, payload):
        schema = tmp_path / "schema.json"
        schema.write_text(payload, encoding="utf-8")
        assert main(["extract", "--corpus", str(demo_corpus_dir), "--schema", str(schema),
                     "--out", str(tmp_path / "features.csv")]) == 2

    @pytest.mark.parametrize(
        "payload", ["[]", '{"kind": "political-filter", "format_version": 1}'],
        ids=["list", "no-classes"],
    )
    def test_malformed_filter_model_is_a_data_error(self, demo_corpus_dir, tmp_path, payload):
        model = tmp_path / "filter.json"
        model.write_text(payload, encoding="utf-8")
        assert main(["filter-political", "--corpus", str(demo_corpus_dir), "--model", str(model),
                     "--out", str(tmp_path / "decisions.csv")]) == 2

    @pytest.mark.parametrize("command", ["extract", "train", "select"])
    def test_schema_with_no_names_is_a_data_error(self, artifacts, demo_corpus_dir, tmp_path,
                                                  caplog, command):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"format_version": 1, "names": [], "granularity": "HC",
                                      "groups": ["N"]}), encoding="utf-8")
        source = (["--corpus", str(demo_corpus_dir)] if command == "extract"
                  else ["--features", str(artifacts["features"])])
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="veritag"):
            assert main([command, *source, "--schema", str(schema), "--out", str(out)]) == 2
        assert str(schema) in _one_error(caplog)
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m["idf"].update({next(iter(m["idf"])): math.nan}),
            lambda m: next(iter(m["feature_log_likelihoods"].values())).update(politics=True),
            lambda m: next(iter(m["feature_log_likelihoods"].values())).update(
                celebrity=-math.inf),
            lambda m: m["feature_log_likelihoods"].pop(next(iter(m["idf"]))),
            lambda m: next(iter(m["feature_log_likelihoods"].values())).pop("celebrity"),
            lambda m: m["classes"].clear(),
            lambda m: m["classes"].append("weather"),
            # a model as one trained on topics without politics would be
            lambda m: m.update(json.loads(json.dumps(m).replace('"politics"', '"news"'))),
            lambda m: m["vocabulary"].clear(),
        ],
        ids=["idf-nan", "likelihood-bool", "likelihood-infinity", "term-without-likelihoods",
             "term-lacking-a-class", "no-classes", "class-without-prior", "no-politics-class",
             "empty-vocabulary"],
    )
    def test_filter_model_is_checked_before_any_page(self, demo_corpus_dir, topic_fixture_path,
                                                      tmp_path, caplog, monkeypatch, edit):
        model = tmp_path / "filter.json"
        assert main(["filter-political", "--corpus", str(demo_corpus_dir), "--topics",
                     str(topic_fixture_path), "--save-model", str(model),
                     "--out", str(tmp_path / "trained.csv")]) == 0
        payload = json.loads(model.read_text(encoding="utf-8"))
        edit(payload)
        model.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "decisions.csv"
        _forbid_page_parsing(monkeypatch)
        with caplog.at_level("ERROR", logger="veritag"):
            assert main(["filter-political", "--corpus", str(demo_corpus_dir), "--model",
                         str(model), "--out", str(out)]) == 2
        assert str(model) in _one_error(caplog)
        assert not out.exists()

    def test_topics_without_politics_are_refused_before_any_page(
        self, demo_corpus_dir, tmp_path, caplog, monkeypatch
    ):
        topics = tmp_path / "topics.jsonl"
        topics.write_text(
            '{"text": "the senate passed the vote", "topic": "weather"}\n'
            '{"text": "the singer released an album", "topic": "celebrity"}\n',
            encoding="utf-8",
        )
        model, out = tmp_path / "filter.json", tmp_path / "decisions.csv"
        _forbid_page_parsing(monkeypatch)
        with caplog.at_level("ERROR", logger="veritag"):
            assert main(["filter-political", "--corpus", str(demo_corpus_dir), "--topics",
                         str(topics), "--save-model", str(model), "--out", str(out)]) == 2
        assert str(topics) in _one_error(caplog)
        assert not model.exists() and not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("command", ["train", "select"])
    def test_non_finite_feature_value_is_a_data_error(self, tmp_path, caplog, command, value):
        features = tmp_path / "features.csv"
        features.write_text(f"doc_id,R.FK,label\na,1.0,0\nb,{value},1\n", encoding="utf-8")
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="veritag"):
            assert main([command, "--features", str(features), "--out", str(out)]) == 2
        assert f"{features}:3: " in _one_error(caplog)
        assert not out.exists()

    @pytest.mark.parametrize("classifier", ["svm", "knn", "rf"])
    def test_a_label_other_than_0_or_1_is_a_data_error(self, tmp_path, caplog, classifier):
        features = tmp_path / "features.csv"
        features.write_text("doc_id,R.FK,label\na,1.0,0\nb,2.0,2\n", encoding="utf-8")
        model = tmp_path / "model.json"
        with caplog.at_level("ERROR", logger="veritag"):
            assert main(["train", "--classifier", classifier, "--features", str(features),
                         "--out", str(model)]) == 2
        assert f"{features}:3: label 2 is not 0 or 1" in _one_error(caplog)
        assert not model.exists()

    def test_deeply_nested_model_is_a_data_error(self, demo_corpus_dir, tmp_path, caplog):
        model = tmp_path / "model.bin"
        model.write_text("[" * 100_000, encoding="utf-8")
        with caplog.at_level("ERROR", logger="veritag"):
            assert main(["predict", "--model", str(model), "--corpus", str(demo_corpus_dir),
                         "--out", str(tmp_path / "predictions.csv")]) == 2
        assert "corrupt model file" in caplog.text

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["extract", "--schema", "{bad}"], 2),
            (["predict", "--model", "{bad}"], 2),
            (["extract", "--config", "{bad}"], 1),
            (["extract", "--dictionary", "{bad}"], 2),
            (["extract", "--ad-domains", "{bad}"], 2),
            (["filter-political", "--model", "{bad}"], 2),
            (["filter-political", "--topics", "{bad}"], 2),
            (["filter-political", "--topics", "{missing}"], 2),
            (["train", "--features", "{bad}"], 2),
            (["train", "--features", "{missing}"], 2),
            (["select", "--features", "{bad}"], 2),
            (["select", "--features", "{missing}"], 2),
        ],
        ids=["schema", "model", "config", "dictionary", "ad-domains", "filter-model",
             "topics", "missing-topics", "train-features", "train-missing-features",
             "select-features", "select-missing-features"],
    )
    def test_unreadable_input_file_is_one_clean_error(
        self, demo_corpus_dir, tmp_path, caplog, argv, code
    ):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"doc_id,\xff\xfe{}")
        paths = {"bad": bad, "missing": tmp_path / "absent"}
        argv = [a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out")]
        if argv[0] not in ("select", "train"):
            argv += ["--corpus", str(demo_corpus_dir)]
        with caplog.at_level("ERROR", logger="veritag"):
            assert main(argv) == code
        assert [r.levelname for r in caplog.records] == ["ERROR"]

    @pytest.mark.parametrize("name", ["manifest.jsonl", "site_labels.json"])
    def test_non_utf8_corpus_file_is_a_data_error(self, demo_corpus_dir, tmp_path, caplog, name):
        corpus = tmp_path / "corpus"
        shutil.copytree(demo_corpus_dir, corpus)
        with (corpus / name).open("ab") as fh:
            fh.write(b"\xff\n")
        with caplog.at_level("ERROR", logger="veritag"):
            assert main(["ingest", "--corpus", str(corpus)]) == 2
        assert [r.levelname for r in caplog.records] == ["ERROR"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["extract"],
            ["evaluate", "--protocol", "cv", "--folds", "2"],
            ["evaluate", "--protocol", "grid"],
            ["predict", "--model", "{missing}"],
            ["train", "--classifier", "baseline-svm"],
            ["sample", "--cap", "1"],
            ["report-terms"],
            ["filter-political", "--topics", "{missing}"],
        ],
        ids=["extract", "evaluate", "grid", "predict", "train-baseline", "sample",
             "report-terms", "filter-political"],
    )
    def test_out_in_a_missing_directory_exits_1(
        self, demo_corpus_dir, tmp_path, caplog, monkeypatch, argv
    ):
        _forbid_page_parsing(monkeypatch)
        out = tmp_path / "absent" / "out.csv"
        argv = [a.format(missing=tmp_path / "missing") for a in argv]
        with caplog.at_level("ERROR", logger="veritag"):
            assert main([*argv, "--corpus", str(demo_corpus_dir), "--out", str(out)]) == 1
        assert [r.levelname for r in caplog.records] == ["ERROR"]
        assert str(out) in caplog.text
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["extract", "--out", "{ok}", "--corpus", "{corpus}"], "--schema-out"),
            (["select", "--features", "{missing}", "--out", "{ok}"], "--report"),
            (["select", "--features", "{missing}", "--report", "{ok}"], "--out"),
            (["train", "--features", "{missing}"], "--out"),
            (["filter-political", "--topics", "{missing}", "--corpus", "{corpus}"],
             "--save-model"),
        ],
        ids=["schema-out", "report", "select-out", "train-out", "save-model"],
    )
    @pytest.mark.parametrize("fault", ["missing-directory", "is-a-directory", "file-as-directory"])
    def test_unwritable_output_fails_before_any_input_is_read(
        self, demo_corpus_dir, tmp_path, caplog, monkeypatch, argv, flag, fault
    ):
        _forbid_page_parsing(monkeypatch)
        (tmp_path / "file").write_text("keep", encoding="utf-8")
        bad = {
            "missing-directory": tmp_path / "absent" / "out",
            "is-a-directory": tmp_path,
            "file-as-directory": tmp_path / "file" / "out",
        }[fault]
        ok = tmp_path / "ok.csv"
        argv = [a.format(missing=tmp_path / "missing", ok=ok, corpus=demo_corpus_dir)
                for a in argv]
        with caplog.at_level("ERROR", logger="veritag"):
            # the missing input would exit 2 if it were read first
            assert main([*argv, flag, str(bad)]) == 1
        assert [r.levelname for r in caplog.records] == ["ERROR"]
        assert "cannot write output" in caplog.text and str(bad) in caplog.text
        assert not ok.exists()
        assert (tmp_path / "file").read_text(encoding="utf-8") == "keep"

    @pytest.mark.parametrize(
        "argv",
        [
            ["extract", "--corpus", "{corpus}", "--out", "-"],
            ["extract", "--corpus", "{corpus}", "--out", "{ok}", "--schema-out", "-"],
            ["select", "--features", "{missing}", "--out", "-", "--report", "-"],
            ["select", "--features", "{missing}", "--out", "{ok}", "--report", "-"],
            ["train", "--features", "{missing}", "--out", "-"],
            ["sample", "--corpus", "{corpus}", "--cap", "1", "--out", "-"],
            ["evaluate", "--protocol", "cv", "--corpus", "{corpus}", "--out", "-"],
            ["filter-political", "--topics", "{missing}", "--corpus", "{corpus}",
             "--save-model", "-"],
        ],
        ids=["extract-out", "schema-out", "select-out-and-report", "report", "train-out",
             "sample-out", "evaluate-out", "save-model"],
    )
    def test_dash_is_stdout_only_for_a_streaming_out(
        self, demo_corpus_dir, tmp_path, caplog, monkeypatch, argv
    ):
        _forbid_page_parsing(monkeypatch)
        monkeypatch.chdir(tmp_path)
        argv = [a.format(missing=tmp_path / "missing", ok=tmp_path / "ok.csv",
                         corpus=demo_corpus_dir) for a in argv]
        with caplog.at_level("ERROR", logger="veritag"):
            # the missing input would exit 2 if it were read first
            assert main(argv) == 1
        assert [r.levelname for r in caplog.records] == ["ERROR"]
        assert "cannot be - (stdout)" in caplog.text
        assert list(tmp_path.iterdir()) == []  # no file named "-", nothing else

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["extract", "--corpus", "{corpus}", "--out", "{out}"], "--schema-out"),
            (["select", "--features", "{missing}", "--out", "{out}"], "--report"),
            (["filter-political", "--topics", "{missing}", "--corpus", "{corpus}",
              "--out", "{out}"], "--save-model"),
        ],
        ids=["extract", "select", "filter-political"],
    )
    @pytest.mark.parametrize("spelling", ["same", "relative", "through-a-symlink"])
    def test_two_outputs_naming_one_file_is_a_usage_error(
        self, demo_corpus_dir, tmp_path, caplog, monkeypatch, argv, flag, spelling
    ):
        _forbid_page_parsing(monkeypatch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link").symlink_to(tmp_path)
        out = tmp_path / "out.csv"
        other = {"same": str(out), "relative": "out.csv",
                 "through-a-symlink": str(tmp_path / "link" / "out.csv")}[spelling]
        argv = [a.format(missing=tmp_path / "missing", out=out, corpus=demo_corpus_dir)
                for a in argv]
        with caplog.at_level("ERROR", logger="veritag"):
            assert main([*argv, flag, other]) == 1
        assert [r.getMessage() for r in caplog.records] == [f"--out and {flag} both name {other}"]
        assert [p.name for p in tmp_path.iterdir()] == ["link"]

    @pytest.mark.parametrize(
        "argv",
        [["predict", "--model", "{model}"], ["filter-political", "--topics", "{topics}"],
         ["report-terms"]],
        ids=["predict", "filter-political", "report-terms"],
    )
    def test_dash_out_streams_to_stdout(
        self, artifacts, demo_corpus_dir, topic_fixture_path, tmp_path, capsys, monkeypatch, argv
    ):
        monkeypatch.chdir(tmp_path)
        argv = [a.format(model=artifacts["model"], topics=topic_fixture_path) for a in argv]
        assert main([*argv, "--corpus", str(demo_corpus_dir), "--out", "-"]) == 0
        assert len(capsys.readouterr().out.splitlines()) > 1
        assert list(tmp_path.iterdir()) == []


def _one_error(caplog):
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1, errors
    return errors[0]


class TestUnextractableSchemaName:
    """A schema from a file or a model that names a feature extraction does
    not make is a data error before any page is parsed."""

    def test_extract_schema_with_an_unknown_name(self, demo_corpus_dir, tmp_path, caplog,
                                                 monkeypatch):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"format_version": 1, "names": ["N.NN", "N.ZZZ"],
                                      "granularity": "HC", "groups": ["N"]}), encoding="utf-8")
        _forbid_page_parsing(monkeypatch)
        with caplog.at_level("ERROR", logger="veritag"):
            assert main(["extract", "--corpus", str(demo_corpus_dir), "--schema", str(schema),
                         "--out", str(tmp_path / "features.csv")]) == 2
        message = _one_error(caplog)
        assert str(schema) in message and "'N.ZZZ'" in message

    def test_predict_with_another_dictionary(self, artifacts, demo_corpus_dir, tmp_path, caplog,
                                             monkeypatch):
        other = tmp_path / "other.dic"
        other.write_text("%\n1\tXX.other\n%\nword\t1\n", encoding="utf-8")
        out = tmp_path / "predictions.csv"
        _forbid_page_parsing(monkeypatch)
        with caplog.at_level("ERROR", logger="veritag"):
            assert main(["predict", "--model", str(artifacts["model"]), "--corpus",
                         str(demo_corpus_dir), "--dictionary", str(other),
                         "--out", str(out)]) == 2
        message = _one_error(caplog)
        assert str(artifacts["model"]) in message and "'L." in message
        assert not out.exists()


_NOT_GROUP_NAME = pytest.mark.parametrize("name", ["N.", "N", "X.y"])


class TestOneFeatureNameRule:
    """A feature name that is not GROUP.NAME, with GROUP one of the schema's
    groups and NAME not empty, is exit 2 naming its file, whether it comes
    from a schema file, a model's schema or a CSV header (without --schema:
    ``test_bad_feature_column_is_a_data_error``)."""

    @pytest.mark.parametrize("command", ["train", "select"])
    @_NOT_GROUP_NAME
    def test_schema_file_naming_a_column(self, tmp_path, caplog, command, name):
        features = tmp_path / "features.csv"
        features.write_text(
            f"doc_id,{name},R.W,label\n"
            + "".join(f"d{i},{i % 4}.5,{i},{i % 2}\n" for i in range(12)),
            encoding="utf-8",
        )
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"format_version": 1, "names": [name, "R.W"],
                                      "granularity": "HC", "groups": ["N", "R"]}),
                          encoding="utf-8")
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="veritag"):
            assert main([command, "--features", str(features), "--schema", str(schema),
                         "--out", str(out)]) == 2
        message = _one_error(caplog)
        assert str(schema) in message and repr(name) in message
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "select"])
    def test_csv_header_under_a_schema(self, tmp_path, caplog, command):
        # the header is held to the rule with --schema too: the projection
        # would otherwise take one of the two columns named R.W
        features = tmp_path / "features.csv"
        features.write_text(
            "doc_id,R.W,R.W,label\n"
            + "".join(f"d{i},{i % 4}.5,{-i},{i % 2}\n" for i in range(12)),
            encoding="utf-8",
        )
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"format_version": 1, "names": ["R.W"],
                                      "granularity": "HC", "groups": ["R"]}),
                          encoding="utf-8")
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="veritag"):
            assert main([command, "--features", str(features), "--schema", str(schema),
                         "--out", str(out)]) == 2
        message = _one_error(caplog)
        assert str(features) in message and "'R.W' appears twice" in message
        assert not out.exists()

    @_NOT_GROUP_NAME
    def test_extract_schema(self, demo_corpus_dir, tmp_path, caplog, monkeypatch, name):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"format_version": 1, "names": ["N.NN", name],
                                      "granularity": "HC", "groups": ["N"]}), encoding="utf-8")
        _forbid_page_parsing(monkeypatch)
        with caplog.at_level("ERROR", logger="veritag"):
            assert main(["extract", "--corpus", str(demo_corpus_dir), "--schema", str(schema),
                         "--out", str(tmp_path / "features.csv")]) == 2
        message = _one_error(caplog)
        assert str(schema) in message and repr(name) in message

    @_NOT_GROUP_NAME
    def test_model_schema(self, artifacts, demo_corpus_dir, tmp_path, caplog, monkeypatch,
                          name):
        from veritag.models.pipeline import _hash_json

        schema = json.loads(artifacts["model"].read_text(encoding="utf-8"))["payload"]["schema"]
        names = [name, *schema["names"][1:]]
        model = tmp_path / "model.bin"
        # the schema hash matches the edited names, so only the name rule can refuse them
        _edit_model(artifacts["model"], model, _set(("schema", "names"), names),
                    _hash_json([names, schema["granularity"], schema["groups"]]))
        out = tmp_path / "predictions.csv"
        _forbid_page_parsing(monkeypatch)
        with caplog.at_level("ERROR", logger="veritag"):
            assert main(["predict", "--model", str(model), "--corpus", str(demo_corpus_dir),
                         "--out", str(out)]) == 2
        message = _one_error(caplog)
        assert str(model) in message and repr(name) in message
        assert not out.exists()


def _edit_model(source, target, edit, schema_hash=None):
    """Copy a model file with ``edit`` applied to its payload and the
    checksum recomputed, so that only the payload checks can refuse it.
    A ``schema_hash``, when given, replaces the file's."""
    body = json.loads(source.read_text(encoding="utf-8"))
    del body["checksum"]
    body["payload"] = edit(body["payload"])
    if schema_hash is not None:
        body["schema_hash"] = schema_hash
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body["checksum"] = hashlib.sha256(canonical).hexdigest()
    target.write_text(json.dumps(body), encoding="utf-8")


class _Deadline(BaseException):
    """Raised by an alarm; not an ``Exception``, so ``main`` cannot catch it."""


def _without(key):
    return lambda payload: {k: v for k, v in payload.items() if k != key}


def _set(path, value):
    """An edit that sets the payload field at ``path`` (keys and indexes)."""
    def edit(payload):
        node = payload
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        return payload
    return edit


def _set_first_split(**fields):
    """An edit of the first split node of the forest's first tree."""
    def edit(payload):
        tree = payload["classifier"]["trees"][0]
        node = next(i for i, f in enumerate(tree["feature"]) if f >= 0)
        for key, value in fields.items():
            tree[key][node] = node if value == "self" else value
        return payload
    return edit


class TestMalformedModelPayload:
    """A model file whose checksum holds but whose payload is malformed is
    a data error naming the file, never an internal error or a hang."""

    @pytest.fixture(scope="class")
    def rf_model(self, artifacts, tmp_path_factory):
        model = tmp_path_factory.mktemp("rf") / "rf.bin"
        assert main(["train", "--classifier", "rf", "--trees", "3",
                     "--features", str(artifacts["features"]), "--out", str(model)]) == 0
        return model

    @pytest.mark.parametrize(
        "classifier, edit",
        [
            ("svm", _without("standardizer")),
            ("svm", _set(["classifier", "weights"], "oops")),
            ("svm", lambda payload: []),
            ("svm", _set(["kind"], "weird")),
            ("svm", _set(["schema", "granularity"], "X")),
            ("svm", _set(["schema", "names"], [])),
            ("rf", _set_first_split(feature=10**6)),
            ("rf", _set_first_split(left="self", right="self")),
        ],
        ids=["no-standardizer", "weights-string", "payload-list", "kind-weird",
             "granularity-X", "schema-no-names", "rf-feature-out-of-range",
             "rf-node-its-own-child"],
    )
    def test_predict_refuses_the_model(self, artifacts, rf_model, demo_corpus_dir, tmp_path,
                                       caplog, classifier, edit):
        source = artifacts["model"] if classifier == "svm" else rf_model
        model = tmp_path / "model.bin"
        _edit_model(source, model, edit)

        def expire(signum, frame):
            raise _Deadline("predict did not finish in 20 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(20)
        try:
            with caplog.at_level("ERROR", logger="veritag"):
                code = main(["predict", "--model", str(model), "--corpus",
                             str(demo_corpus_dir), "--out", str(tmp_path / "out.csv")])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2
        assert str(model) in _one_error(caplog)


class TestRepeatedGroups:
    """A feature group named twice is a usage error, from --groups or a
    config file (--group-sets: TestIgnoredFlags)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--protocol", "cv", "--groups", "R,R"],
            ["evaluate", "--protocol", "cv", "--config", "{config}"],
            ["extract", "--groups", "N,R,N"],
        ],
        ids=["groups-flag", "groups-config", "extract-groups"],
    )
    def test_repeated_group_is_refused(self, demo_corpus_dir, tmp_path, caplog, argv):
        config = tmp_path / "run.json"
        config.write_text('{"groups": ["R", "R"]}', encoding="utf-8")
        out = tmp_path / "out.csv"
        argv = [a.format(config=config) for a in argv]
        with caplog.at_level("ERROR", logger="veritag"):
            assert main([*argv, "--corpus", str(demo_corpus_dir), "--out", str(out)]) == 1
        assert "twice" in _one_error(caplog)
        assert not out.exists()


class TestEmptyCorpus:
    """A corpus whose manifest lists no page."""

    @pytest.fixture
    def empty_corpus(self, demo_corpus_dir, tmp_path):
        corpus = tmp_path / "empty"
        corpus.mkdir()
        shutil.copy(demo_corpus_dir / "site_labels.json", corpus)
        (corpus / "manifest.jsonl").write_text("", encoding="utf-8")
        return corpus

    @pytest.mark.parametrize("source", ["features", "corpus"], ids=["tag", "baseline"])
    def test_predict_writes_only_the_header(
        self, artifacts, demo_corpus_dir, empty_corpus, tmp_path, source
    ):
        model, out = tmp_path / "model.bin", tmp_path / "predictions.csv"
        train = (["--features", str(artifacts["features"])] if source == "features"
                 else ["--classifier", "baseline-svm", "--corpus", str(demo_corpus_dir)])
        assert main(["train", *train, "--out", str(model)]) == 0
        assert main(["predict", "--model", str(model), "--corpus", str(empty_corpus),
                     "--out", str(out)]) == 0
        assert _lines(out) == ["doc_id,predicted_label,score"]

    @pytest.mark.parametrize("protocol", ["cv", "grid"])
    def test_evaluate_is_a_data_error(self, empty_corpus, tmp_path, caplog, protocol):
        out = tmp_path / "report.csv"
        with caplog.at_level("ERROR", logger="veritag"):
            assert main(["evaluate", "--protocol", protocol, "--corpus", str(empty_corpus),
                         "--out", str(out)]) == 2
        assert [r.getMessage() for r in caplog.records] == ["cannot evaluate an empty corpus"]
        assert not out.exists()


class TestMalformedPages:
    """One odd page must not fail a whole extraction run."""

    @pytest.mark.parametrize(
        "markup",
        ["<![ x]]>", "<![1", "<![foo[ x", '<img src="http://[x/a.png">', '<iframe src="//[::1">'],
        ids=["marked-section-space", "marked-section-digit", "marked-section-keyword",
             "img-bad-ipv6", "iframe-bad-ipv6"],
    )
    def test_extract_succeeds_with_finite_features(self, demo_corpus_dir, tmp_path, markup):
        corpus = tmp_path / "corpus"
        shutil.copytree(demo_corpus_dir, corpus)
        page = corpus / "pages" / "mini-0001.html"
        page.write_text(page.read_text(encoding="utf-8").replace("<body>", "<body>" + markup, 1),
                        encoding="utf-8")
        out = tmp_path / "features.csv"
        assert main(["extract", "--corpus", str(corpus), "--out", str(out)]) == 0
        header, *rows = _lines(out)
        assert len(rows) == 40
        row = next(r.split(",") for r in rows if r.startswith("mini-0001,"))
        assert all(math.isfinite(float(v)) for v in row[1:-1])


class TestEvaluate:
    def test_cv_report(self, demo_corpus_dir, tmp_path):
        out = tmp_path / "cv.csv"
        assert main(["evaluate", "--protocol", "cv",
                     "--corpus", str(demo_corpus_dir), "--out", str(out)]) == 0
        lines = _lines(out)
        assert lines[0].startswith("# config: ")
        assert lines[1] == "fold,accuracy"
        assert lines[-1] == "mean,1"
        assert len(lines) == 2 + 5 + 1

    def test_cv_rerun_is_byte_identical(self, demo_corpus_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["evaluate", "--protocol", "cv", "--corpus", str(demo_corpus_dir)]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_temporal_report(self, drift_corpus_dir, tmp_path):
        out = tmp_path / "temporal.csv"
        assert main(["evaluate", "--protocol", "temporal",
                     "--corpus", str(drift_corpus_dir), "--out", str(out)]) == 0
        lines = _lines(out)
        assert lines[1] == "train_year,test_year,accuracy"
        assert "2016,2017,1" in lines
        assert "2017,2016,1" in lines

    def test_cross_domain_report(self, demo_corpus_dir, drift_corpus_dir, tmp_path):
        out = tmp_path / "cross.csv"
        assert main(["evaluate", "--protocol", "cross-domain",
                     "--corpus", str(demo_corpus_dir),
                     "--test-corpus", str(drift_corpus_dir),
                     "--out", str(out)]) == 0
        lines = _lines(out)
        assert lines[1] == "classifier,accuracy"
        assert [row.split(",")[0] for row in lines[2:]] == ["svm", "knn", "rf"]

    def test_cross_domain_needs_test_corpus(self, demo_corpus_dir, tmp_path):
        assert main(["evaluate", "--protocol", "cross-domain",
                     "--corpus", str(demo_corpus_dir),
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_grid_report(self, demo_corpus_dir, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["evaluate", "--protocol", "grid",
                     "--corpus", str(demo_corpus_dir),
                     "--group-sets", "R;N,R", "--folds", "2",
                     "--out", str(out)]) == 0
        lines = _lines(out)
        assert lines[1] == "groups,granularity,fold_1,fold_2,mean"
        cells = [tuple(row.split(",")[:2]) for row in lines[2:]]
        assert cells == [
            ("R", "H"), ("R", "C"), ("R", "HC"),
            ("N-R", "H"), ("N-R", "C"), ("N-R", "HC"),
        ]

    def test_bad_protocol_fails_usage(self, demo_corpus_dir, tmp_path):
        assert main(["evaluate", "--protocol", "bootstrap",
                     "--corpus", str(demo_corpus_dir),
                     "--out", str(tmp_path / "x.csv")]) == 1


class TestReportTerms:
    def test_csv_artifact(self, demo_corpus_dir, tmp_path):
        out = tmp_path / "terms.csv"
        assert main(["report-terms", "--corpus", str(demo_corpus_dir),
                     "--top", "5", "--out", str(out)]) == 0
        lines = _lines(out)
        assert json.loads(lines[0].removeprefix("# config: ")) == {"top": 5}
        assert lines[1] == "year,rank,term,count"
        years = {row.split(",")[0] for row in lines[2:]}
        assert years == {"2016", "2017"}
        assert len(lines) == 2 + 2 * 5

    def test_stdout_default(self, demo_corpus_dir, capsys):
        assert main(["report-terms", "--corpus", str(demo_corpus_dir),
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "year,rank,term,count"

    def test_seed_is_not_a_flag(self, demo_corpus_dir, tmp_path):
        """The term report draws nothing at random, so it takes no seed."""
        out = tmp_path / "terms.csv"
        assert main(["report-terms", "--corpus", str(demo_corpus_dir), "--seed", "1",
                     "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_must_be_positive(self, demo_corpus_dir, tmp_path, top, caplog):
        out = tmp_path / "terms.csv"
        assert main(["report-terms", "--corpus", str(demo_corpus_dir),
                     "--top", top, "--out", str(out)]) == 1
        assert "top must be >= 1" in caplog.text
        assert not out.exists()


class TestConfigFileIntegration:
    def test_config_file_drives_a_run(self, demo_corpus_dir, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"folds": 4, "classifier": "knn"}),
                          encoding="utf-8")
        out = tmp_path / "cv.csv"
        assert main(["evaluate", "--protocol", "cv",
                     "--config", str(config),
                     "--corpus", str(demo_corpus_dir), "--out", str(out)]) == 0
        lines = _lines(out)
        echoed = json.loads(lines[0][len("# config: "):])
        assert echoed["k"] == 4
        assert echoed["classifier"]["name"] == "knn"
        assert len(lines) == 2 + 4 + 1

    def test_flag_overrides_config_file(self, demo_corpus_dir, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"folds": 4}), encoding="utf-8")
        out = tmp_path / "cv.csv"
        assert main(["evaluate", "--protocol", "cv",
                     "--config", str(config), "--folds", "2",
                     "--corpus", str(demo_corpus_dir), "--out", str(out)]) == 0
        assert len(_lines(out)) == 2 + 2 + 1

    @pytest.mark.parametrize("argv", [
        ["train", "--c", "inf"],
        ["evaluate", "--protocol", "cv", "--c", "inf"],
        ["select", "--lambda", "nan"],
    ])
    def test_non_finite_flags_fail_cleanly(self, artifacts, demo_corpus_dir, tmp_path, argv):
        out = tmp_path / "out"
        inputs = {
            "train": ["--features", str(artifacts["features"])],
            "select": ["--features", str(artifacts["features"])],
            "evaluate": ["--corpus", str(demo_corpus_dir)],
        }[argv[0]]
        assert main(argv + inputs + ["--out", str(out)]) == 1
        assert not out.exists()

    def test_non_finite_config_file_fails_cleanly(self, demo_corpus_dir, tmp_path):
        config = tmp_path / "run.json"
        config.write_text('{"c": Infinity}', encoding="utf-8")
        out = tmp_path / "cv.csv"
        assert main(["evaluate", "--protocol", "cv", "--config", str(config),
                     "--corpus", str(demo_corpus_dir), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("payload", [
        {"c": True}, {"year_range": ["a", "b"]}, {"year_range": [True, 2000]},
        {"ad_domains": 5}, {"dictionary": 5},
    ], ids=["bool-c", "string-years", "bool-year", "int-ad-domains", "int-dictionary"])
    def test_wrong_json_type_in_config_file_fails_cleanly(self, demo_corpus_dir, tmp_path,
                                                          payload):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "features.csv"
        assert main(["extract", "--config", str(config),
                     "--corpus", str(demo_corpus_dir), "--out", str(out)]) == 1
        assert not out.exists()

    def test_bad_config_file_fails_cleanly(self, demo_corpus_dir, tmp_path):
        config = tmp_path / "run.json"
        config.write_text('{"foldz": 4}', encoding="utf-8")
        assert main(["evaluate", "--protocol", "cv",
                     "--config", str(config),
                     "--corpus", str(demo_corpus_dir),
                     "--out", str(tmp_path / "x.csv")]) == 1


def _readme_cli_commands():
    """The README's CLI quick start block, one argv per command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (CLI)", 1)[1]
    block = section.split("```", 2)[1]
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    commands = _readme_cli_commands()
    assert commands[0] == ["python3", "-m", "veritag.demo", "corpus"]
    monkeypatch.chdir(tmp_path)
    assert demo_main(commands[0][3:]) == 0
    for argv in commands[1:]:
        assert argv[0] == "veritag"
        assert main(argv[1:]) == 0, argv
    assert (tmp_path / "preds.csv").is_file()
