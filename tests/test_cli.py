"""End-to-end command-line flows on the generated demo corpus."""

from __future__ import annotations

import hashlib
import json
import math
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from veritag.cli import main
from veritag.demo import main as demo_main


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines()


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

    def test_jobs_must_be_positive(self, demo_corpus_dir):
        assert main(["ingest", "--corpus", str(demo_corpus_dir), "--jobs", "0"]) == 1

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

    def test_jobs_flag_never_changes_output(self, artifacts, demo_corpus_dir, tmp_path):
        out = tmp_path / "features-j3.csv"
        assert main(["extract", "--corpus", str(demo_corpus_dir),
                     "--jobs", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == artifacts["features"].read_bytes()

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
         ("doc_id,N,label", "N"), ("doc_id,R.W,R.W,label", "R.W")],
        ids=["no-group", "unknown-group", "no-name", "twice"],
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

    @pytest.mark.parametrize(
        "payload", ["[]", '{"kind": "perceptron-tagger", "format_version": 1}'],
        ids=["list", "no-classes"],
    )
    def test_malformed_tagger_weights_are_a_data_error(self, demo_corpus_dir, tmp_path, payload):
        weights = tmp_path / "tagger.json"
        weights.write_text(payload, encoding="utf-8")
        assert main(["extract", "--corpus", str(demo_corpus_dir), "--tagger", f"perceptron:{weights}",
                     "--out", str(tmp_path / "features.csv")]) == 2

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
            (["extract", "--tagger", "perceptron:{bad}"], 2),
            (["filter-political", "--model", "{bad}"], 2),
            (["filter-political", "--topics", "{bad}"], 2),
            (["filter-political", "--topics", "{missing}"], 2),
            (["train", "--features", "{bad}"], 2),
            (["train", "--features", "{missing}"], 2),
            (["select", "--features", "{bad}"], 2),
            (["select", "--features", "{missing}"], 2),
        ],
        ids=["schema", "model", "config", "dictionary", "ad-domains", "tagger",
             "filter-model", "topics", "missing-topics", "train-features",
             "train-missing-features", "select-features", "select-missing-features"],
    )
    def test_unreadable_input_file_is_one_clean_error(
        self, demo_corpus_dir, tmp_path, caplog, argv, code
    ):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"doc_id,\xff\xfe{}")
        paths = {"bad": bad, "missing": tmp_path / "absent"}
        argv = [a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out")]
        if argv[0] != "select":
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
        assert lines[0].startswith("# config: ")
        assert lines[1] == "year,rank,term,count"
        years = {row.split(",")[0] for row in lines[2:]}
        assert years == {"2016", "2017"}
        assert len(lines) == 2 + 2 * 5

    def test_stdout_default(self, demo_corpus_dir, capsys):
        assert main(["report-terms", "--corpus", str(demo_corpus_dir),
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "year,rank,term,count"

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
        {"tagger": 5}, {"dictionary": 5},
    ], ids=["bool-c", "string-years", "bool-year", "int-tagger", "int-dictionary"])
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
