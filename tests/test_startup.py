"""What a process imports: public names load on first use, each command
loads only the modules it runs, and every module imports on its own.

Import sets are checked in fresh interpreters, because this test session
has long since imported every module."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import veritag

SRC = Path(veritag.__file__).resolve().parents[1]

# The public names, by the module each was imported from before exports
# became lazy. Every path here must still give the same object.
PUBLIC_NAMES = {
    "errors": ("ConfigError", "DataError", "InvariantError", "VeritagError"),
    "corpus": (
        "CLASS_TO_LABEL", "LABEL_TO_CLASS", "LABELS", "CorpusManifest", "FilterDecision",
        "ManifestEntry", "PoliticalFilterModel", "RawDocument", "apply_political_filter",
        "balanced_sample", "load_manifest", "load_topic_corpus", "train_political_filter",
    ),
    "markup": (
        "Article", "Element", "WebMarkupFeatures", "extract_article", "markup_features",
        "parse_html",
    ),
    "linguistics": (
        "PENN_TABLE_TAGS", "READABILITY_FEATURES", "CategoryDictionary", "PerceptronTagger",
        "ReadabilityScores", "RuleTagger", "TokenizedText", "count_syllables",
        "dictionary_scores", "load_dictionary", "morphological_features", "pos_tag",
        "readability_features", "resolve_tagger", "tokenize",
    ),
    "featureset": (
        "FeatureSchema", "FeatureVector", "StandardizerParams", "apply_paper_pruning",
        "build_schema", "extract_document", "granularity_text", "read_feature_csv",
        "read_schema", "standardize_apply", "standardize_fit", "vectors_to_matrix",
        "write_feature_csv", "write_schema",
    ),
    "selection": (
        "ImportanceScores", "aggregate_importance", "combine_factors", "l1_score",
        "mutual_info_score", "quantile_bin", "select_features", "shannon_entropy_score",
        "tree_importance", "write_importance_report",
    ),
    "models": (
        "BaselineFeaturizer", "ClassifierSettings", "KnnModel", "LinearSvmModel",
        "RandomForestModel", "TrainedPipeline", "knn_predict", "knn_train", "load_pipeline",
        "rf_predict", "rf_train", "save_pipeline", "svm_predict", "svm_train",
        "train_baseline_pipeline", "train_tag_pipeline",
    ),
    "evaluation": (
        "EvalReport", "ExtractionResources", "PipelineSpec", "TemporalReport",
        "TermFrequencyReport", "accuracy", "cross_domain_eval", "feature_grid_eval",
        "kfold_cv", "stratified_folds", "temporal_eval", "term_frequency_report",
    ),
    "config": ("RunConfig", "load_config", "load_run_resources", "pipeline_spec"),
}

HEAVY = ("numpy", "veritag.featureset", "veritag.models", "veritag.selection",
         "veritag.evaluation")


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def _imported_by(*args: str) -> set[str]:
    """The modules a fresh ``python -m veritag ARGS`` imports; it must exit 0."""
    proc = _python("-X", "importtime", "-m", "veritag", *args)
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


class TestPublicSurface:
    def test_names_are_pinned(self):
        assert sorted(veritag.__all__) == sorted(
            name for names in PUBLIC_NAMES.values() for name in names
        )

    @pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
    def test_each_name_is_the_object_its_modules_hold(self, module):
        old_home = importlib.import_module(f"veritag.{module}")
        for name in PUBLIC_NAMES[module]:
            value = getattr(veritag, name)
            assert getattr(old_home, name) is value, f"veritag.{module}.{name}"
            defined_in = getattr(value, "__module__", None)
            if defined_in is not None and getattr(value, "__name__", None) == name:
                assert getattr(importlib.import_module(defined_in), name) is value

    @pytest.mark.parametrize("path", [
        "veritag.featureset.GRANULARITIES", "veritag.featureset.GROUPS",
        "veritag.models.CLASSIFIER_NAMES", "veritag.models.pipeline.CLASSIFIER_NAMES",
        "veritag.models.pipeline.ClassifierSettings", "veritag.config.CLI_CLASSIFIERS",
    ])
    def test_moved_constants_keep_their_old_paths(self, path):
        module, name = path.rsplit(".", 1)
        value = getattr(importlib.import_module(module), name)
        assert value is getattr(importlib.import_module("veritag.config"), name)

    def test_dir_and_star_import_cover_every_name(self):
        assert set(veritag.__all__) <= set(dir(veritag))
        namespace: dict = {}
        exec("from veritag import *", namespace)
        assert {name: namespace[name] for name in veritag.__all__} == {
            name: getattr(veritag, name) for name in veritag.__all__
        }

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            veritag.no_such_name
        with pytest.raises(ImportError):
            exec("from veritag import no_such_name", {})


class TestImportSets:
    def test_bench_setup_loads_no_numpy(self, demo_corpus_dir):
        code = (
            "import sys\n"
            "from veritag import RunConfig, load_manifest, load_run_resources\n"
            "load_run_resources(RunConfig())\n"
            "docs = list(load_manifest(sys.argv[1]).iter_documents())\n"
            "assert docs\n"
            "print('\\n'.join(sys.modules))\n"
        )
        proc = _python("-c", code, str(demo_corpus_dir))
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "veritag.config" in loaded
        assert loaded.isdisjoint(HEAVY)

    def test_light_commands_load_no_numpy(self, demo_corpus_dir, topic_fixture_path, tmp_path):
        corpus = str(demo_corpus_dir)
        for args in (
            ["--version"],
            ["--help"],
            ["ingest", "--corpus", corpus, "--check"],
            ["sample", "--corpus", corpus, "--cap", "2", "--out", str(tmp_path / "s.jsonl")],
            ["filter-political", "--corpus", corpus, "--topics", str(topic_fixture_path),
             "--out", str(tmp_path / "f.csv")],
        ):
            loaded = _imported_by(*args)
            assert "veritag.cli" in loaded
            assert loaded.isdisjoint(HEAVY), args[0]

    def test_extract_loads_no_models_selection_or_evaluation(self, demo_corpus_dir, tmp_path):
        loaded = _imported_by("extract", "--corpus", str(demo_corpus_dir),
                              "--out", str(tmp_path / "features.csv"))
        assert {"numpy", "veritag.featureset"} <= loaded
        assert loaded.isdisjoint({"veritag.models", "veritag.selection", "veritag.evaluation"})


def _module_names() -> list[str]:
    names = []
    for path in sorted((SRC / "veritag").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__main__":  # importing it runs the command line
            continue
        names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


@pytest.mark.parametrize("module", _module_names())
def test_module_imports_alone(module):
    """An import cycle that the test session's import order hides fails
    when the module is the first one a process imports."""
    proc = _python("-c", f"import {module}")
    assert proc.returncode == 0, proc.stderr
