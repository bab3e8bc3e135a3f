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
        "CLASS_TO_LABEL", "LABEL_TO_CLASS", "LABELS", "CorpusManifest", "ManifestEntry",
        "RawDocument", "balanced_sample", "load_manifest",
    ),
    "political": (
        "FilterDecision", "PoliticalFilterModel", "apply_political_filter",
        "load_topic_corpus", "train_political_filter",
    ),
    "markup": (
        "Article", "Element", "extract_article", "markup_features", "parse_html",
    ),
    "linguistics": (
        "PENN_TABLE_TAGS", "READABILITY_FEATURES", "CategoryDictionary", "RuleTagger",
        "TokenizedText", "count_syllables", "dictionary_scores", "load_dictionary",
        "morphological_features", "pos_tag", "readability_features", "tokenize",
    ),
    "featureset": (
        "FeatureSchema", "FeatureVector", "StandardizerParams", "apply_paper_pruning",
        "build_schema", "extract_document", "granularity_text", "read_feature_csv",
        "read_schema", "standardize_apply", "standardize_fit", "vectors_to_matrix",
        "write_feature_csv", "write_schema",
    ),
    "selection": (
        "ImportanceScores", "combine_factors", "l1_score", "mutual_info_score",
        "quantile_bin", "select_features", "shannon_entropy_score", "tree_importance",
        "write_importance_report",
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

# The public names of ``veritag.linguistics``, by the module that defines
# each. Every one must be that module's object.
LINGUISTICS_NAMES = {
    "dictionary": ("CategoryDictionary", "dictionary_scores", "load_dictionary"),
    "readability": ("READABILITY_FEATURES", "readability_features"),
    "tagger": ("PENN_TABLE_TAGS", "RuleTagger", "morphological_features", "pos_tag"),
    "text": ("TokenizedText", "count_syllables", "is_url_token", "tokenize"),
}

# What the bench's set-up code loads of the package: the corpus reader and
# the extraction resources, with the rule tagger but not the tokenizer, the
# readability indices or the topic filter.
SETUP_MODULES = {
    "veritag", "veritag.errors", "veritag.config", "veritag.corpus", "veritag.resources",
    "veritag.linguistics", "veritag.linguistics.dictionary", "veritag.linguistics.tagger",
}

HEAVY = ("numpy", "veritag.featureset", "veritag.models", "veritag.selection",
         "veritag.evaluation")


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


# Runs ``python -m veritag`` and lists ``sys.modules`` at exit. ``-X
# importtime`` would not do: it does not log a module that
# ``importlib.import_module`` loads, as every lazy export is.
_LIST_MODULES_AT_EXIT = """
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write("\\nMODULES " + " ".join(sys.modules)))
runpy.run_module("veritag", run_name="__main__", alter_sys=True)
"""


def _imported_by(*args: str) -> set[str]:
    """The modules a fresh ``python -m veritag ARGS`` imports; it must exit 0."""
    proc = _python("-c", _LIST_MODULES_AT_EXIT, *args)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.rsplit("\nMODULES ", 1)[1].split())


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

    def test_linguistics_names_are_their_modules_objects(self):
        linguistics = importlib.import_module("veritag.linguistics")
        assert sorted(linguistics.__all__) == sorted(
            name for names in LINGUISTICS_NAMES.values() for name in names
        )
        for module, names in LINGUISTICS_NAMES.items():
            home = importlib.import_module(f"veritag.linguistics.{module}")
            for name in names:
                assert getattr(linguistics, name) is getattr(home, name), name

    @pytest.mark.parametrize("package", ["veritag", "veritag.linguistics"])
    def test_dir_and_star_import_cover_every_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert {name: namespace[name] for name in module.__all__} == {
            name: getattr(module, name) for name in module.__all__
        }

    @pytest.mark.parametrize("package", ["veritag", "veritag.linguistics"])
    def test_unknown_name_is_an_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name", {})


class TestImportSets:
    def test_bench_setup_loads_no_numpy(self, demo_corpus_dir):
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from veritag import RunConfig, load_manifest, load_run_resources\n"
            "load_run_resources(RunConfig())\n"
            "docs = list(load_manifest(sys.argv[1]).iter_documents())\n"
            "assert docs\n"
            "print('\\n'.join(set(sys.modules) - before))\n"
        )
        proc = _python("-c", code, str(demo_corpus_dir))
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert {m for m in loaded if m.split(".")[0] == "veritag"} == SETUP_MODULES
        assert loaded.isdisjoint({"numpy", "hashlib"})

    def test_linguistics_loads_none_of_its_modules(self):
        proc = _python("-c", "import sys, veritag.linguistics; print('\\n'.join(sys.modules))")
        assert proc.returncode == 0, proc.stderr
        assert not [m for m in proc.stdout.split() if m.startswith("veritag.linguistics.")]

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
            # only the topic filter reads text, and it needs the tokenizer alone
            linguistics = {m for m in loaded if m.startswith("veritag.linguistics.")}
            expected = {"veritag.linguistics.text"} if args[0] == "filter-political" else set()
            assert linguistics == expected, args[0]

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
