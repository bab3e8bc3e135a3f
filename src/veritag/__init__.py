"""veritag: reliability classification for news pages from topic-agnostic
features (POS counts, category-dictionary percentages, readability indices,
web-markup layout) with geometric-mean feature selection and k-fold,
temporal, and cross-domain evaluation."""

import importlib

__version__ = "0.1.0"


def lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of the module whose
    globals are ``namespace``: each name in ``exports`` is looked up in the
    module the map files it under, relative to the module's package, on
    first access, and then kept in ``namespace`` so later lookups skip
    ``__getattr__``."""
    module_of = {name: module for module, names in exports.items() for name in names}
    where = namespace["__name__"]

    def __getattr__(name: str):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {where!r} has no attribute {name!r}")
        value = getattr(importlib.import_module("." + module, namespace["__package__"]), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(module_of))

    return __getattr__, __dir__


# Every public name and the module that defines it. A name is imported on
# first access, so ``import veritag`` loads no submodule, and a process
# loads numpy only when it reaches a module that computes with it.
_EXPORTS = {
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
        "Article", "Element", "extract_article", "granularity_text", "markup_features",
        "parse_html",
    ),
    "linguistics": (
        "PENN_TABLE_TAGS", "READABILITY_FEATURES", "CategoryDictionary", "RuleTagger",
        "TokenizedText", "count_syllables", "dictionary_scores", "load_dictionary",
        "morphological_features", "pos_tag", "readability_features", "tokenize",
    ),
    "config": (
        "ClassifierSettings", "ExtractionResources", "PipelineSpec", "RunConfig",
        "load_config", "load_run_resources", "pipeline_spec",
    ),
    "featureset": (
        "FeatureSchema", "FeatureVector", "StandardizerParams", "apply_paper_pruning",
        "build_schema", "extract_document", "read_feature_csv", "read_schema",
        "standardize_apply", "standardize_fit", "vectors_to_matrix", "write_feature_csv",
        "write_schema",
    ),
    "selection": (
        "ImportanceScores", "combine_factors", "l1_score", "mutual_info_score",
        "quantile_bin", "select_features", "shannon_entropy_score", "tree_importance",
        "write_importance_report",
    ),
    "models": (
        "BaselineFeaturizer", "KnnModel", "LinearSvmModel", "RandomForestModel",
        "TrainedPipeline", "knn_predict", "knn_train", "load_pipeline", "rf_predict",
        "rf_train", "save_pipeline", "svm_predict", "svm_train", "train_baseline_pipeline",
        "train_tag_pipeline",
    ),
    "evaluation": (
        "EvalReport", "TemporalReport", "TermFrequencyReport", "accuracy",
        "cross_domain_eval", "feature_grid_eval", "kfold_cv", "stratified_folds",
        "temporal_eval", "term_frequency_report",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
