"""veritag: reliability classification for news pages from topic-agnostic
features (POS counts, category-dictionary percentages, readability indices,
web-markup layout) with geometric-mean feature selection and k-fold,
temporal, and cross-domain evaluation."""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, InvariantError, VeritagError  # noqa: E402
from .corpus import (  # noqa: E402
    CLASS_TO_LABEL,
    LABEL_TO_CLASS,
    LABELS,
    CorpusManifest,
    FilterDecision,
    ManifestEntry,
    PoliticalFilterModel,
    RawDocument,
    apply_political_filter,
    balanced_sample,
    load_manifest,
    load_topic_corpus,
    train_political_filter,
)
from .markup import (  # noqa: E402
    Article,
    Element,
    WebMarkupFeatures,
    extract_article,
    markup_features,
    parse_html,
)
from .linguistics import (  # noqa: E402
    PENN_TABLE_TAGS,
    READABILITY_FEATURES,
    CategoryDictionary,
    PerceptronTagger,
    ReadabilityScores,
    RuleTagger,
    TokenizedText,
    count_syllables,
    dictionary_scores,
    load_dictionary,
    morphological_features,
    pos_tag,
    readability_features,
    resolve_tagger,
    tokenize,
)
from .featureset import (  # noqa: E402
    FeatureSchema,
    FeatureVector,
    StandardizerParams,
    apply_paper_pruning,
    build_schema,
    extract_document,
    granularity_text,
    read_feature_csv,
    read_schema,
    standardize_apply,
    standardize_fit,
    vectors_to_matrix,
    write_feature_csv,
    write_schema,
)
from .selection import (  # noqa: E402
    ImportanceScores,
    aggregate_importance,
    combine_factors,
    l1_score,
    mutual_info_score,
    quantile_bin,
    select_features,
    shannon_entropy_score,
    tree_importance,
    write_importance_report,
)
from .models import (  # noqa: E402
    BaselineFeaturizer,
    ClassifierSettings,
    KnnModel,
    LinearSvmModel,
    RandomForestModel,
    TrainedPipeline,
    knn_predict,
    knn_train,
    load_pipeline,
    rf_predict,
    rf_train,
    save_pipeline,
    svm_predict,
    svm_train,
    train_baseline_pipeline,
    train_tag_pipeline,
)
from .evaluation import (  # noqa: E402
    EvalReport,
    ExtractionResources,
    PipelineSpec,
    TemporalReport,
    TermFrequencyReport,
    accuracy,
    cross_domain_eval,
    feature_grid_eval,
    kfold_cv,
    stratified_folds,
    temporal_eval,
    term_frequency_report,
)
from .config import RunConfig, load_config, load_run_resources, pipeline_spec  # noqa: E402
