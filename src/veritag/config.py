"""Run configuration: one JSON file, validated hard, overridable by flags."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .corpus import DEFAULT_YEAR_RANGE
from .errors import ConfigError, is_number, read_json
from .resources import ad_domains as _bundled_ad_domains
from .resources import demo_dictionary_path, load_wordlist

# Only ``load_run_resources`` runs the linguistics modules, so a command that
# reads no page loads none of them.
if TYPE_CHECKING:
    from .linguistics import CategoryDictionary, RuleTagger

# The run's vocabulary lives here, free of numpy, so that validating a
# config needs none of the modules that compute with it; featureset, models
# and evaluation import these names from here.
GRANULARITIES = ("H", "C", "HC")
GROUPS = ("N", "L", "R", "W")
PRUNINGS = ("none", "paper")
CLASSIFIER_NAMES = ("svm", "knn", "rf")
CLI_CLASSIFIERS = CLASSIFIER_NAMES + ("baseline-svm",)


def check_groups(groups, what: str) -> None:
    """ConfigError unless ``groups`` names at least one feature group, each
    one of N, L, R, W and none twice."""
    if not groups or not all(g in GROUPS for g in groups) or len(set(groups)) < len(groups):
        raise ConfigError(
            f"{what} must name at least one feature group of {', '.join(GROUPS)}, none twice"
        )


@dataclass(frozen=True)
class ClassifierSettings:
    name: str = "svm"
    c: float = 0.1
    k: int = 5
    trees: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.name not in CLASSIFIER_NAMES:
            raise ConfigError(f"unknown classifier {self.name!r}")


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
        if self.granularity not in GRANULARITIES:
            raise ConfigError(f"granularity must be one of {GRANULARITIES}")
        check_groups(self.groups, "a pipeline's groups")
        if self.pruning not in PRUNINGS:
            raise ConfigError(f"unknown pruning mode {self.pruning!r}")

    def echo(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ExtractionResources:
    """Everything extraction needs besides the page itself."""

    dictionary: CategoryDictionary | None = None
    tagger: RuleTagger | None = None
    ad_domains: frozenset[str] | None = None


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the corpus itself.

    ``dictionary`` and ``ad_domains`` are file paths; when unset the
    bundled demo dictionary and ad-domain list are used.
    """

    seed: int = 0
    granularity: str = "HC"
    groups: tuple[str, ...] = ("N", "L", "R", "W")
    pruning: str = "none"
    classifier: str = "svm"
    c: float = 0.1
    k: int = 5
    trees: int = 100
    folds: int = 5
    bins: int = 10
    selection_trees: int = 250
    l1_lambda: float = 0.05
    min_df: int = 2
    political_threshold: float = 0.5
    dictionary: str | None = None
    ad_domains: str | None = None
    year_range: tuple[int, int] = DEFAULT_YEAR_RANGE

    def __post_init__(self) -> None:
        for name in ("groups", "year_range"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{name} must be a list")
            object.__setattr__(self, name, tuple(value))
        if self.granularity not in GRANULARITIES:
            raise ConfigError(f"granularity must be one of {GRANULARITIES}")
        check_groups(self.groups, "groups")
        if self.pruning not in PRUNINGS:
            raise ConfigError("pruning must be 'none' or 'paper'")
        if self.classifier not in CLI_CLASSIFIERS:
            raise ConfigError(f"classifier must be one of {CLI_CLASSIFIERS}")
        for name, value, low in (
            ("k", self.k, 1),
            ("trees", self.trees, 1),
            ("folds", self.folds, 2),
            ("bins", self.bins, 2),
            ("selection_trees", self.selection_trees, 1),
            ("min_df", self.min_df, 1),
            ("seed", self.seed, None),
        ):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer")
            if low is not None and value < low:
                raise ConfigError(f"{name} must be >= {low}")
        for name, value in (
            ("c", self.c),
            ("l1_lambda", self.l1_lambda),
            ("political_threshold", self.political_threshold),
        ):
            if not is_number(value):
                raise ConfigError(f"{name} must be a finite number")
        if not self.c > 0:
            raise ConfigError("c must be positive")
        if not self.l1_lambda >= 0:
            raise ConfigError("l1_lambda must be >= 0")
        if not 0.0 <= self.political_threshold <= 1.0:
            raise ConfigError("political_threshold must be in [0, 1]")
        if (
            len(self.year_range) != 2
            or not all(isinstance(y, int) and not isinstance(y, bool) for y in self.year_range)
            or self.year_range[0] > self.year_range[1]
        ):
            raise ConfigError("year_range must be two integers [low, high] with low <= high")
        for name, value in (("dictionary", self.dictionary), ("ad_domains", self.ad_domains)):
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{name} must be a path string or null")


_FIELD_NAMES = {f.name for f in dataclasses.fields(RunConfig)}


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON config; unknown keys are an error."""
    payload = read_json(path, "config", ConfigError)
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = sorted(set(payload) - _FIELD_NAMES)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {unknown}")
    try:
        cfg = RunConfig(**payload)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    validate_paths(cfg)
    return cfg


def merge_overrides(cfg: RunConfig, **overrides) -> RunConfig:
    """Apply non-None overrides (CLI flags win over the file)."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    unknown = sorted(set(changes) - _FIELD_NAMES)
    if unknown:
        raise ConfigError(f"unknown config overrides {unknown}")
    return dataclasses.replace(cfg, **changes) if changes else cfg


def validate_paths(cfg: RunConfig) -> None:
    """Every referenced path must exist before any work starts."""
    for label, value in (("dictionary", cfg.dictionary), ("ad_domains", cfg.ad_domains)):
        if value is not None and not Path(value).is_file():
            raise ConfigError(f"{label} file does not exist: {value}")


def load_run_resources(cfg: RunConfig) -> ExtractionResources:
    """Materialize the dictionary, tagger, and ad-domain list."""
    from .linguistics import RuleTagger, load_dictionary

    dictionary_path = cfg.dictionary if cfg.dictionary else demo_dictionary_path()
    dictionary = load_dictionary(dictionary_path)
    domains = (
        load_wordlist(path=cfg.ad_domains) if cfg.ad_domains else _bundled_ad_domains()
    )
    return ExtractionResources(dictionary=dictionary, tagger=RuleTagger(), ad_domains=domains)


def classifier_settings(cfg: RunConfig) -> ClassifierSettings:
    name = "svm" if cfg.classifier == "baseline-svm" else cfg.classifier
    return ClassifierSettings(name=name, c=cfg.c, k=cfg.k, trees=cfg.trees, seed=cfg.seed)


def pipeline_spec(cfg: RunConfig) -> PipelineSpec:
    kind = "baseline" if cfg.classifier == "baseline-svm" else "tag"
    return PipelineSpec(
        kind=kind,
        granularity=cfg.granularity,
        groups=cfg.groups,
        pruning=cfg.pruning,
        classifier=classifier_settings(cfg),
        min_df=cfg.min_df,
    )
