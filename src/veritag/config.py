"""Run configuration: one JSON file, validated hard, overridable by flags."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .corpus import DEFAULT_YEAR_RANGE
from .errors import ConfigError, read_json
from .evaluation import ExtractionResources, PipelineSpec
from .featureset import GRANULARITIES, GROUPS
from .linguistics import load_dictionary, resolve_tagger
from .models import CLASSIFIER_NAMES, ClassifierSettings
from .resources import ad_domains as _bundled_ad_domains
from .resources import demo_dictionary_path, load_wordlist

CLI_CLASSIFIERS = CLASSIFIER_NAMES + ("baseline-svm",)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the corpus itself.

    ``dictionary`` and ``ad_domains`` are file paths; when unset the
    bundled demo dictionary and ad-domain list are used. ``tagger`` is
    either ``rules`` or ``perceptron:PATH``.
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
    tagger: str = "rules"
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
        bad = [g for g in self.groups if g not in GROUPS]
        if bad or not self.groups:
            raise ConfigError(f"groups must be a non-empty subset of {GROUPS}")
        if self.pruning not in ("none", "paper"):
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
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a number")
        if not (math.isfinite(self.c) and self.c > 0):
            raise ConfigError("c must be positive and finite")
        if not (math.isfinite(self.l1_lambda) and self.l1_lambda >= 0):
            raise ConfigError("l1_lambda must be >= 0 and finite")
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
        if not isinstance(self.tagger, str) or (
            self.tagger != "rules" and not self.tagger.startswith("perceptron:")
        ):
            raise ConfigError("tagger must be 'rules' or 'perceptron:PATH'")

    def echo(self) -> dict:
        out = dataclasses.asdict(self)
        out["groups"] = list(self.groups)
        out["year_range"] = list(self.year_range)
        return out


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
    if cfg.tagger.startswith("perceptron:"):
        weights = cfg.tagger.split(":", 1)[1]
        if not Path(weights).is_file():
            raise ConfigError(f"tagger weights file does not exist: {weights}")


def load_run_resources(cfg: RunConfig) -> ExtractionResources:
    """Materialize the dictionary, tagger, and ad-domain list."""
    dictionary_path = cfg.dictionary if cfg.dictionary else demo_dictionary_path()
    dictionary = load_dictionary(dictionary_path)
    tagger = resolve_tagger(cfg.tagger)
    domains = (
        load_wordlist(path=cfg.ad_domains) if cfg.ad_domains else _bundled_ad_domains()
    )
    return ExtractionResources(dictionary=dictionary, tagger=tagger, ad_domains=domains)


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
