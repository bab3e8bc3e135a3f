"""Run configuration: JSON loading, validation, overrides, spec mapping."""

from __future__ import annotations

import json

import pytest

from veritag import (
    ConfigError, PipelineSpec, RuleTagger, RunConfig, load_config, load_run_resources,
    pipeline_spec,
)
from veritag.config import classifier_settings, merge_overrides, validate_paths


def _write(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestRunConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.granularity == "HC"
        assert cfg.groups == ("N", "L", "R", "W")
        assert cfg.classifier == "svm"

    def test_groups_coerced_to_tuple(self):
        cfg = RunConfig(groups=["N", "R"])
        assert cfg.groups == ("N", "R")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"granularity": "X"},
            {"groups": ()},
            {"groups": ("N", "Q")},
            {"groups": ("R", "R")},
            {"groups": ("N", "L", "N")},
            {"pruning": "half"},
            {"classifier": "mlp"},
            {"k": 0},
            {"folds": 1},
            {"bins": 1},
            {"trees": 0},
            {"min_df": 0},
            {"c": 0.0},
            {"c": -1.0},
            {"l1_lambda": -0.1},
            {"c": float("inf")},
            {"c": float("nan")},
            {"l1_lambda": float("inf")},
            {"l1_lambda": float("nan")},
            {"political_threshold": 1.5},
            {"year_range": (2017, 2016)},
            {"year_range": (2016,)},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c": True},
            {"l1_lambda": True},
            {"political_threshold": True},
            {"c": "0.1"},
            {"political_threshold": None},
            {"year_range": ["a", "b"]},
            {"year_range": [True, 2000]},
            {"year_range": [2016, 2017.5]},
            {"year_range": 2016},
            {"groups": "NR"},
            {"groups": {"N": 1}},
            {"dictionary": 5},
            {"ad_domains": ["ads.txt"]},
        ],
    )
    def test_wrong_json_types_rejected(self, kwargs, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, kwargs))

    def test_null_paths_accepted(self, tmp_path):
        cfg = load_config(_write(tmp_path, {"dictionary": None, "ad_domains": None}))
        assert (cfg.dictionary, cfg.ad_domains) == (None, None)

    def test_bool_is_not_an_acceptable_integer(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            RunConfig(k=True)


class TestLoadConfig:
    def test_valid_file(self, tmp_path):
        path = _write(tmp_path, {"seed": 3, "folds": 4, "classifier": "knn"})
        cfg = load_config(path)
        assert (cfg.seed, cfg.folds, cfg.classifier) == (3, 4, "knn")

    def test_unknown_keys_rejected(self, tmp_path):
        path = _write(tmp_path, {"seeed": 3})
        with pytest.raises(ConfigError, match="unknown config keys.*seeed"):
            load_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    @pytest.mark.parametrize("text", ['{"c": Infinity}', '{"c": NaN}',
                                      '{"l1_lambda": Infinity}', '{"l1_lambda": NaN}',
                                      pytest.param('{"c": 1%s}' % ("0" * 400), id="c-huge-int")])
    def test_non_finite_numbers_rejected(self, tmp_path, text):
        # Python's json accepts these literals although they are not JSON
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="finite"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.json")

    @pytest.mark.parametrize("tagger", ["rules", "perceptron"])
    def test_tagger_is_an_unknown_key(self, tmp_path, tagger):
        # the rule tagger is the only tagger, so no value, not even an
        # existing weights file, chooses one
        if tagger == "perceptron":
            weights = tmp_path / "tagger.json"
            weights.write_text("{}", encoding="utf-8")
            tagger = f"perceptron:{weights}"
        path = _write(tmp_path, {"seed": 3, "tagger": tagger})
        with pytest.raises(ConfigError, match=r"unknown config keys \['tagger'\]"):
            load_config(path)

    def test_missing_dictionary_path_rejected(self, tmp_path):
        path = _write(tmp_path, {"dictionary": str(tmp_path / "absent.dic")})
        with pytest.raises(ConfigError, match="dictionary file does not exist"):
            load_config(path)


class TestMergeOverrides:
    def test_none_values_skipped(self):
        cfg = merge_overrides(RunConfig(), seed=None, folds=3)
        assert cfg.seed == 0
        assert cfg.folds == 3

    def test_no_changes_returns_same_object(self):
        cfg = RunConfig()
        assert merge_overrides(cfg, seed=None) is cfg

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown config overrides"):
            merge_overrides(RunConfig(), foldz=3)

    def test_tagger_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown config overrides.*tagger"):
            merge_overrides(RunConfig(), tagger="rules")

    def test_override_revalidates(self):
        with pytest.raises(ConfigError):
            merge_overrides(RunConfig(), folds=1)


class TestSpecMapping:
    def test_tag_pipeline(self):
        spec = pipeline_spec(RunConfig(classifier="rf", trees=50))
        assert spec.kind == "tag"
        assert spec.classifier.name == "rf"
        assert spec.classifier.trees == 50

    def test_baseline_svm_maps_to_baseline_kind(self):
        spec = pipeline_spec(RunConfig(classifier="baseline-svm", min_df=3))
        assert spec.kind == "baseline"
        assert spec.classifier.name == "svm"
        assert spec.min_df == 3

    def test_classifier_settings_carry_seed(self):
        settings = classifier_settings(RunConfig(seed=9, classifier="knn", k=3))
        assert (settings.name, settings.k, settings.seed) == ("knn", 3, 9)

    @pytest.mark.parametrize("groups", [("R", "R"), ("N", "W", "N"), (), ("X",)])
    def test_spec_groups_are_held_to_the_rule_of_groups(self, groups):
        with pytest.raises(ConfigError, match="none twice"):
            PipelineSpec(groups=groups)

    @pytest.mark.parametrize("granularity", ["X", "hc", "CH", ""])
    def test_spec_granularity_is_one_of_h_c_hc(self, granularity):
        with pytest.raises(ConfigError, match="granularity must be one of"):
            PipelineSpec(granularity=granularity)


class TestRunResources:
    def test_bundled_defaults(self):
        resources = load_run_resources(RunConfig())
        assert resources.dictionary is not None
        assert isinstance(resources.tagger, RuleTagger)
        assert "doubleclick.net" in resources.ad_domains

    def test_custom_ad_domain_list(self, tmp_path):
        domains = tmp_path / "ads.txt"
        domains.write_text("ads.example\n# comment\n", encoding="utf-8")
        resources = load_run_resources(RunConfig(ad_domains=str(domains)))
        assert "ads.example" in resources.ad_domains
        assert "doubleclick.net" not in resources.ad_domains

    def test_validate_paths_accepts_defaults(self):
        validate_paths(RunConfig())
