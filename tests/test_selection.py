"""Feature scorers, the geometric-mean combination, and pruning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from veritag import (
    aggregate_importance,
    build_schema,
    combine_factors,
    l1_score,
    mutual_info_score,
    quantile_bin,
    select_features,
    shannon_entropy_score,
    tree_importance,
    write_importance_report,
)
from veritag.errors import ConfigError, DataError


class TestQuantileBin:
    def test_uniform_values_spread_evenly(self):
        bins = quantile_bin(np.arange(8, dtype=float), 4)
        assert sorted(np.bincount(bins)) == [2, 2, 2, 2]

    def test_constant_column_single_bin(self):
        bins = quantile_bin(np.full(10, 3.3), 4)
        assert len(set(bins.tolist())) == 1

    def test_bins_below_two_rejected(self):
        with pytest.raises(ConfigError):
            quantile_bin(np.arange(4, dtype=float), 1)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            quantile_bin(np.array([]), 2)

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=40),
        st.floats(0.001, 1000.0),
    )
    @example(values=[0.0, 5e-324], scale=0.5)
    @settings(max_examples=100, deadline=None)
    def test_positive_scaling_invariance(self, values, scale):
        """Binning depends only on the order of the values, so any scaling
        that keeps every pairwise order keeps the bins. Scaling can merge
        values (0.5 * 5e-324 rounds to 0), which changes the order."""
        column = np.array(values)
        scaled = column * scale
        assume(
            np.array_equal(
                np.sign(np.subtract.outer(column, column)),
                np.sign(np.subtract.outer(scaled, scaled)),
            )
        )
        a = quantile_bin(column, 4)
        b = quantile_bin(scaled, 4)
        assert np.array_equal(a, b)


class TestShannonEntropy:
    def test_uniform_over_four_bins(self):
        assert shannon_entropy_score(np.arange(1.0, 9.0), bins=4) == pytest.approx(2.0)

    def test_uniform_over_two_bins(self):
        assert shannon_entropy_score(np.array([1.0, 2.0, 3.0, 4.0]), bins=2) == pytest.approx(1.0)

    def test_constant_is_zero(self):
        assert shannon_entropy_score(np.full(12, 7.0), bins=10) == 0.0

    def test_never_negative_zero(self):
        # a constant column must not format as "-0" in reports
        assert repr(shannon_entropy_score(np.full(5, 1.0), bins=4)) == "0.0"

    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_log_bins(self, values):
        h = shannon_entropy_score(np.array(values), bins=4)
        assert 0.0 <= h <= 2.0 + 1e-12


class TestMutualInformation:
    def test_perfect_dependence_one_bit(self):
        y = np.array([0, 1] * 4)
        assert mutual_info_score(y.astype(float), y, bins=2) == pytest.approx(1.0)

    def test_constant_independent(self):
        y = np.array([0, 1] * 4)
        assert mutual_info_score(np.full(8, 2.0), y, bins=2) == 0.0

    def test_quarter_flip_channel(self):
        # exactly one flip per class of four: MI = 1 - H(0.25)
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        x = np.array([0, 0, 0, 1, 0, 1, 1, 1], dtype=float)
        assert mutual_info_score(x, y, bins=2) == pytest.approx(0.18872187554086717)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            mutual_info_score(np.array([]), np.array([]), bins=2)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=30)
        y = rng.integers(0, 2, size=30)
        if len(set(y.tolist())) < 2:
            y[0], y[1] = 0, 1
        assert mutual_info_score(x, y, bins=4) >= 0.0


class TestTreeImportance:
    def test_informative_beats_noise(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 2, size=300)
        X = np.column_stack([y + rng.normal(0, 0.05, 300), rng.normal(size=300)])
        scores = tree_importance(X, y, n_trees=50, seed=0)
        assert scores[0] > scores[1]

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        a = tree_importance(X, y, n_trees=20, seed=9)
        b = tree_importance(X, y, n_trees=20, seed=9)
        assert np.array_equal(a, b)

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 4))
        y = rng.integers(0, 2, size=40)
        assert np.all(tree_importance(X, y, n_trees=10, seed=0) >= 0.0)


class TestL1Score:
    def _standardized(self, X):
        return (X - X.mean(axis=0)) / X.std(axis=0)

    def test_predictive_nonzero_noise_zero(self):
        rng = np.random.default_rng(11)
        y = rng.integers(0, 2, size=200)
        X = self._standardized(
            np.column_stack([y + rng.normal(0, 0.01, 200), rng.normal(size=200)])
        )
        scores = l1_score(X, y, lam=0.05)
        assert scores[0] > 0.0
        assert scores[1] == 0.0

    def test_total_shrinkage_at_huge_lambda(self):
        rng = np.random.default_rng(12)
        y = rng.integers(0, 2, size=100)
        X = self._standardized(np.column_stack([y * 1.0, rng.normal(size=100)]))
        assert np.all(l1_score(X, y, lam=1e6) == 0.0)

    def test_duplicated_columns_conserve_weight_mass(self):
        # the lasso solution is non-unique per duplicate, but the total
        # absolute weight matches the single-column fit
        rng = np.random.default_rng(13)
        y = rng.integers(0, 2, size=150)
        col = y + rng.normal(0, 0.1, 150)
        col = (col - col.mean()) / col.std()
        single = l1_score(col.reshape(-1, 1), y, lam=0.05)[0]
        dup = l1_score(np.column_stack([col, col]), y, lam=0.05)
        assert np.all(dup >= 0.0)
        assert dup.sum() == pytest.approx(single, rel=1e-4)

    def test_sweep_cap_warns_once(self, caplog):
        rng = np.random.default_rng(14)
        y = rng.integers(0, 2, size=100)
        X = self._standardized(np.column_stack([y + rng.normal(0, 0.5, 100), rng.normal(size=100)]))
        with caplog.at_level("WARNING", logger="veritag"):
            capped = l1_score(X, y, max_sweeps=1)
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 1
        assert "1-sweep cap" in warnings[0] and "largest step" in warnings[0]
        assert capped.shape == (2,)
        caplog.clear()
        with caplog.at_level("WARNING", logger="veritag"):
            l1_score(X, y)
        assert caplog.records == []

    def test_non_binary_labels_rejected(self):
        with pytest.raises(DataError):
            l1_score(np.ones((4, 1)), np.array([0, 1, 2, 1]))

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            l1_score(np.ones((4, 1)), np.zeros(4, dtype=int))


class TestCombineFactors:
    def test_identity(self):
        ones = np.ones(5)
        assert np.array_equal(combine_factors(ones, ones, ones, ones), ones)

    def test_zero_annihilation(self):
        r = combine_factors(
            np.array([0.0, 1.0]), np.array([1.0, 0.0]),
            np.array([1.0, 1.0]), np.array([1.0, 1.0]),
        )
        assert np.array_equal(r, np.zeros(2))

    def test_exact_fourth_root(self):
        r = combine_factors(
            np.array([0.0625]), np.array([1.0]), np.array([1.0]), np.array([1.0])
        )
        assert r[0] == 0.5

    def test_monotone_in_each_factor(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            factors = rng.uniform(0.0, 1.0, size=4)
            base = combine_factors(*(np.array([f]) for f in factors))[0]
            position = rng.integers(0, 4)
            bumped = factors.copy()
            bumped[position] = min(1.0, bumped[position] + rng.uniform(0.0, 1.0 - bumped[position]))
            higher = combine_factors(*(np.array([f]) for f in bumped))[0]
            assert higher >= base - 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(22)
        f = [rng.uniform(0, 1, size=8) for _ in range(4)]
        r = combine_factors(*f)
        perm = rng.permutation(8)
        r_perm = combine_factors(*(a[perm] for a in f))
        assert np.array_equal(r[perm], r_perm)

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            combine_factors(
                np.array([1.5]), np.array([1.0]), np.array([1.0]), np.array([1.0])
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            combine_factors(np.ones(2), np.ones(3), np.ones(2), np.ones(2))


class TestAggregateImportance:
    def test_all_equal_factor_normalizes_neutral(self):
        # identical tb everywhere: min-max maps it to all ones
        names = ["a", "b"]
        scores = aggregate_importance(
            names,
            se_raw=np.array([1.0, 2.0]),
            tb_raw=np.array([3.0, 3.0]),
            l1_raw=np.array([0.0, 1.0]),
            mi_raw=np.array([0.0, 1.0]),
        )
        assert np.array_equal(scores.tb_norm, np.ones(2))

    def test_inverted_entropy_ranks_low_entropy_high(self):
        names = ["low", "high"]
        scores = aggregate_importance(
            names,
            se_raw=np.array([0.1, 3.0]),
            tb_raw=np.array([1.0, 1.0]),
            l1_raw=np.array([1.0, 1.0]),
            mi_raw=np.array([1.0, 1.0]),
        )
        assert scores.se_inv_norm[0] == 1.0
        assert scores.se_inv_norm[1] == 0.0

    def test_r_is_geometric_mean_of_normalized_factors(self):
        rng = np.random.default_rng(23)
        names = [f"f{i}" for i in range(6)]
        scores = aggregate_importance(
            names,
            se_raw=rng.uniform(0, 3, 6),
            tb_raw=rng.uniform(0, 1, 6),
            l1_raw=rng.uniform(0, 2, 6),
            mi_raw=rng.uniform(0, 1, 6),
        )
        expected = (
            scores.se_inv_norm * scores.tb_norm * scores.l1_norm * scores.mi_norm
        ) ** 0.25
        assert np.allclose(scores.r, expected, atol=1e-15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            aggregate_importance(
                ["a"], np.ones(2), np.ones(2), np.ones(2), np.ones(2)
            )

    def test_retained_mask(self):
        scores = aggregate_importance(
            ["a", "b"],
            se_raw=np.array([1.0, 2.0]),
            tb_raw=np.array([1.0, 0.0]),
            l1_raw=np.array([1.0, 1.0]),
            mi_raw=np.array([1.0, 1.0]),
        )
        assert scores.retained.tolist() == [True, False]


def _synthetic_selection_problem(seed=0, n=500):
    """1 label-copy column, 1 constant column, 18 noise columns."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    X = np.empty((n, 20))
    X[:, 0] = y
    X[:, 1] = 2.5
    X[:, 2:] = rng.normal(size=(n, 18))
    names = ["R.W", "R.STC"] + [f"R.{i}" for i in range(18)]
    schema_names = tuple(names)
    return X, y, schema_names


class TestSelectFeatures:
    def test_synthetic_label_copy_and_constant(self):
        X, y, names = _synthetic_selection_problem()
        from veritag import FeatureSchema

        schema = FeatureSchema(names=names, granularity="HC", groups=("R",))
        pruned, scores = select_features(X, y, schema, seed=0)
        assert "R.W" in pruned.names
        assert "R.STC" not in pruned.names
        assert scores.r[0] == max(scores.r)
        assert scores.r[1] == 0.0

    def test_order_preserved(self):
        X, y, names = _synthetic_selection_problem(seed=1)
        from veritag import FeatureSchema

        schema = FeatureSchema(names=names, granularity="HC", groups=("R",))
        pruned, _ = select_features(X, y, schema, seed=0)
        positions = [schema.names.index(n) for n in pruned.names]
        assert positions == sorted(positions)

    def test_all_dropped_is_hard_error(self):
        # a constant column loses on mutual information and tree importance;
        # a pure-noise column loses on inverted entropy: every r is 0
        from veritag import FeatureSchema

        rng = np.random.default_rng(31)
        y = np.array([0, 1] * 30)
        X = np.column_stack([np.full(60, 1.0), rng.normal(size=60)])
        schema = FeatureSchema(names=("R.W", "R.STC"), granularity="HC", groups=("R",))
        with pytest.raises(DataError):
            select_features(X, y, schema, seed=0)

    def test_report_csv(self, tmp_path):
        X, y, names = _synthetic_selection_problem(seed=2, n=120)
        from veritag import FeatureSchema

        schema = FeatureSchema(names=names, granularity="HC", groups=("R",))
        _, scores = select_features(X, y, schema, seed=0)
        path = tmp_path / "importance.csv"
        write_importance_report(path, scores)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[:3] == ["feature", "se_raw", "tb_raw"]
        assert len(lines) == 1 + len(names)
        assert "-0," not in path.read_text()
