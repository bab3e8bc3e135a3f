"""Feature scorers, the geometric-mean combination, and pruning."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from veritag import (
    ImportanceScores,
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
from veritag.selection import SE_EPSILON, _minmax, _sigmoid


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


def _reference_l1_score(X, y, lam=0.05, tol=1e-6, max_sweeps=10_000):
    """l1_score as it was while it recomputed the loss weights for every
    coordinate, warning aside."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    t = np.where(np.asarray(y) == 1, 1.0, -1.0)
    H = 0.25 * (X * X).mean(axis=0)
    w = np.zeros(d)
    b = 0.0
    f = np.zeros(n)
    for _ in range(max_sweeps):
        max_step = 0.0
        g_b = -np.mean(t * _sigmoid(-t * f))
        delta_b = -g_b / 0.25
        b += delta_b
        f += delta_b
        max_step = abs(delta_b)
        for j in range(d):
            if H[j] == 0.0:
                continue
            col = X[:, j]
            g = -np.dot(t * _sigmoid(-t * f), col) / n
            z = H[j] * w[j] - g
            w_new = math.copysign(max(abs(z) - lam, 0.0), z) / H[j]
            delta = w_new - w[j]
            if delta != 0.0:
                f += col * delta
                w[j] = w_new
            max_step = max(max_step, abs(delta))
        if max_step < tol:
            break
    return np.abs(w)


@st.composite
def _l1_problems(draw):
    """Standardized columns, some carrying the label, some constant (never
    moved), with 0/1 labels of both classes."""
    n = draw(st.integers(4, 24))
    d = draw(st.integers(1, 6))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    assume(0 < y.sum() < n)
    columns = []
    for _ in range(d):
        noise = np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)), float)
        col = draw(st.sampled_from([0.0, 0.5, 2.0])) * y + noise
        std = col.std()
        columns.append(np.zeros(n) if std == 0.0 else (col - col.mean()) / std)
    lam = draw(st.sampled_from([0.01, 0.05, 0.2]))
    return np.column_stack(columns), y, lam


class TestL1MatchesReference:
    @given(_l1_problems(), st.sampled_from([1, 2, 10_000]))
    @settings(max_examples=150, deadline=None)
    def test_scores_are_bit_equal(self, problem, max_sweeps):
        X, y, lam = problem
        expected = _reference_l1_score(X, y, lam=lam, max_sweeps=max_sweeps)
        got = l1_score(X, y, lam=lam, max_sweeps=max_sweeps)
        assert got.tobytes() == expected.tobytes()


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


class TestImportanceScores:
    def test_all_equal_factor_normalizes_neutral(self):
        # identical tb everywhere: min-max maps it to all ones
        names = ["a", "b"]
        scores = ImportanceScores(
            names,
            se_raw=np.array([1.0, 2.0]),
            tb_raw=np.array([3.0, 3.0]),
            l1_raw=np.array([0.0, 1.0]),
            mi_raw=np.array([0.0, 1.0]),
        )
        assert np.array_equal(scores.tb_norm, np.ones(2))

    def test_inverted_entropy_ranks_low_entropy_high(self):
        names = ["low", "high"]
        scores = ImportanceScores(
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
        scores = ImportanceScores(
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

    @pytest.mark.parametrize("sizes", [(2, 2, 2, 2), (1, 1, 2, 1)], ids=["all", "one"])
    def test_length_mismatch_rejected(self, sizes):
        with pytest.raises(DataError, match="must all match the feature count"):
            ImportanceScores(["a"], *(np.ones(n) for n in sizes))

    def test_retained_mask(self):
        scores = ImportanceScores(
            ["a", "b"],
            se_raw=np.array([1.0, 2.0]),
            tb_raw=np.array([1.0, 0.0]),
            l1_raw=np.array([1.0, 1.0]),
            mi_raw=np.array([1.0, 1.0]),
        )
        assert scores.retained.tolist() == [True, False]


def _reference_aggregate_importance(names, se_raw, tb_raw, l1_raw, mi_raw):
    """aggregate_importance as it was while ImportanceScores stored its
    factors and r: the same arithmetic, returning the arrays it stored."""
    arrays = [np.asarray(a, dtype=np.float64) for a in (se_raw, tb_raw, l1_raw, mi_raw)]
    if len({a.shape for a in arrays}) != 1 or arrays[0].shape != (len(names),):
        raise DataError("score arrays must all match the feature count")
    se_raw, tb_raw, l1_raw, mi_raw = arrays
    se_inv = 1.0 / (se_raw + SE_EPSILON)
    se_inv_norm = _minmax(se_inv)
    tb_norm = _minmax(tb_raw)
    l1_norm = _minmax(l1_raw)
    mi_norm = _minmax(mi_raw)
    r = combine_factors(se_inv_norm, tb_norm, l1_norm, mi_norm)
    return dict(
        se_raw=se_raw, tb_raw=tb_raw, l1_raw=l1_raw, mi_raw=mi_raw,
        se_inv_norm=se_inv_norm, tb_norm=tb_norm, l1_norm=l1_norm,
        mi_norm=mi_norm, r=r,
    )


_SCORE = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),  # ties
    st.floats(0.0, 1.0, allow_subnormal=False),
    st.floats(0.0, 1e12, allow_subnormal=False),
    st.floats(1e-12, 1e-6),
)


@st.composite
def _raw_scores(draw, d):
    """One raw score per feature: a constant or all-zero column, or a mix
    of tied values and magnitudes from 1e-12 to 1e12."""
    kind = draw(st.sampled_from(["zeros", "constant", "mixed"]))
    if kind == "zeros":
        return np.zeros(d)
    if kind == "constant":
        return np.full(d, draw(_SCORE))
    return np.array(draw(st.lists(_SCORE, min_size=d, max_size=d)))


@st.composite
def _score_sets(draw):
    d = draw(st.integers(1, 12))
    return [f"f{i}" for i in range(d)], [draw(_raw_scores(d)) for _ in range(4)]


class TestImportanceScoresMatchReference:
    @given(_score_sets())
    @settings(max_examples=300, deadline=None)
    def test_every_array_is_bit_equal(self, problem):
        names, raw = problem
        expected = _reference_aggregate_importance(names, *raw)
        scores = ImportanceScores(names, *raw)
        for field, array in expected.items():
            assert getattr(scores, field).tobytes() == array.tobytes(), field
        assert np.array_equal(scores.retained, expected["r"] > 0.0)


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
