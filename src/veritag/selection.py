"""Feature importance: four scorers combined by a geometric mean.

The combined score for a feature is the fourth root of the product of four
min-max-normalized factors: inverse Shannon entropy, extremely-randomized-
trees impurity importance, |L1-logistic coefficient|, and mutual information
with the label. Features with a zero combined score are dropped.

Inverse entropy rewards low-entropy (near-constant) features, which is
counterintuitive; the formula is implemented as published rather than
corrected. See the README discussion.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError, write_csv
from .featureset import FeatureSchema, prune_to_names, standardize_apply, standardize_fit
from .models.forest import extra_tree
from .workers import fork_map

DEFAULT_BINS = 10
DEFAULT_TREES = 250
DEFAULT_L1_LAMBDA = 0.05
SE_EPSILON = 1e-9

_L1_TOL = 1e-6
_L1_MAX_SWEEPS = 10_000

log = logging.getLogger("veritag")


def quantile_bin(column: np.ndarray, bins: int) -> np.ndarray:
    """Equal-frequency bin ids. Edges are the data values at the quantile
    ranks (duplicates merged); a value equal to an edge falls in the bin
    below, so bins are right-closed."""
    if bins < 2:
        raise ConfigError("binning needs at least 2 bins")
    column = np.asarray(column, dtype=np.float64)
    if column.size == 0:
        raise DataError("cannot bin an empty column")
    ordered = np.sort(column)
    n = ordered.size
    positions = [math.ceil(n * i / bins) - 1 for i in range(1, bins)]
    edges = np.unique(ordered[positions])
    return np.searchsorted(edges, column, side="left")


def shannon_entropy_score(column: np.ndarray, bins: int = DEFAULT_BINS) -> float:
    """Entropy in bits of the quantile-binned column."""
    ids = quantile_bin(column, bins)
    counts = np.bincount(ids)
    p = counts[counts > 0] / ids.size
    return float(-(p * np.log2(p)).sum() + 0.0)  # +0.0 avoids -0.0 in reports


def mutual_info_score(
    column: np.ndarray, y: np.ndarray, bins: int = DEFAULT_BINS
) -> float:
    """Plug-in MI in bits between the quantile-binned column and labels."""
    y = np.asarray(y)
    if y.size == 0:
        raise DataError("cannot compute mutual information on empty input")
    ids = quantile_bin(column, bins)
    if ids.size != y.size:
        raise DataError("column and labels differ in length")
    classes = np.unique(y)
    n = float(y.size)
    mi = 0.0
    for b in np.unique(ids):
        in_bin = ids == b
        p_b = in_bin.sum() / n
        for c in classes:
            joint = np.sum(in_bin & (y == c)) / n
            if joint > 0.0:
                p_c = np.sum(y == c) / n
                mi += joint * math.log2(joint / (p_b * p_c))
    return max(mi, 0.0)


def _tree_scorers(
    X: np.ndarray, y: np.ndarray, n_trees: int, seed: int
) -> list[Callable[[], np.ndarray]]:
    """One task per extremely randomized tree of ``tree_importance``: each
    grows its tree from its own spawned seed and returns the tree's
    impurity decrease per feature."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if n_trees < 1:
        raise ConfigError("need at least one tree")
    if np.unique(y).size < 2:
        raise DataError("tree importance needs at least 2 classes")

    def decreases(child_seed: np.random.SeedSequence) -> np.ndarray:
        tree = extra_tree(X, y, np.random.default_rng(child_seed))
        imp = np.zeros(X.shape[1])
        for f, decrease in zip(tree["feature"], tree["decrease"]):
            if f >= 0:
                imp[f] += decrease
        return imp

    return [partial(decreases, s) for s in np.random.SeedSequence(seed).spawn(n_trees)]


def _mean_importance(per_tree: Sequence[np.ndarray]) -> np.ndarray:
    """The trees' decreases summed in tree order and averaged, normalized
    to sum 1."""
    importance = np.zeros_like(per_tree[0])
    for imp in per_tree:
        importance += imp
    importance /= len(per_tree)
    total = importance.sum()
    if total > 0.0:
        importance /= total
    return importance


def _run(task: Callable):
    return task()


def tree_importance(
    X: np.ndarray, y: np.ndarray, n_trees: int = DEFAULT_TREES, seed: int = 0,
    *, jobs: int | None = None,
) -> np.ndarray:
    """Impurity-decrease importance from an ensemble of extremely
    randomized trees, normalized to sum 1.

    Each tree grows on the full sample; at each node sqrt(d) candidate
    features are drawn without replacement, each gets one uniform random
    threshold inside its value range, and the best Gini decrease wins.
    The trees grow in up to ``jobs`` processes (default: the usable CPUs);
    their importances are summed in tree order, so the result does not
    depend on ``jobs``.
    """
    return _mean_importance(fork_map(_run, _tree_scorers(X, y, n_trees, seed), jobs))


def _sigmoid(u: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(u, -35.0, 35.0)))


def l1_score(
    X: np.ndarray,
    y: np.ndarray,
    lam: float = DEFAULT_L1_LAMBDA,
    max_sweeps: int = _L1_MAX_SWEEPS,
) -> np.ndarray:
    """|coefficients| of L1-regularized logistic regression.

    Fit by cyclic coordinate descent (intercept first, then features in
    column order) using a quadratic majorizer per coordinate, so the
    objective never increases. Stops when no coordinate moves by _L1_TOL in
    a sweep, or after max_sweeps sweeps with a warning. Expects standardized
    X and binary y.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if set(np.unique(y)) - {0, 1}:
        raise DataError("l1 score needs binary 0/1 labels")
    if np.unique(y).size < 2:
        raise DataError("l1 score needs both classes present")
    n, d = X.shape
    t = np.where(y == 1, 1.0, -1.0)
    H = 0.25 * (X * X).mean(axis=0)
    w = np.zeros(d)
    f = np.zeros(n)

    max_step = math.inf
    for _ in range(max_sweeps):
        # unpenalized intercept
        g_b = -np.mean(t * _sigmoid(-t * f))
        delta_b = -g_b / 0.25
        f += delta_b
        max_step = abs(delta_b)
        # the loss gradient's per-row weights change only when f does
        weights = t * _sigmoid(-t * f)
        for j in range(d):
            if H[j] == 0.0:
                continue
            col = X[:, j]
            g = -np.dot(weights, col) / n
            z = H[j] * w[j] - g
            w_new = math.copysign(max(abs(z) - lam, 0.0), z) / H[j]
            delta = w_new - w[j]
            if delta != 0.0:
                f += col * delta
                w[j] = w_new
                weights = t * _sigmoid(-t * f)
            max_step = max(max_step, abs(delta))
        if max_step < _L1_TOL:
            break
    else:
        log.warning(
            "l1_score stopped at the %d-sweep cap; largest step of the last sweep %.3g",
            max_sweeps, max_step,
        )
    return np.abs(w)


def _minmax(values: np.ndarray) -> np.ndarray:
    """Min-max to [0,1]; an all-equal column maps to all ones so the
    factor stays neutral in the product."""
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.ones_like(values)
    return (values - lo) / (hi - lo)


def combine_factors(
    se_inv: np.ndarray,
    tb: np.ndarray,
    l1: np.ndarray,
    mi: np.ndarray,
) -> np.ndarray:
    """Geometric mean of the four normalized factors: (se_inv*tb*l1*mi)^(1/4).

    Inputs are the already-normalized [0,1] factor arrays; any zero factor
    annihilates the product, all-ones gives 1.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in (se_inv, tb, l1, mi)]
    if len({a.shape for a in arrays}) != 1:
        raise DataError("factor arrays must all match the feature count")
    se_inv, tb, l1, mi = arrays
    if any(a.size and (a.min() < 0.0 or a.max() > 1.0) for a in arrays):
        raise DataError("factors must lie in [0,1]")
    return (se_inv * tb * l1 * mi) ** 0.25


@dataclass(frozen=True)
class ImportanceScores:
    """The four raw scores per feature; the normalized factors and r derive
    from them. Entropy enters inverted (1/(se+eps)); all four factors are
    min-max normalized across features before the geometric mean."""

    names: tuple[str, ...]
    se_raw: np.ndarray
    tb_raw: np.ndarray
    l1_raw: np.ndarray
    mi_raw: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        for raw in ("se_raw", "tb_raw", "l1_raw", "mi_raw"):
            object.__setattr__(self, raw, np.asarray(getattr(self, raw), dtype=np.float64))
            if getattr(self, raw).shape != (len(self.names),):
                raise DataError("score arrays must all match the feature count")

    @cached_property
    def se_inv_norm(self) -> np.ndarray:
        return _minmax(1.0 / (self.se_raw + SE_EPSILON))

    @cached_property
    def tb_norm(self) -> np.ndarray:
        return _minmax(self.tb_raw)

    @cached_property
    def l1_norm(self) -> np.ndarray:
        return _minmax(self.l1_raw)

    @cached_property
    def mi_norm(self) -> np.ndarray:
        return _minmax(self.mi_raw)

    @cached_property
    def r(self) -> np.ndarray:
        return combine_factors(self.se_inv_norm, self.tb_norm, self.l1_norm, self.mi_norm)

    @property
    def retained(self) -> np.ndarray:
        return self.r > 0.0


def select_features(
    X: np.ndarray,
    y: np.ndarray,
    schema: FeatureSchema,
    bins: int = DEFAULT_BINS,
    trees: int = DEFAULT_TREES,
    lam: float = DEFAULT_L1_LAMBDA,
    seed: int = 0,
    *,
    jobs: int | None = None,
) -> tuple[FeatureSchema, ImportanceScores]:
    """One-shot selection: score every feature, drop those with r = 0.

    X is the raw feature matrix; it is standardized internally for the L1
    scorer only. Survivors keep their schema order. The per-column scorers,
    the L1 scorer and each tree of the tree scorer are one item each of a
    round in up to ``jobs`` processes (default: the usable CPUs).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(schema.names):
        raise DataError("matrix does not match the schema")

    def per_column() -> tuple[np.ndarray, np.ndarray]:
        se = np.array([shannon_entropy_score(X[:, j], bins) for j in range(X.shape[1])])
        mi = np.array([mutual_info_score(X[:, j], y, bins) for j in range(X.shape[1])])
        return se, mi

    def l1() -> np.ndarray:
        return l1_score(standardize_apply(standardize_fit(X), X), y, lam=lam)

    # one round, so the trees fill the time the two serial scorers take
    (se, mi), l1_raw, *per_tree = fork_map(
        _run, [per_column, l1, *_tree_scorers(X, y, trees, seed)], jobs
    )
    scores = ImportanceScores(schema.names, se, _mean_importance(per_tree), l1_raw, mi)
    survivors = [n for n, keep in zip(schema.names, scores.retained) if keep]
    if not survivors:
        raise DataError("every feature scored r = 0; data looks degenerate")
    return prune_to_names(schema, survivors), scores


REPORT_COLUMNS = (
    "feature", "se_raw", "tb_raw", "l1_raw", "mi_raw",
    "se_inv_norm", "tb_norm", "l1_norm", "mi_norm", "r", "retained",
)


def write_importance_report(path: str | Path, scores: ImportanceScores) -> None:
    columns = [getattr(scores, column).tolist() for column in REPORT_COLUMNS[1:-1]]
    rows = (
        [name, *(column[i] for column in columns), int(scores.retained[i])]
        for i, name in enumerate(scores.names)
    )
    write_csv(path, REPORT_COLUMNS, rows)
