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

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, InvariantError
from .featureset import FeatureSchema, prune_to_names, standardize_apply, standardize_fit

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


def _gini(y: np.ndarray, n_classes: int) -> float:
    counts = np.bincount(y, minlength=n_classes)
    p = counts / y.size
    return float(1.0 - (p * p).sum())


def tree_importance(
    X: np.ndarray, y: np.ndarray, n_trees: int = DEFAULT_TREES, seed: int = 0
) -> np.ndarray:
    """Impurity-decrease importance from an ensemble of extremely
    randomized trees, normalized to sum 1.

    Each tree grows on the full sample; at each node sqrt(d) candidate
    features are drawn without replacement, each gets one uniform random
    threshold inside its value range, and the best Gini decrease wins.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if n_trees < 1:
        raise ConfigError("need at least one tree")
    classes = np.unique(y)
    if classes.size < 2:
        raise DataError("tree importance needs at least 2 classes")
    n, d = X.shape
    n_classes = int(classes.max()) + 1
    m = max(1, int(math.sqrt(d)))

    importance = np.zeros(d)
    for child_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child_seed)
        tree_imp = np.zeros(d)
        stack = [np.arange(n)]
        while stack:
            idx = stack.pop()
            labels = y[idx]
            node_gini = _gini(labels, n_classes)
            if idx.size < 2 or node_gini == 0.0:
                continue
            candidates = rng.choice(d, size=m, replace=False)
            best: tuple[float, np.ndarray, np.ndarray] | None = None
            for f in candidates:
                col = X[idx, f]
                lo, hi = col.min(), col.max()
                if lo == hi:
                    continue
                thr = rng.uniform(lo, hi)
                left = col <= thr
                if left.all() or not left.any():
                    continue
                nl = left.sum()
                decrease = node_gini - (
                    nl / idx.size * _gini(labels[left], n_classes)
                    + (idx.size - nl) / idx.size * _gini(labels[~left], n_classes)
                )
                if best is None or decrease > best[0]:
                    best = (decrease, idx[left], idx[~left])
                    best_feature = f
            if best is None:
                continue
            decrease, left_idx, right_idx = best
            tree_imp[best_feature] += idx.size / n * max(decrease, 0.0)
            stack.append(left_idx)
            stack.append(right_idx)
        importance += tree_imp
    importance /= n_trees
    total = importance.sum()
    if total > 0.0:
        importance /= total
    return importance


def _sigmoid(u: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(u, -35.0, 35.0)))


def l1_score(
    X: np.ndarray,
    y: np.ndarray,
    lam: float = DEFAULT_L1_LAMBDA,
    tol: float = _L1_TOL,
    max_sweeps: int = _L1_MAX_SWEEPS,
) -> np.ndarray:
    """|coefficients| of L1-regularized logistic regression.

    Fit by cyclic coordinate descent (intercept first, then features in
    column order) using a quadratic majorizer per coordinate, so the
    objective never increases. Stops when no coordinate moves by tol in a
    sweep, or after max_sweeps sweeps with a warning. Expects standardized
    X and binary y.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if set(np.unique(y)) - {0, 1}:
        raise DataError("l1 score needs binary 0/1 labels")
    if np.unique(y).size < 2:
        raise DataError("l1 score needs both classes present")
    n, d = X.shape
    t = np.where(np.asarray(y) == 1, 1.0, -1.0)
    H = 0.25 * (X * X).mean(axis=0)
    w = np.zeros(d)
    b = 0.0
    f = np.zeros(n)

    max_step = math.inf
    for _ in range(max_sweeps):
        max_step = 0.0
        # unpenalized intercept
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
    names: tuple[str, ...]
    se_raw: np.ndarray
    tb_raw: np.ndarray
    l1_raw: np.ndarray
    mi_raw: np.ndarray
    se_inv_norm: np.ndarray
    tb_norm: np.ndarray
    l1_norm: np.ndarray
    mi_norm: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        arrays = (
            self.se_raw, self.tb_raw, self.l1_raw, self.mi_raw,
            self.se_inv_norm, self.tb_norm, self.l1_norm, self.mi_norm, self.r,
        )
        if any(a.shape != (len(self.names),) for a in arrays):
            raise InvariantError("importance arrays misaligned with names")
        check = (self.se_inv_norm * self.tb_norm * self.l1_norm * self.mi_norm) ** 0.25
        if np.max(np.abs(check - self.r), initial=0.0) > 1e-12:
            raise InvariantError("r does not equal the geometric mean of factors")

    @property
    def retained(self) -> np.ndarray:
        return self.r > 0.0


def aggregate_importance(
    names: Sequence[str],
    se_raw: np.ndarray,
    tb_raw: np.ndarray,
    l1_raw: np.ndarray,
    mi_raw: np.ndarray,
) -> ImportanceScores:
    """Combine the four raw scores into r per feature.

    Entropy enters inverted (1/(se+eps)); all four factors are min-max
    normalized across features before the geometric mean.
    """
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
    return ImportanceScores(
        names=tuple(names),
        se_raw=se_raw, tb_raw=tb_raw, l1_raw=l1_raw, mi_raw=mi_raw,
        se_inv_norm=se_inv_norm, tb_norm=tb_norm, l1_norm=l1_norm,
        mi_norm=mi_norm, r=r,
    )


def select_features(
    X: np.ndarray,
    y: np.ndarray,
    schema: FeatureSchema,
    bins: int = DEFAULT_BINS,
    trees: int = DEFAULT_TREES,
    lam: float = DEFAULT_L1_LAMBDA,
    seed: int = 0,
) -> tuple[FeatureSchema, ImportanceScores]:
    """One-shot selection: score every feature, drop those with r = 0.

    X is the raw feature matrix; it is standardized internally for the L1
    scorer only. Survivors keep their schema order.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(schema.names):
        raise DataError("matrix does not match the schema")
    se = np.array([shannon_entropy_score(X[:, j], bins) for j in range(X.shape[1])])
    mi = np.array([mutual_info_score(X[:, j], y, bins) for j in range(X.shape[1])])
    tb = tree_importance(X, y, n_trees=trees, seed=seed)
    params = standardize_fit(X)
    l1 = l1_score(standardize_apply(params, X), y, lam=lam)
    scores = aggregate_importance(schema.names, se, tb, l1, mi)
    survivors = [n for n, keep in zip(schema.names, scores.retained) if keep]
    if not survivors:
        raise DataError("every feature scored r = 0; data looks degenerate")
    return prune_to_names(schema, survivors, "computed:"), scores


REPORT_COLUMNS = (
    "feature", "se_raw", "tb_raw", "l1_raw", "mi_raw",
    "se_inv_norm", "tb_norm", "l1_norm", "mi_norm", "r", "retained",
)


def write_importance_report(path: str | Path, scores: ImportanceScores) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for i, name in enumerate(scores.names):
            writer.writerow([
                name,
                *("%.9g" % v for v in (
                    scores.se_raw[i], scores.tb_raw[i], scores.l1_raw[i],
                    scores.mi_raw[i], scores.se_inv_norm[i], scores.tb_norm[i],
                    scores.l1_norm[i], scores.mi_norm[i], scores.r[i],
                )),
                "1" if scores.retained[i] else "0",
            ])
