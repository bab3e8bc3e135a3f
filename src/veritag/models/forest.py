"""Gini trees, grown by one iterative grower for both the random forest
and the extremely randomized trees of the selection scorer.

A tree is a dict of flat JSON-native node lists in visit order, the layout
of scikit-learn's ``Tree``: feature, threshold, left, right (-1 at leaves),
counts (class tallies at leaves, None elsewhere) and decrease (the Gini
decrease weighted by the node's share of the sample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import DataError

DEFAULT_TREES = 100


def _gini(counts: np.ndarray, total: int) -> float:
    p = counts / total
    return float(1.0 - (p * p).sum())


def _best_split(
    col: np.ndarray, labels: np.ndarray, n_classes: int, parent_gini: float,
    rng: np.random.Generator,
) -> tuple[float, float] | None:
    """Best (decrease, threshold) over midpoints of consecutive distinct
    values; ties keep the lowest threshold. None when the column is
    constant. Draws nothing from rng."""
    order = np.argsort(col, kind="stable")
    svals = col[order]
    slabs = labels[order]
    n = len(col)
    boundaries = np.nonzero(svals[1:] > svals[:-1])[0]
    if boundaries.size == 0:
        return None
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), slabs] = 1.0
    prefix = onehot.cumsum(axis=0)
    total = prefix[-1]

    nl = (boundaries + 1).astype(np.float64)
    nr = n - nl
    cl = prefix[boundaries]
    cr = total - cl
    gl = 1.0 - ((cl / nl[:, None]) ** 2).sum(axis=1)
    gr = 1.0 - ((cr / nr[:, None]) ** 2).sum(axis=1)
    decreases = parent_gini - (nl / n) * gl - (nr / n) * gr
    best = int(np.argmax(decreases))  # first max = lowest threshold
    thr = float((svals[boundaries[best]] + svals[boundaries[best] + 1]) / 2.0)
    return float(decreases[best]), thr


def _random_split(
    col: np.ndarray, labels: np.ndarray, n_classes: int, parent_gini: float,
    rng: np.random.Generator,
) -> tuple[float, float] | None:
    """(decrease, threshold) for one uniform threshold inside the column's
    range. A constant column draws nothing; a threshold that leaves one
    side empty gives None."""
    lo, hi = col.min(), col.max()
    if lo == hi:
        return None
    thr = rng.uniform(lo, hi)
    left = col <= thr
    if left.all() or not left.any():
        return None
    n = col.size
    nl = left.sum()
    decrease = parent_gini - (
        nl / n * _gini(np.bincount(labels[left], minlength=n_classes), nl)
        + (n - nl) / n * _gini(np.bincount(labels[~left], minlength=n_classes), n - nl)
    )
    return decrease, thr


def _grow(
    X: np.ndarray, y: np.ndarray, sample: np.ndarray, rng: np.random.Generator,
    split: Callable, right_first: bool,
) -> dict[str, list]:
    """One tree on the rows in sample, depth first from an explicit stack,
    to purity or single-row leaves. Each node draws sqrt(d) candidate
    features without replacement and keeps the first strictly best split.
    Nodes are numbered in visit order, which also fixes the rng draw order."""
    tree: dict[str, list] = {
        k: [] for k in ("feature", "threshold", "left", "right", "counts", "decrease")
    }
    n, n_classes, m = sample.size, int(y.max()) + 1, max(1, int(math.sqrt(X.shape[1])))
    stack = [(sample, -1, "")]  # (rows, parent node, "left"/"right" link to set)
    while stack:
        idx, parent, side = stack.pop()
        node = len(tree["feature"])
        if parent >= 0:
            tree[side][parent] = node
        labels = y[idx]
        counts = np.bincount(labels, minlength=n_classes)
        gini = _gini(counts, idx.size)
        best: tuple[float, float, int] | None = None
        if idx.size >= 2 and gini != 0.0:
            for f in rng.choice(X.shape[1], size=m, replace=False):
                found = split(X[idx, f], labels, n_classes, gini, rng)
                if found is not None and (best is None or found[0] > best[0]):
                    best = (*found, int(f))
        if best is None:
            row = (-1, 0.0, -1, -1, counts.tolist(), 0.0)
        else:
            decrease, thr, f = best
            row = (f, thr, -1, -1, None, float(idx.size / n * max(decrease, 0.0)))
            goes_left = X[idx, f] <= thr
            children = [(idx[goes_left], node, "left"), (idx[~goes_left], node, "right")]
            stack.extend(children if right_first else children[::-1])
        for column, value in zip(tree.values(), row):
            column.append(value)
    return tree


def extra_tree(X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> dict[str, list]:
    """An extremely randomized tree (Geurts et al., 2006) on every row:
    one uniform threshold per candidate, right child visited first."""
    return _grow(X, y, np.arange(len(y)), rng, _random_split, right_first=True)


@dataclass(frozen=True)
class RandomForestModel:
    trees: list[dict[str, list]]
    seed: int
    n_classes: int
    n_features: int


def rf_train(
    X: np.ndarray, y: np.ndarray, n_trees: int = DEFAULT_TREES, seed: int = 0
) -> RandomForestModel:
    """Each tree grows on a bootstrap sample to purity (or single-example
    leaves), choosing the best Gini split among sqrt(d) candidate features
    per node, left child first. Per-tree seeds spawn from the master
    seed."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if n_trees < 1:
        raise DataError("need at least one tree")
    if np.unique(y).size < 2:
        raise DataError("training needs both classes present")
    n, d = X.shape
    trees = []
    for child_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child_seed)
        sample = rng.integers(0, n, size=n)
        trees.append(_grow(X, y, sample, rng, _best_split, right_first=False))
    return RandomForestModel(trees=trees, seed=seed, n_classes=int(y.max()) + 1, n_features=d)


def _tree_class(tree: dict[str, list], x: np.ndarray) -> int:
    feature, threshold = tree["feature"], tree["threshold"]
    node = 0
    while (f := feature[node]) >= 0:
        node = tree["left"][node] if x[f] <= threshold[node] else tree["right"][node]
    return int(np.argmax(tree["counts"][node]))  # tie -> lowest class id


def rf_predict(model: RandomForestModel, x: np.ndarray) -> tuple[int, float]:
    """(class, vote fraction); vote ties go to the lowest class id."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n_features,):
        raise DataError(
            f"vector has {x.shape} shape, model expects ({model.n_features},)"
        )
    votes = np.zeros(model.n_classes, dtype=np.int64)
    for tree in model.trees:
        votes[_tree_class(tree, x)] += 1
    winner = int(np.argmax(votes))
    return winner, float(votes[winner] / len(model.trees))
