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
from ..featureset import feature_rows
from ..workers import fork_map


def _gini(counts: np.ndarray, total: int) -> float:
    p = counts / total
    return float(1.0 - (p * p).sum())


def _best_split(
    block: np.ndarray, labels: np.ndarray, n_classes: int, parent_gini: float,
    rng: np.random.Generator,
) -> tuple[float, float, int] | None:
    """(decrease, threshold, column) of the best split over midpoints of
    consecutive distinct values in every column of block; ties keep the
    lowest threshold, then the first column. None when every column is
    constant. Draws nothing from rng."""
    n = block.shape[0]
    order = np.argsort(block, axis=0, kind="stable")
    svals = np.take_along_axis(block, order, axis=0)
    boundary = svals[1:] > svals[:-1]  # (n - 1, columns)
    if not boundary.any():
        return None
    onehot = (labels[order][:, :, None] == np.arange(n_classes)).astype(np.float64)
    prefix = onehot.cumsum(axis=0)  # (n, columns, classes)
    total = prefix[-1]

    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = n - nl
    cl = prefix[:-1]
    cr = total - cl
    gl = 1.0 - ((cl / nl[:, :, None]) ** 2).sum(axis=2)
    gr = 1.0 - ((cr / nr[:, :, None]) ** 2).sum(axis=2)
    decreases = parent_gini - (nl / n) * gl - (nr / n) * gr
    decreases[~boundary] = -np.inf
    rows = np.argmax(decreases, axis=0)  # first max = lowest threshold
    per_column = decreases[rows, np.arange(block.shape[1])]
    j = int(np.argmax(per_column))  # first max = first candidate drawn
    b = rows[j]
    thr = float((svals[b, j] + svals[b + 1, j]) / 2.0)
    return float(per_column[j]), thr, j


def _random_split(
    block: np.ndarray, labels: np.ndarray, n_classes: int, parent_gini: float,
    rng: np.random.Generator,
) -> tuple[float, float, int] | None:
    """(decrease, threshold, column) of the best of one uniform threshold
    per non-constant column of block, drawn in column order; ties keep the
    first column. Constant columns draw nothing; a threshold that leaves
    one side empty does not split. None when no column splits."""
    lo, hi = block.min(axis=0), block.max(axis=0)
    columns = np.flatnonzero(lo != hi)
    if columns.size == 0:
        return None
    thr = rng.uniform(lo[columns], hi[columns])
    left = block[:, columns] <= thr  # (n, candidates)
    n = block.shape[0]
    nl = left.sum(axis=0)
    onehot = labels[:, None] == np.arange(n_classes)
    cl = left.T.astype(np.int64) @ onehot  # (candidates, classes)
    cr = onehot.sum(axis=0) - cl
    splits = (nl > 0) & (nl < n)
    if not splits.any():
        return None
    nr = n - nl
    with np.errstate(invalid="ignore", divide="ignore"):  # unsplit columns
        pl, pr = cl / nl[:, None], cr / nr[:, None]
    gl = 1.0 - (pl * pl).sum(axis=1)
    gr = 1.0 - (pr * pr).sum(axis=1)
    decreases = parent_gini - (nl / n * gl + nr / n * gr)
    decreases[~splits] = -np.inf
    k = int(np.argmax(decreases))  # first max = first candidate drawn
    return float(decreases[k]), float(thr[k]), int(columns[k])


def _grow(
    X: np.ndarray, y: np.ndarray, sample: np.ndarray, rng: np.random.Generator,
    split: Callable, right_first: bool,
) -> dict[str, list]:
    """One tree on the rows in sample, depth first from an explicit stack,
    to purity or single-row leaves. Each node draws sqrt(d) candidate
    features without replacement and keeps the first strictly best split,
    searched over all candidates in one call. Nodes are numbered in visit
    order, which also fixes the rng draw order."""
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
        best = None
        if idx.size >= 2 and gini != 0.0:
            candidates = rng.choice(X.shape[1], size=m, replace=False)
            best = split(X[np.ix_(idx, candidates)], labels, n_classes, gini, rng)
        if best is None:
            row = (-1, 0.0, -1, -1, counts.tolist(), 0.0)
        else:
            decrease, thr, j = best
            f = int(candidates[j])
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
    X: np.ndarray, y: np.ndarray, n_trees: int, seed: int,
    *, jobs: int | None = None,
) -> RandomForestModel:
    """Each tree grows on a bootstrap sample to purity (or single-example
    leaves), choosing the best Gini split among sqrt(d) candidate features
    per node, left child first. Per-tree seeds spawn from the master
    seed, so the trees grow in up to ``jobs`` processes (default: the
    usable CPUs) and come out the same for any ``jobs``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if n_trees < 1:
        raise DataError("need at least one tree")
    if np.unique(y).size < 2:
        raise DataError("training needs both classes present")
    n, d = X.shape

    def tree(child_seed: np.random.SeedSequence) -> dict[str, list]:
        rng = np.random.default_rng(child_seed)
        sample = rng.integers(0, n, size=n)
        return _grow(X, y, sample, rng, _best_split, right_first=False)

    trees = fork_map(tree, np.random.SeedSequence(seed).spawn(n_trees), jobs)
    return RandomForestModel(trees=trees, seed=seed, n_classes=int(y.max()) + 1, n_features=d)


def _tree_class(tree: dict[str, list], x: list[float]) -> int:
    feature, threshold = tree["feature"], tree["threshold"]
    node = 0
    while (f := feature[node]) >= 0:
        node = tree["left"][node] if x[f] <= threshold[node] else tree["right"][node]
    counts = tree["counts"][node]
    return counts.index(max(counts))  # tie -> lowest class id


def rf_predict(model: RandomForestModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(classes, vote fractions) of the rows of X; vote ties go to the
    lowest class id."""
    X = feature_rows(X, model.n_features)
    votes = np.zeros((len(X), model.n_classes), dtype=np.int64)
    for row, x in enumerate(X.tolist()):
        for tree in model.trees:
            votes[row, _tree_class(tree, x)] += 1
    classes = votes.argmax(axis=1)
    return classes, votes[np.arange(len(X)), classes] / len(model.trees)
