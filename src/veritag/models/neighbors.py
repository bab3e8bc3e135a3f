"""K-nearest-neighbors classifier (Euclidean distance)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, InvariantError
from ..featureset import feature_rows


@dataclass(frozen=True)
class KnnModel:
    k: int
    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if points.ndim != 2 or points.shape[0] != labels.shape[0]:
            raise InvariantError("points and labels disagree")
        if not 1 <= self.k <= points.shape[0]:
            raise DataError(f"k={self.k} outside 1..{points.shape[0]}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)


def knn_train(X: np.ndarray, y: np.ndarray, k: int) -> KnnModel:
    y = np.asarray(y)
    if np.unique(y).size < 2:
        raise DataError("training needs both classes present")
    return KnnModel(k=k, points=X, labels=y)


def knn_predict(model: KnnModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(classes, vote fractions among the k nearest) of the rows of X.

    Neighbor order is (distance, coordinates, label), so the result never
    depends on the storage order of the training points. Only the points
    no farther than the k-th smallest distance are sorted. Vote ties break
    by the smaller summed distance, then the lower class id.
    """
    points, labels, k = model.points, model.labels, model.k
    X = feature_rows(X, points.shape[1])
    classes = np.empty(len(X), dtype=np.int64)
    scores = np.empty(len(X), dtype=np.float64)
    for row, x in enumerate(X):
        diffs = points - x
        dists = np.sqrt((diffs * diffs).sum(axis=1))
        near = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
        # lexsort sorts by its last key first
        order = np.lexsort([labels[near], *points[near].T[::-1], dists[near]])
        votes: dict[int, int] = {}
        summed: dict[int, float] = {}
        for i in near[order[:k]].tolist():
            c = int(labels[i])
            votes[c] = votes.get(c, 0) + 1
            summed[c] = summed.get(c, 0.0) + float(dists[i])
        winner = min(votes, key=lambda c: (-votes[c], summed[c], c))
        classes[row], scores[row] = winner, votes[winner] / k
    return classes, scores
