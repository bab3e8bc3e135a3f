"""The shared Gini grower against the two growers it replaced.

The recursive forest grower and the inline extra-trees loop that came
before the flat-list grower are kept below verbatim as references: seeded
forests, predictions and importances must match them bit for bit.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import veritag
from veritag import rf_predict, rf_train, tree_importance

# --- reference: the recursive forest grower, nested-dict trees ---


def _gini_from_counts(counts: np.ndarray, total: int) -> float:
    p = counts / total
    return float(1.0 - (p * p).sum())


def _best_split(
    col: np.ndarray, labels: np.ndarray, n_classes: int, parent_gini: float
) -> tuple[float, float] | None:
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


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    n_classes: int,
    m: int,
    rng: np.random.Generator,
) -> dict:
    labels = y[idx]
    counts = np.bincount(labels, minlength=n_classes)
    gini = _gini_from_counts(counts, idx.size)
    if idx.size < 2 or gini == 0.0:
        return {"counts": counts.tolist()}
    candidates = rng.choice(X.shape[1], size=m, replace=False)
    best: tuple[float, float, int] | None = None
    for f in candidates:
        found = _best_split(X[idx, f], labels, n_classes, gini)
        if found is None:
            continue
        decrease, thr = found
        if best is None or decrease > best[0]:
            best = (decrease, thr, int(f))
    if best is None:
        return {"counts": counts.tolist()}
    _, thr, f = best
    left = X[idx, f] <= thr
    return {
        "f": f,
        "t": thr,
        "l": _grow(X, y, idx[left], n_classes, m, rng),
        "r": _grow(X, y, idx[~left], n_classes, m, rng),
    }


def _reference_forest(X, y, n_trees, seed):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    n_classes = int(y.max()) + 1
    m = max(1, int(math.sqrt(d)))
    trees = []
    for child_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child_seed)
        sample = rng.integers(0, n, size=n)
        trees.append(_grow(X, y, sample, n_classes, m, rng))
    return trees


def _tree_class(node: dict, x: np.ndarray) -> int:
    while "f" in node:
        node = node["l"] if x[node["f"]] <= node["t"] else node["r"]
    return int(np.argmax(node["counts"]))  # tie -> lowest class id


def _reference_predict(trees, n_classes, x):
    votes = np.zeros(n_classes, dtype=np.int64)
    for tree in trees:
        votes[_tree_class(tree, x)] += 1
    winner = int(np.argmax(votes))
    return winner, float(votes[winner] / len(trees))


def _flatten(tree: dict) -> dict[str, list]:
    """Nested dicts to flat node lists, pre-order, left subtree first."""
    flat: dict[str, list] = {k: [] for k in ("feature", "threshold", "left", "right", "counts")}

    def visit(node: dict) -> int:
        i = len(flat["feature"])
        for column in flat.values():
            column.append(None)
        if "f" not in node:
            flat["feature"][i], flat["threshold"][i] = -1, 0.0
            flat["left"][i] = flat["right"][i] = -1
            flat["counts"][i] = node["counts"]
            return i
        flat["feature"][i], flat["threshold"][i] = node["f"], node["t"]
        flat["left"][i] = visit(node["l"])
        flat["right"][i] = visit(node["r"])
        return i

    visit(tree)
    return flat


# --- reference: the inline extra-trees importance loop ---


def _gini(y: np.ndarray, n_classes: int) -> float:
    counts = np.bincount(y, minlength=n_classes)
    p = counts / y.size
    return float(1.0 - (p * p).sum())


def _reference_importance(X, y, n_trees, seed):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    classes = np.unique(y)
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


@st.composite
def tree_problems(draw):
    """2 or 3 classes, values rounded so they tie, a constant and an
    all-zero column, and duplicated rows carrying both labels. Some
    draws have 16 to 40 features, so that each node searches 4 to 6
    candidates at once."""
    n_classes = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(4, 40))
    d = draw(st.one_of(st.integers(2, 9), st.integers(16, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.round(rng.normal(scale=2.0, size=(n, d)), draw(st.sampled_from([0, 1, 3])))
    y = rng.integers(0, n_classes, size=n)
    y[:2] = (0, 1)
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = draw(st.floats(-5.0, 5.0))
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = 0.0
    for i in range(draw(st.integers(0, n // 4))):
        X[n - 1 - i] = X[i]
        y[n - 1 - i] = (y[i] + 1) % n_classes
    seed = draw(st.integers(0, 2**16))
    fresh = np.round(rng.normal(scale=2.0, size=(8, d)), 1)
    return X, y, seed, fresh


class TestGrowerMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(tree_problems())
    def test_importance_bytes(self, problem):
        X, y, seed, _ = problem
        got = tree_importance(X, y, n_trees=6, seed=seed)
        assert got.tobytes() == _reference_importance(X, y, 6, seed).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(tree_problems())
    def test_forest_nodes_and_predictions(self, problem):
        X, y, seed, fresh = problem
        model = rf_train(X, y, n_trees=4, seed=seed)
        reference = _reference_forest(X, y, 4, seed)
        for tree, ref in zip(model.trees, reference, strict=True):
            assert {k: v for k, v in tree.items() if k != "decrease"} == _flatten(ref)
        rows = np.vstack([X, fresh])
        classes, scores = rf_predict(model, rows)
        assert list(zip(classes.tolist(), scores.tolist())) == [
            _reference_predict(reference, model.n_classes, x) for x in rows
        ]


def test_deep_tree_needs_no_recursion(tmp_path):
    """A tree deeper than the recursion limit trains, saves, loads and predicts under
    a recursion limit of 200."""
    script = f"""
import sys
import numpy as np
from veritag import FeatureSchema, TrainedPipeline, load_pipeline, rf_predict, rf_train, save_pipeline
from veritag.featureset import StandardizerParams

sys.setrecursionlimit(200)
d = 600
X = np.eye(d)
y = np.arange(d) % 2
model = rf_train(X, y, n_trees=2, seed=0)
pipeline = TrainedPipeline(
    classifier_name="rf", classifier=model,
    standardizer=StandardizerParams(mean=np.zeros(d), stddev=np.ones(d)),
    schema=FeatureSchema(
        names=tuple(f"R.x{{i}}" for i in range(d)), granularity="HC", groups=("R",), pruning="none"
    ),
)
save_pipeline(pipeline, {str(tmp_path / "deep.model")!r})
classes, scores = load_pipeline({str(tmp_path / "deep.model")!r}).predict_matrix(X)
assert classes.tolist() == rf_predict(model, X)[0].tolist()
depth = [0] * len(model.trees[0]["feature"])
for i, f in enumerate(model.trees[0]["feature"]):  # parents come before children
    if f >= 0:
        depth[model.trees[0]["left"][i]] = depth[model.trees[0]["right"][i]] = depth[i] + 1
print(max(depth))
"""
    src = str(Path(veritag.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 200  # deeper than the recursion limit
