"""Linear SVM trained by dual coordinate descent.

L1-hinge primal: (1/2)||w||^2 + C * sum hinge(y_i, w.x_i + b), with the bias
folded into the weight vector through a constant augmented component (so it
is regularized, as in common dual solvers). Deterministic cyclic coordinate
order. A visit is skipped only when a bound proves that its update would be
exactly zero (alpha_i pinned at 0 or C with the gradient pushing outward),
so the weights are bit-identical to visiting every coordinate. This is not
the shrinking heuristic of LIBLINEAR, which can change the model.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, InvariantError

DEFAULT_COST = 0.1
DUALITY_GAP_TOL = 1e-4
MAX_PASSES = 10_000
_MONOTONE_SLACK = 1e-9
_EPS = float(np.finfo(np.float64).eps)

log = logging.getLogger("veritag")


@dataclass(frozen=True)
class LinearSvmModel:
    weights: np.ndarray
    bias: float
    cost: float

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        if not np.all(np.isfinite(weights)) or not np.isfinite(self.bias):
            raise InvariantError("SVM parameters must be finite")
        object.__setattr__(self, "weights", weights)

    def decision(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.weights.shape:
            raise DataError(
                f"vector has {x.shape[0]} features, model expects "
                f"{self.weights.shape[0]}"
            )
        return float(self.weights @ x + self.bias)


def _check_binary(y: np.ndarray) -> None:
    present = set(np.unique(y))
    if present - {0, 1}:
        raise DataError("labels must be 0/1")
    if len(present) < 2:
        raise DataError("training needs both classes present")


def svm_train(
    X: np.ndarray,
    y: np.ndarray,
    C: float = DEFAULT_COST,
    tol: float = DUALITY_GAP_TOL,
    max_passes: int = MAX_PASSES,
) -> LinearSvmModel:
    """Fit by cyclic dual coordinate descent.

    Stops when the relative duality gap falls under tol or after
    max_passes sweeps, with a warning in the latter case. The solver's
    objective (the dual) is asserted monotone per pass within 1e-9 relative
    slack; the primal is tracked only for the gap test, since dual steps do
    not keep it monotone.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DataError("X and y shapes disagree")
    _check_binary(y)
    if C <= 0:
        raise DataError("cost must be positive")

    n, d = X.shape
    t = np.where(y == 1, 1.0, -1.0)
    # Rows signed by their label, bias component appended. Negation is exact
    # and rounding is symmetric, so w @ z_i and w + delta * z_i round exactly
    # as t_i * (w @ x_i) and w + delta * t_i * x_i.
    Z = np.hstack([X, np.ones((n, 1))])
    Z *= t[:, None]
    q_rows = (Z * Z).sum(axis=1)  # Q_ii, >= 1 thanks to the bias column
    rows = list(Z)
    q = q_rows.tolist()
    cost = float(C)
    alpha = [0.0] * n
    w = np.zeros(d + 1)

    # Skip certificate. Let grad_i be coordinate i's gradient z_i.w' - 1 as
    # computed when the path length of w in this pass (the sum of
    # |delta| ||z_k|| over its updates) stood at `since`, and g what a visit
    # would compute now. By Cauchy-Schwarz plus the rounding of the dot
    # products and of the updates of w (at most n in a pass),
    #   |g - grad_i| <= ||z_i|| (grow (path - since) + pad_rate (1 + w_norm + path)),
    # w_norm being ||w|| at the start of the pass: pad_rate holds
    # (n + 2(d + 1) + 8) eps per unit of ||w|| eight times over, which also
    # covers the rounding of this bookkeeping, and ||z_i|| >= 1 absorbs
    # eps |grad_i|. If alpha_i is 0 and g > 0, or alpha_i is C and g < 0,
    # the clipped step is exactly 0. So with s = +1 at 0 and -1 at C, the
    # visit is proven to change nothing while path < budget_i, where
    #   budget_i (grow + pad_rate) = s grad_i / ||z_i|| - pad_rate (1 + w_norm) + grow since.
    # A free alpha_i gets a negative budget: it is always visited.
    pad_rate = 8.0 * (n + 2 * (d + 1) + 8) * _EPS
    grow = 1.0 + pad_rate
    slope = grow + pad_rate
    tilt = grow / slope
    norm_rows = np.sqrt(q_rows)  # ||z_i||
    norms = norm_rows.tolist()
    inv_rows = 1.0 / (norm_rows * slope)
    inv = inv_rows.tolist()
    shift = pad_rate / slope
    never = -math.inf
    budget = [never] * n

    prev_dual = 0.0
    gap = math.inf
    for _ in range(max_passes):
        path = 0.0
        for i in range(n):
            if path < budget[i]:
                continue  # proven to leave alpha_i and w as they are
            z = rows[i]
            g = float(w.dot(z)) - 1.0
            a = alpha[i]
            a_new = a - g / q[i]  # clipped to [0, C] as min(max(., 0.0), C) would
            if a_new < 0.0:
                a_new = 0.0
                budget[i] = g * inv[i] - shift + tilt * path
            elif a_new > cost:
                a_new = cost
                budget[i] = -g * inv[i] - shift + tilt * path
            else:
                budget[i] = never
            delta = a_new - a
            if delta != 0.0:
                alpha[i] = a_new
                w += delta * z
                path += abs(delta) * norms[i]
        zw = Z @ w
        ww = float(w @ w)
        alphas = np.array(alpha)
        p = 0.5 * ww + cost * float(np.maximum(1.0 - zw, 0.0).sum())
        dl = float(alphas.sum()) - 0.5 * ww
        if dl < prev_dual - _MONOTONE_SLACK * max(1.0, abs(prev_dual)):
            raise InvariantError("dual objective decreased during training")
        prev_dual = dl
        if p - dl <= tol * max(1.0, abs(p)):
            break
        gap = (p - dl) / max(1.0, abs(p))
        # Fresh gradients from the primal's matvec, so budgets span one pass.
        sign = np.subtract(alphas == 0.0, alphas == cost, dtype=np.float64)
        shift = pad_rate * (1.0 + math.sqrt(ww)) / slope
        budget = (sign * (zw - 1.0) * inv_rows - shift).tolist()
    else:
        log.warning(
            "svm_train stopped at the %d-pass cap; relative duality gap %.3g",
            max_passes, gap,
        )
    return LinearSvmModel(weights=w[:-1].copy(), bias=float(w[-1]), cost=C)


def svm_predict(model: LinearSvmModel, x: np.ndarray) -> tuple[int, float]:
    """(class, signed margin); a margin of exactly 0 goes to class 0."""
    margin = model.decision(x)
    return (1 if margin > 0.0 else 0), margin
