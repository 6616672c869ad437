"""RBF-kernel support vector machine trained by SMO.

The dual, max sum(alpha) - 1/2 sum_ij alpha_i alpha_j y_i y_j K_ij subject
to 0 <= alpha <= C and sum(alpha * y) = 0, is solved two alphas at a time
as in LIBSVM. The solver caches F = y - K (alpha * y), each label minus its
margin without the bias (Platt 1998's error cache; F = -y * G for the dual
gradient G). Each step takes i as the maximal violator and j by the
second-order rule (Fan, Chen & Lin, JMLR 2005), solves the pair's
subproblem analytically and updates F from rows i and j of K. The solver
stops when the maximal-violating-pair gap is at most tol, on an F
recomputed from the alphas, since the updated one drifts by rounding; a
step budget reached first returns the current model with its
``converged`` flag cleared and a warning.

The n x n kernel is never built. Rows of K are computed when a step needs
them and kept in a least-recently-used cache of at most _ROW_CACHE_BYTES
(Chang & Lin, ACM TIST 2011). The recomputed F and the decision function
sum over the support vectors through blocks of query rows, each at most
_BLOCK_BYTES of kernel, from one copy of 2 * sv made before the first
block. The cache is emptied before F is recomputed, so a fit holds about
the larger of _ROW_CACHE_BYTES and _BLOCK_BYTES beyond its inputs, plus
2 * sv or the model's support vectors, whatever n is.
"""

from __future__ import annotations

import inspect
import warnings
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from ..domains import Domain, check_params
from ..errors import DataError
from .registry import CONVERGENCE, DEFAULT_SVM_TRAIN_CAP, Array, ModelSpec, Scalar, typed, with_convergence

# Curvature used in place of K_ii + K_jj - 2 K_ij <= 0 (LIBSVM's TAU).
_TAU = 1e-12

# The most bytes of kernel rows the SMO solver keeps between steps.
_ROW_CACHE_BYTES = 2 << 20

# The most bytes of kernel that one block of margins holds (one query row at
# least). Its rows are a power of two: with one OpenBLAS thread, such blocks
# gave the margins of one whole-query product bit for bit, except in a short
# last block, where blocks of 1,000 or 777 rows did not. The last bits of a
# short last block's margins can differ (seen in last blocks of up to 191
# rows, 100 to 1,836 support vectors, d 92), so a new budget can change the
# margins of a query's last rows.
_BLOCK_BYTES = 2 << 20

# The domain of each svm_fit_smo parameter; C = inf (a hard margin) is
# refused, and gamma None means 1 / n_features.
DOMAINS = {
    "C": Domain(float, 0, lo_open=True),
    "gamma": Domain(float, 0, lo_open=True, auto=True),
    "tol": Domain(float, 0, lo_open=True),
    "max_passes": Domain(int, 1),
}


@dataclass(frozen=True)
class SVMModel:
    support_vectors: np.ndarray  # rows with alpha > 0
    alphas: np.ndarray
    labels: np.ndarray  # in {-1, +1}
    bias: float
    gamma: float
    C: float
    converged: bool = True
    n_iters: int = 0  # SMO steps taken


def rbf_kernel(A, B, gamma: float) -> np.ndarray:
    """K[i, j] = exp(-gamma * ||A_i - B_j||^2), built in one (n, m) buffer."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    return _rbf(2.0 * A, (A * A).sum(axis=1), B, (B * B).sum(axis=1), gamma)


def _rbf(twice_A, sq_A, B, sq_B, gamma: float) -> np.ndarray:
    """rbf_kernel(A, B, gamma) given 2 * A and the rows' squared norms."""
    K = twice_A @ B.T
    np.subtract(sq_A[:, None], K, out=K)
    K += sq_B[None, :]
    np.maximum(K, 0.0, out=K)
    K *= -gamma
    return np.exp(K, out=K)


def _margins(twice_sv, sq_sv, coef, X, gamma: float) -> np.ndarray:
    """coef @ rbf_kernel(sv, X, gamma), through blocks of query rows, given
    2 * sv and the support vectors' squared norms."""
    # The largest power of two of rows whose kernel fits in _BLOCK_BYTES.
    step = 1 << max(0, (_BLOCK_BYTES // (8 * max(1, len(twice_sv)))).bit_length() - 1)
    out = np.empty(len(X))
    for start in range(0, len(X), step):
        block = X[start : start + step]
        # Unnamed, so that one block's kernel is freed before the next is built.
        out[start : start + len(block)] = coef @ _rbf(twice_sv, sq_sv, block, (block * block).sum(axis=1), gamma)
    return out


class _KernelRows:
    """Rows of the training kernel, computed on demand and kept in a
    least-recently-used cache of at most _ROW_CACHE_BYTES (one row at least)."""

    def __init__(self, X: np.ndarray, sq: np.ndarray, gamma: float):
        self.X, self.sq, self.gamma = X, sq, gamma
        self.capacity = max(1, _ROW_CACHE_BYTES // (8 * len(X)))
        self.rows: OrderedDict[int, np.ndarray] = OrderedDict()

    def __getitem__(self, i: int) -> np.ndarray:
        row = self.rows.get(i)
        if row is not None:
            self.rows.move_to_end(i)
            return row
        if len(self.rows) == self.capacity:
            self.rows.popitem(last=False)
        row = _rbf(2.0 * self.X[i : i + 1], self.sq[i : i + 1], self.X, self.sq, self.gamma)[0]
        self.rows[i] = row
        return row


def svm_fit_smo(
    X,
    y,
    C: float = 1.0,
    gamma: float | None = None,
    tol: float = 1e-3,
    max_passes: int = 50,
    seed: int = 0,
) -> SVMModel:
    """Fit the soft-margin RBF SVM dual by SMO with second-order pair selection.

    Labels may arrive as {0, 1} (mapped to {-1, +1}) or already signed.
    gamma None takes 1 / n_features; the fitted model records the value used.
    Every step keeps 0 <= alpha_i <= C and sum(alpha_i * y_i) = 0. Stops
    when the maximal-violating-pair gap is <= tol, or after
    max_passes * ceil(n / 2) steps (about max_passes * n alpha updates)
    with a warning and converged=False. Selection is deterministic, so seed
    is unused; it is accepted for existing callers.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).copy()
    if len(X) == 0:
        raise DataError("empty training set")
    if X.ndim != 2 or X.shape[1] == 0:
        raise DataError(f"X must be 2-D with at least one feature column, got shape {X.shape}")
    if len(y) != len(X):
        raise DataError(f"{len(y)} labels for {len(X)} rows")
    if not np.isfinite(X).all():
        raise DataError("training features contain non-finite values")
    check_params("svm", {"C": C, "gamma": gamma, "tol": tol, "max_passes": max_passes}, DOMAINS)
    if np.isin(y, (0, 1)).all():
        y = 2.0 * y - 1.0
    if not np.isin(y, (-1, 1)).all():
        raise DataError("labels must be 0/1 or -1/+1")
    if (y == y[0]).all():
        raise DataError("need both classes to fit an SVM")
    if gamma is None:
        gamma = 1.0 / X.shape[1]

    n = len(X)
    sq = (X * X).sum(axis=1)
    K = _KernelRows(X, sq, gamma)
    alphas = np.zeros(n)
    F = y.copy()  # y - K (alpha * y) at alpha = 0
    pos = y > 0
    budget = max_passes * -(-n // 2)
    steps = 0
    fresh = True  # F was computed from alphas, not updated step by step
    while True:
        # I_up holds the alphas that may move along +y, I_low along -y; a
        # feasible alpha is optimal iff max F over I_up <= min F over I_low.
        up = np.where(pos, alphas < C, alphas > 0)
        low = np.where(pos, alphas > 0, alphas < C)
        i = int(np.argmax(np.where(up, F, -np.inf)))
        hi, lo = F[i], F[low].min()
        converged = hi - lo <= tol
        if converged and not fresh:
            # The updated F drifts by rounding; confirm the gap from alphas.
            # Rows are recomputed bit for bit, so the cache makes way for
            # the margins' blocks.
            K.rows.clear()
            sv = np.flatnonzero(alphas)
            F = y - _margins(2.0 * X[sv], sq[sv], alphas[sv] * y[sv], X, gamma)
            fresh = True
            continue
        if converged or steps == budget:
            break
        Ki = K[i]
        gain = hi - F
        curv = 2.0 - 2.0 * Ki  # K_ii + K_jj - 2 K_ij, with K_ii = exp(0) = 1
        curv[curv <= 0] = _TAU
        j = int(np.argmin(np.where(low & (gain > 0), -gain * gain / curv, np.inf)))
        # Move alpha_i by y_i t and alpha_j by -y_j t, t clipped to the box.
        cap_i = C - alphas[i] if pos[i] else alphas[i]
        cap_j = alphas[j] if pos[j] else C - alphas[j]
        t = min(gain[j] / curv[j], cap_i, cap_j)
        alphas[i] = (C if pos[i] else 0.0) if t == cap_i else alphas[i] + y[i] * t
        alphas[j] = (0.0 if pos[j] else C) if t == cap_j else alphas[j] - y[j] * t
        F -= t * (Ki - K[j])
        steps += 1
        fresh = False

    if not converged:
        warnings.warn(
            f"SMO did not converge within {budget} steps (max_passes={max_passes}); "
            "returning the current model",
            stacklevel=2,
        )
    # A free vector sits on the margin, where the bias equals its F; with
    # none free, any bias between hi and lo fits, so take the midpoint.
    free = (alphas > 0) & (alphas < C)
    bias = float(F[free].mean()) if free.any() else float(hi + lo) / 2.0
    support = alphas > 0
    return SVMModel(
        support_vectors=X[support],  # a mask's index copies
        alphas=alphas[support],
        labels=y[support],
        bias=bias,
        gamma=gamma,
        C=C,
        converged=bool(converged),
        n_iters=steps,
    )


def svm_decision(model: SVMModel, X) -> np.ndarray:
    """Raw margins sum_i alpha_i y_i K(x_i, x) + b (also the ROC scores)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.ndim != 2 or X.shape[1] != model.support_vectors.shape[1]:
        raise DataError(
            f"feature count mismatch: model expects {model.support_vectors.shape[1]}"
        )
    if len(model.support_vectors) == 0:
        return np.full(len(X), model.bias)
    sv = model.support_vectors
    coef = model.alphas * model.labels
    return _margins(2.0 * sv, (sv * sv).sum(axis=1), coef, X, model.gamma) + model.bias


# ---------------------------------------------------------------- registry entry


def _score(m, X):
    # Class 1 for a margin >= 0.
    margins = svm_decision(m, X)
    return (margins >= 0).astype(np.int64), margins


SPEC = ModelSpec(
    name="svm",
    cls=SVMModel,
    defaults={k: inspect.signature(svm_fit_smo).parameters[k].default for k in DOMAINS},
    domains=DOMAINS,
    fit=lambda X, y, p, seed, val: with_convergence(svm_fit_smo(X, y, **typed(p, DOMAINS))),
    score=_score,
    layout={
        "params": {
            "support_vectors": Array(float, ("n", "d")), "alphas": Array(float, ("n",)),
            "labels": Array(float, ("n",)), "bias": Scalar(Domain(float)), **CONVERGENCE,
        },
        "config": {"C": Scalar(DOMAINS["C"]), "gamma": Scalar(replace(DOMAINS["gamma"], auto=False))},
    },
    train_cap=DEFAULT_SVM_TRAIN_CAP,
)
