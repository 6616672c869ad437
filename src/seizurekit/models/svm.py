"""RBF-kernel support vector machine trained by simplified SMO.

The dual problem is solved by pairwise coordinate ascent: scan every alpha,
and when one violates its KKT condition beyond tol, pick a random partner,
solve the two-variable subproblem analytically, and update the bias. A full
scan with no updates means convergence; hitting max_passes first returns
the current model with its ``converged`` flag cleared and a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError


@dataclass(frozen=True)
class SVMModel:
    support_vectors: np.ndarray  # rows with alpha > 0
    alphas: np.ndarray
    labels: np.ndarray  # in {-1, +1}
    bias: float
    gamma: float
    C: float
    converged: bool = True


def rbf_kernel(A, B, gamma: float) -> np.ndarray:
    """K[i, j] = exp(-gamma * ||A_i - B_j||^2), built in one (n, m) buffer."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    K = 2.0 * A @ B.T
    np.subtract((A * A).sum(axis=1)[:, None], K, out=K)
    K += (B * B).sum(axis=1)[None, :]
    np.maximum(K, 0.0, out=K)
    K *= -gamma
    return np.exp(K, out=K)


def svm_fit_smo(
    X,
    y,
    C: float = 1.0,
    gamma: float = 1.0,
    tol: float = 1e-3,
    max_passes: int = 50,
    seed: int = 0,
) -> SVMModel:
    """Fit the soft-margin RBF SVM dual with simplified SMO.

    Labels may arrive as {0, 1} (mapped to {-1, +1}) or already signed.
    Every update keeps 0 <= alpha_i <= C and preserves sum(alpha_i * y_i)
    = 0. Stops after a full pass changes nothing, or after max_passes
    passes with a warning and converged=False.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).copy()
    if len(X) == 0:
        raise DataError("empty training set")
    if len(y) != len(X):
        raise DataError(f"{len(y)} labels for {len(X)} rows")
    if C <= 0:
        raise ConfigError(f"C must be positive, got {C}")
    if gamma <= 0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    if max_passes < 1:
        raise ConfigError(f"max_passes must be >= 1, got {max_passes}")
    if np.isin(y, (0, 1)).all():
        y = 2.0 * y - 1.0
    if not np.isin(y, (-1, 1)).all():
        raise DataError("labels must be 0/1 or -1/+1")
    if len(np.unique(y)) < 2:
        raise DataError("need both classes to fit an SVM")

    n = len(X)
    K = rbf_kernel(X, X, gamma)
    alphas = np.zeros(n)
    b = 0.0
    rng = np.random.default_rng(seed)
    converged = False

    def f(i: int) -> float:
        return float((alphas * y) @ K[:, i] + b)

    for _ in range(max_passes):
        num_changed = 0
        for i in range(n):
            E_i = f(i) - y[i]
            if not (
                (y[i] * E_i < -tol and alphas[i] < C)
                or (y[i] * E_i > tol and alphas[i] > 0)
            ):
                continue
            j = int(rng.integers(n - 1))
            if j >= i:
                j += 1
            E_j = f(j) - y[j]
            a_i_old, a_j_old = alphas[i], alphas[j]
            if y[i] != y[j]:
                L = max(0.0, a_j_old - a_i_old)
                H = min(C, C + a_j_old - a_i_old)
            else:
                L = max(0.0, a_i_old + a_j_old - C)
                H = min(C, a_i_old + a_j_old)
            if L == H:
                continue
            eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
            if eta >= 0:
                continue
            a_j = a_j_old - y[j] * (E_i - E_j) / eta
            a_j = min(H, max(L, a_j))
            if abs(a_j - a_j_old) < 1e-5:
                continue
            a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j)
            alphas[i], alphas[j] = a_i, a_j
            b1 = (
                b
                - E_i
                - y[i] * (a_i - a_i_old) * K[i, i]
                - y[j] * (a_j - a_j_old) * K[i, j]
            )
            b2 = (
                b
                - E_j
                - y[i] * (a_i - a_i_old) * K[i, j]
                - y[j] * (a_j - a_j_old) * K[j, j]
            )
            if 0 < a_i < C:
                b = b1
            elif 0 < a_j < C:
                b = b2
            else:
                b = (b1 + b2) / 2.0
            num_changed += 1
        if num_changed == 0:
            converged = True
            break

    if not converged:
        warnings.warn(
            f"SMO did not converge within {max_passes} passes; "
            "returning the current model",
            stacklevel=2,
        )
    support = alphas > 0
    return SVMModel(
        support_vectors=X[support].copy(),
        alphas=alphas[support].copy(),
        labels=y[support].copy(),
        bias=b,
        gamma=gamma,
        C=C,
        converged=converged,
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
    K = rbf_kernel(model.support_vectors, X, model.gamma)
    return (model.alphas * model.labels) @ K + model.bias


def svm_predict(model: SVMModel, X) -> np.ndarray:
    """Class 1 for nonnegative margin, else 0."""
    return (svm_decision(model, X) >= 0).astype(np.int64)
