"""Binary logistic regression trained by full-batch gradient descent.

The objective is the mean (optionally class-weighted) binary cross-entropy
plus an L2 penalty (l2_lambda / 2) * ||w||^2 on the weights (not the bias).
Training starts from zero parameters and stops when the gradient infinity
norm drops below the tolerance or, with a warning, when max_iters is reached.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from ..domains import Domain, check_params, defaults_of, domains_of, param
from ..errors import DataError
from .registry import CLASS_WEIGHTS, CONVERGENCE, THRESHOLD, Array, ModelSpec, Scalar, resolve_class_weights
from .registry import typed, with_convergence


@dataclass(frozen=True)
class LogRegConfig:
    learning_rate: float = param(0.1, Domain(float, 0, lo_open=True))
    l2_lambda: float = param(0.0, Domain(float, 0))
    max_iters: int = param(1000, Domain(int, 0))
    tolerance: float = param(1e-6, Domain(float, 0))
    class_weights: dict | None = None  # {0: w0, 1: w1}; None = unweighted
    seed: int = 0

    def __post_init__(self):
        check_params("logreg", self, domains_of(self))


@dataclass(frozen=True)
class LogRegModel:
    weights: np.ndarray
    bias: float
    config: LogRegConfig
    n_iters: int = 0
    converged: bool = False
    threshold: float = 0.5  # class 1 for a probability >= threshold


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function, overflow-safe for any finite input; out may be z itself."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))  # exp(-z) for z >= 0, exp(z) below, never above 1
    p = np.maximum(e, z >= 0, out=out)  # 1 for z >= 0, else e; NaN stays NaN
    p /= 1.0 + e
    return p


def _sample_weights(y: np.ndarray, class_weights: dict | None) -> np.ndarray:
    if class_weights is None:
        return np.ones(len(y))
    return np.array([float(class_weights.get(int(c), 1.0)) for c in y])


def _grad(
    w: np.ndarray,
    b: float,
    X: np.ndarray,
    y: np.ndarray,
    l2_lambda: float,
    sample_w: np.ndarray,
):
    """Exact analytic gradient (over w, then b) of the objective _loss_and_grad computes."""
    resid = sample_w * (sigmoid(X @ w + b) - y)
    return X.T @ resid / len(y) + l2_lambda * w, float(resid.mean())


def _loss_and_grad(
    w: np.ndarray,
    b: float,
    X: np.ndarray,
    y: np.ndarray,
    l2_lambda: float,
    sample_w: np.ndarray,
):
    """Mean weighted BCE + L2 penalty, with exact analytic gradients.

    BCE per row is computed as softplus(z) - y*z, which is finite for any
    z, instead of log(p) terms that underflow.
    """
    z = X @ w + b
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    loss = float((sample_w * (softplus - y * z)).mean() + 0.5 * l2_lambda * (w @ w))
    return (loss, *_grad(w, b, X, y, l2_lambda, sample_w))


def logreg_fit(X, y, config: LogRegConfig = LogRegConfig()) -> LogRegModel:
    """Gradient descent from w=0, b=0 until tolerance or max_iters."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(X) == 0:
        raise DataError("empty training set")
    if X.ndim != 2 or len(y) != len(X):
        raise DataError(f"bad shapes: X {X.shape}, y {y.shape}")
    if not np.isfinite(X).all():
        raise DataError("training features contain non-finite values")
    if not np.isin(y, (0, 1)).all():
        raise DataError("labels must be 0 or 1")

    sample_w = _sample_weights(y, config.class_weights)
    w = np.zeros(X.shape[1])
    b = 0.0
    converged = False
    it = 0
    for it in range(1, config.max_iters + 1):
        grad_w, grad_b = _grad(w, b, X, y, config.l2_lambda, sample_w)
        g_inf = max(float(np.abs(grad_w).max(initial=0.0)), abs(grad_b))
        if g_inf < config.tolerance:
            converged = True
            it -= 1
            break
        w = w - config.learning_rate * grad_w
        b = b - config.learning_rate * grad_b
    if not converged:
        warnings.warn(
            f"logistic regression did not converge within {config.max_iters} iterations "
            f"(tolerance={config.tolerance}); returning the current model",
            stacklevel=2,
        )
    return LogRegModel(weights=w, bias=b, config=config, n_iters=it, converged=converged)


def logreg_predict_proba(model: LogRegModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.weights):
        raise DataError(
            f"feature count {X.shape[1] if X.ndim == 2 else '?'} does not match "
            f"model dimension {len(model.weights)}"
        )
    return sigmoid(X @ model.weights + model.bias)


# ---------------------------------------------------------------- registry entry


def _fit(X, y, p, seed, val):
    cfg = LogRegConfig(
        **typed(p, domains_of(LogRegConfig)),
        class_weights=resolve_class_weights(p["class_weights"], y),
        seed=seed,
    )
    model = logreg_fit(X, y, cfg)
    return with_convergence(replace(model, threshold=float(p["threshold"])))


def _score(m, X):
    proba = logreg_predict_proba(m, X)
    return (proba >= m.threshold).astype(np.int64), proba


SPEC = ModelSpec(
    name="logreg",
    cls=LogRegModel,
    defaults={**defaults_of(LogRegConfig), "class_weights": None, "threshold": 0.5},
    domains={**domains_of(LogRegConfig), "class_weights": CLASS_WEIGHTS, "threshold": THRESHOLD},
    fit=_fit,
    score=_score,
    layout={
        "params": {"weights": Array(float, ("d",)), "bias": Scalar(Domain(float)), **CONVERGENCE},
        "config": LogRegConfig,
    },
)
