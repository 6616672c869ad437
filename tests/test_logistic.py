"""Logistic regression: gradient correctness, convergence, numeric safety."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seizurekit import ConfigError
from seizurekit.models import (
    LogRegConfig,
    logreg_fit,
    logreg_predict_proba,
    sigmoid,
)
from seizurekit.models.logistic import _loss_and_grad, _sample_weights

from tests.test_registry import classify


def test_sigmoid_known_values():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert sigmoid(np.array([2.0]))[0] == pytest.approx(0.8807970779778823, abs=1e-15)


def test_sigmoid_saturates_without_overflow():
    z = np.array([-1000.0, 1000.0])
    p = sigmoid(z)
    assert np.isfinite(p).all()
    assert p[0] == pytest.approx(0.0, abs=1e-300)
    assert p[1] == 1.0
    assert p[1] - sigmoid(np.array([50.0]))[0] < 1e-20


def masked_sigmoid(z):
    """The sigmoid as it was first written: one masked branch per sign."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SIGMOID_EDGES = [0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 36.7, -745.2, np.inf, -np.inf, np.nan]


@settings(deadline=None, max_examples=200)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=2, max_side=40),
        elements=st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SIGMOID_EDGES)),
    )
)
def test_sigmoid_is_bit_identical_to_the_masked_form(z):
    assert_same_bits(sigmoid(z), masked_sigmoid(z))


def test_sigmoid_is_bit_identical_on_a_million_values():
    rng = np.random.default_rng(11)
    z = np.concatenate([rng.normal(0, 30, 10**6 - len(SIGMOID_EDGES)), SIGMOID_EDGES])
    assert_same_bits(sigmoid(z), masked_sigmoid(z))


def assert_same_bits(got, want):
    """Equal bit for bit, except that a NaN may come back with the other sign."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def test_zero_iterations_gives_uninformative_model():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 3))
    y = rng.integers(0, 2, size=20)
    model = logreg_fit(X, y, LogRegConfig(max_iters=0))
    assert np.all(model.weights == 0.0) and model.bias == 0.0
    assert np.all(logreg_predict_proba(model, X) == 0.5)
    # p = 0.5 meets a 0.5 threshold, so everything is class 1
    assert np.all(classify(model, X) == 1)


def test_separable_1d_problem_is_learned():
    X = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = logreg_fit(X, y, LogRegConfig(learning_rate=1.0, max_iters=500))
    assert np.array_equal(classify(model, X), y)
    assert model.weights[0] > 0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for trial in range(10):
        n, d = 12, 4
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        w = rng.normal(size=d) * 0.5
        b = float(rng.normal()) * 0.5
        lam = 0.01
        sw = np.ones(n)
        _, gw, gb = _loss_and_grad(w, b, X, y, lam, sw)
        eps = 1e-6
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            lp = _loss_and_grad(wp, b, X, y, lam, sw)[0]
            lm = _loss_and_grad(wm, b, X, y, lam, sw)[0]
            num = (lp - lm) / (2 * eps)
            assert abs(num - gw[j]) / max(1.0, abs(num)) < 1e-6
        lp = _loss_and_grad(w, b + eps, X, y, lam, sw)[0]
        lm = _loss_and_grad(w, b - eps, X, y, lam, sw)[0]
        assert abs((lp - lm) / (2 * eps) - gb) < 1e-6


def test_loss_never_increases_with_small_steps():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(50, 3))
    true_w = np.array([2.0, -1.0, 0.5])
    y = (X @ true_w + rng.normal(scale=0.3, size=50) > 0).astype(int)
    sw = np.ones(50)
    w = np.zeros(3)
    b = 0.0
    prev = np.inf
    for _ in range(200):
        loss, gw, gb = _loss_and_grad(w, b, X, y.astype(float), 0.0, sw)
        assert loss <= prev + 1e-12
        prev = loss
        w -= 0.1 * gw
        b -= 0.1 * gb


def test_convergence_flag_and_iteration_count():
    X = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    model = logreg_fit(X, y, LogRegConfig(learning_rate=0.5, max_iters=50000, tolerance=1e-4))
    assert model.converged
    assert model.n_iters < 50000
    loose = logreg_fit(X, y, LogRegConfig(max_iters=3, tolerance=1e-12))
    assert not loose.converged
    assert loose.n_iters == 3


def test_probabilities_monotone_in_logit():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 2))
    y = (X[:, 0] > 0).astype(int)
    model = logreg_fit(X, y, LogRegConfig(max_iters=200))
    q = rng.normal(size=(40, 2))
    p = logreg_predict_proba(model, q)
    z = q @ model.weights + model.bias
    order = np.argsort(z)
    assert np.all(np.diff(p[order]) >= 0)
    assert np.all((p > 0) & (p < 1))


def test_class_weights_shift_decisions_toward_minority():
    rng = np.random.default_rng(17)
    X = np.concatenate([rng.normal(-1, 1, size=(90, 1)), rng.normal(1, 1, size=(10, 1))])
    y = np.array([0] * 90 + [1] * 10)
    plain = logreg_fit(X, y, LogRegConfig(max_iters=300))
    weighted = logreg_fit(
        X, y, LogRegConfig(max_iters=300, class_weights={0: 1.0, 1: 9.0})
    )
    grid = np.linspace(-3, 3, 61).reshape(-1, 1)
    assert classify(weighted, grid).sum() > classify(plain, grid).sum()


def test_balanced_sample_weights():
    y = np.array([0, 0, 0, 1])
    sw = _sample_weights(y, {0: 0.5, 1: 2.0})
    assert sw.tolist() == [0.5, 0.5, 0.5, 2.0]
    assert np.all(_sample_weights(y, None) == 1.0)


def test_l2_shrinks_weights():
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0, 0, 1, 1])
    free = logreg_fit(X, y, LogRegConfig(max_iters=2000))
    ridge = logreg_fit(X, y, LogRegConfig(max_iters=2000, l2_lambda=1.0))
    assert abs(ridge.weights[0]) < abs(free.weights[0])


def test_threshold_boundary_is_class_one():
    model = logreg_fit(
        np.array([[-1.0], [1.0]]), np.array([0, 1]), LogRegConfig(max_iters=0)
    )
    assert classify(model, np.array([[0.0]]))[0] == 1


def test_bad_config_rejected():
    with pytest.raises(ConfigError):
        LogRegConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        LogRegConfig(max_iters=-1)
    with pytest.raises(ConfigError):
        LogRegConfig(l2_lambda=-0.1)


def test_reaching_max_iters_warns_and_converging_does_not():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 2))
    y = (X[:, 0] > 0).astype(int)
    with pytest.warns(UserWarning, match="did not converge within 3 iterations"):
        capped = logreg_fit(X, y, LogRegConfig(max_iters=3))
    assert not capped.converged and capped.n_iters == 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        done = logreg_fit(X, y, LogRegConfig(l2_lambda=1.0, max_iters=5000, tolerance=1e-4))
    assert done.converged
