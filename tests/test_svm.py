"""RBF-kernel SVM fitted with simplified sequential minimal optimization."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seizurekit import ConfigError, DataError
from seizurekit.models import (
    LogRegConfig,
    logreg_fit,
    logreg_predict,
    rbf_kernel,
    svm_decision,
    svm_fit_smo,
    svm_predict,
)

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def test_kernel_self_similarity_is_one():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(10, 4))
    K = rbf_kernel(A, A, gamma=0.7)
    assert np.allclose(np.diag(K), 1.0)
    assert np.all((K > 0) & (K <= 1.0))
    assert np.allclose(K, K.T)


def test_kernel_known_value():
    K = rbf_kernel(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), gamma=0.5)
    assert K[0, 0] == pytest.approx(np.exp(-1.0))


def reference_rbf_kernel(A, B, gamma):
    """The kernel as one expression, with a temporary per step."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    sq = (A * A).sum(axis=1)[:, None] - 2.0 * A @ B.T + (B * B).sum(axis=1)[None, :]
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(1, 12),
    st.floats(1e-4, 50.0),
    st.floats(1e-3, 1e3),
    st.integers(0, 2**32 - 1),
)
def test_kernel_is_bit_identical_to_the_reference_expression(n, m, d, gamma, scale, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, d)) * scale
    B = np.concatenate([A[: m // 2], rng.normal(size=(m - m // 2, d)) * scale])
    for a, b in ((A, B), (A, A), (A[0], B)):
        got, want = rbf_kernel(a, b, gamma), reference_rbf_kernel(a, b, gamma)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_kernel_peak_memory_is_one_output_buffer():
    rng = np.random.default_rng(2)
    A, B = rng.normal(size=(600, 8)), rng.normal(size=(500, 8))
    tracemalloc.start()
    try:
        K = rbf_kernel(A, B, gamma=0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * K.nbytes


def test_xor_is_learned_exactly():
    model = svm_fit_smo(XOR_X, XOR_Y, C=10.0, gamma=2.0, seed=1)
    assert model.converged
    assert np.array_equal(svm_predict(model, XOR_X), XOR_Y)


def test_xor_beats_linear_model():
    model = svm_fit_smo(XOR_X, XOR_Y, C=10.0, gamma=2.0, seed=1)
    svm_acc = (svm_predict(model, XOR_X) == XOR_Y).mean()
    lin = logreg_fit(XOR_X, XOR_Y, LogRegConfig(learning_rate=0.5, max_iters=2000))
    lin_acc = (logreg_predict(lin, XOR_X) == XOR_Y).mean()
    assert svm_acc == 1.0
    assert lin_acc <= 0.75  # no linear boundary solves XOR


def test_dual_constraints_hold():
    rng = np.random.default_rng(3)
    X = np.concatenate([rng.normal(-1, 0.8, size=(25, 2)), rng.normal(1, 0.8, size=(25, 2))])
    y = np.array([0] * 25 + [1] * 25)
    C = 2.0
    model = svm_fit_smo(X, y, C=C, gamma=0.5, seed=1)
    assert np.all(model.alphas >= -1e-12)
    assert np.all(model.alphas <= C + 1e-12)
    assert abs(float(model.alphas @ model.labels)) < 1e-6
    assert set(np.unique(model.labels)) <= {-1.0, 1.0}


def test_unbounded_support_vectors_sit_on_margin():
    model = svm_fit_smo(XOR_X, XOR_Y, C=10.0, gamma=2.0, tol=1e-4, max_passes=200, seed=1)
    margins = svm_decision(model, model.support_vectors)
    free = (model.alphas > 1e-8) & (model.alphas < 10.0 - 1e-8)
    # KKT: free support vectors satisfy y_i * f(x_i) = 1
    assert np.allclose(model.labels[free] * margins[free], 1.0, atol=5e-2)


def test_decision_sign_convention():
    rng = np.random.default_rng(4)
    X = np.concatenate([rng.normal(-2, 0.5, size=(20, 1)), rng.normal(2, 0.5, size=(20, 1))])
    y = np.array([0] * 20 + [1] * 20)
    model = svm_fit_smo(X, y, C=1.0, gamma=1.0, seed=2)
    d = svm_decision(model, np.array([[-2.0], [2.0]]))
    assert d[0] < 0 < d[1]
    assert svm_predict(model, np.array([[-2.0], [2.0]])).tolist() == [0, 1]


def test_zero_margin_is_class_one():
    model = svm_fit_smo(XOR_X, XOR_Y, C=10.0, gamma=2.0, seed=1)
    # predictions are margin >= 0, so an exactly-zero margin lands in class 1
    fake = model.support_vectors[:1] * 0.0
    sign = svm_decision(model, fake)
    pred = svm_predict(model, fake)
    assert pred[0] == (1 if sign[0] >= 0 else 0)


def test_signed_and_binary_labels_agree():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 2))
    y01 = (X[:, 0] > 0).astype(int)
    a = svm_fit_smo(X, y01, C=1.0, gamma=1.0, seed=3)
    b = svm_fit_smo(X, 2 * y01 - 1, C=1.0, gamma=1.0, seed=3)
    q = rng.normal(size=(10, 2))
    assert np.array_equal(svm_decision(a, q), svm_decision(b, q))


def test_non_convergence_warns_and_flags():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(60, 2))
    y = rng.integers(0, 2, size=60)  # pure noise: hard to satisfy KKT quickly
    with pytest.warns(UserWarning, match="converge"):
        model = svm_fit_smo(X, y, C=1.0, gamma=1.0, max_passes=1, seed=0)
    assert not model.converged


def test_convergence_is_quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = svm_fit_smo(XOR_X, XOR_Y, C=10.0, gamma=2.0, seed=1)
    assert model.converged


def test_same_seed_reproduces_model():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = svm_fit_smo(X, y, C=1.0, gamma=0.8, seed=9)
        b = svm_fit_smo(X, y, C=1.0, gamma=0.8, seed=9)
    assert np.array_equal(a.alphas, b.alphas)
    assert a.bias == b.bias


def test_bad_input_rejected():
    with pytest.raises(ConfigError):
        svm_fit_smo(XOR_X, XOR_Y, C=0.0)
    with pytest.raises(ConfigError):
        svm_fit_smo(XOR_X, XOR_Y, gamma=-1.0)
    with pytest.raises(ConfigError):
        svm_fit_smo(XOR_X, XOR_Y, max_passes=0)
    with pytest.raises(DataError):
        svm_fit_smo(XOR_X, np.array([0, 0, 0, 0]))
    with pytest.raises(DataError):
        svm_fit_smo(XOR_X, np.array([0, 1, 2, 1]))
    with pytest.raises(DataError):
        svm_fit_smo(np.zeros((0, 2)), np.zeros(0))
