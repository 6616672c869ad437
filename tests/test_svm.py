"""RBF-kernel SVM fitted by SMO with second-order working-set selection."""

import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seizurekit import ConfigError, DataError
from seizurekit.cli import main
from seizurekit.models import (
    MODELS,
    LogRegConfig,
    logreg_fit,
    rbf_kernel,
    svm,
    svm_decision,
    svm_fit_smo,
)

from tests.test_ingest import _child_peak_mb
from tests.test_registry import classify

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
    assert np.array_equal(classify(model, XOR_X), XOR_Y)


def test_xor_beats_linear_model():
    model = svm_fit_smo(XOR_X, XOR_Y, C=10.0, gamma=2.0, seed=1)
    svm_acc = (classify(model, XOR_X) == XOR_Y).mean()
    lin = logreg_fit(XOR_X, XOR_Y, LogRegConfig(learning_rate=0.5, max_iters=2000))
    lin_acc = (classify(lin, XOR_X) == XOR_Y).mean()
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
    assert classify(model, np.array([[-2.0], [2.0]])).tolist() == [0, 1]


def test_zero_margin_is_class_one():
    model = svm_fit_smo(XOR_X, XOR_Y, C=10.0, gamma=2.0, seed=1)
    # predictions are margin >= 0, so an exactly-zero margin lands in class 1
    fake = model.support_vectors[:1] * 0.0
    sign = svm_decision(model, fake)
    pred = classify(model, fake)
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


@pytest.mark.parametrize(
    "bad", [{"gamma": np.inf}, {"gamma": np.nan}, {"tol": -1.0}, {"tol": 0.0}, {"tol": np.nan}, {"tol": np.inf}]
)
def test_gamma_and_tol_must_be_finite_and_positive(bad):
    with pytest.raises(ConfigError, match=next(iter(bad))):
        svm_fit_smo(XOR_X, XOR_Y, **bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_training_features_rejected(bad):
    X = XOR_X.astype(np.float64)
    X[2, 1] = bad
    with pytest.raises(DataError, match="non-finite"):
        svm_fit_smo(X, XOR_Y)


def test_default_gamma_is_one_over_the_feature_count():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(50, 7))
    y = (X[:, 0] - X[:, 3] > 0).astype(int)
    auto, explicit = svm_fit_smo(X, y), svm_fit_smo(X, y, gamma=1 / 7)
    assert auto.gamma == 1 / 7
    for name in ("support_vectors", "alphas", "labels"):
        assert getattr(auto, name).tobytes() == getattr(explicit, name).tobytes()
    assert (auto.bias, auto.n_iters, auto.converged) == (
        explicit.bias, explicit.n_iters, explicit.converged
    )


@pytest.mark.parametrize("X", [np.zeros((4, 0)), np.zeros(4)], ids=["no-columns", "1-d"])
def test_rows_without_feature_columns_are_a_data_error(X):
    # gamma None divides by the feature count.
    with pytest.raises(DataError, match="feature column"):
        svm_fit_smo(X, XOR_Y)


def test_the_registry_takes_its_svm_defaults_from_svm_fit_smo():
    assert MODELS["svm"].defaults == {"C": 1.0, "gamma": None, "tol": 1e-3, "max_passes": 50}
    assert list(MODELS["svm"].defaults) == ["C", "gamma", "tol", "max_passes"]
    assert MODELS["svm"].domains == svm.DOMAINS and None in svm.DOMAINS["gamma"]


def test_model_records_steps_and_convergence():
    model = svm_fit_smo(XOR_X, XOR_Y, C=10.0, gamma=2.0)
    assert model.converged and model.n_iters > 0
    rng = np.random.default_rng(6)
    X, y = rng.normal(size=(60, 2)), rng.integers(0, 2, size=60)
    with pytest.warns(UserWarning, match="converge"):
        capped = svm_fit_smo(X, y, C=1.0, gamma=1.0, max_passes=1)
    assert capped.n_iters == 30  # max_passes * ceil(n / 2) steps


def reference_simplified_smo(X, y, C, gamma, tol=1e-3, max_passes=50, seed=0):
    """The simplified SMO this solver replaced: a random partner per KKT
    violator, and a bias updated per step. Returns (alphas over all rows, y
    in {-1, +1}, converged)."""
    X = np.asarray(X, dtype=np.float64)
    y = 2.0 * np.asarray(y, dtype=np.float64) - 1.0
    n = len(X)
    K = rbf_kernel(X, X, gamma)
    alphas = np.zeros(n)
    b = 0.0
    rng = np.random.default_rng(seed)

    def f(i):
        return float((alphas * y) @ K[:, i] + b)

    for _ in range(max_passes):
        num_changed = 0
        for i in range(n):
            E_i = f(i) - y[i]
            if not ((y[i] * E_i < -tol and alphas[i] < C) or (y[i] * E_i > tol and alphas[i] > 0)):
                continue
            j = int(rng.integers(n - 1))
            if j >= i:
                j += 1
            E_j = f(j) - y[j]
            a_i_old, a_j_old = alphas[i], alphas[j]
            if y[i] != y[j]:
                L, H = max(0.0, a_j_old - a_i_old), min(C, C + a_j_old - a_i_old)
            else:
                L, H = max(0.0, a_i_old + a_j_old - C), min(C, a_i_old + a_j_old)
            eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
            if L == H or eta >= 0:
                continue
            a_j = min(H, max(L, a_j_old - y[j] * (E_i - E_j) / eta))
            if abs(a_j - a_j_old) < 1e-5:
                continue
            a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j)
            alphas[i], alphas[j] = a_i, a_j
            b1 = b - E_i - y[i] * (a_i - a_i_old) * K[i, i] - y[j] * (a_j - a_j_old) * K[i, j]
            b2 = b - E_j - y[i] * (a_i - a_i_old) * K[i, j] - y[j] * (a_j - a_j_old) * K[j, j]
            b = b1 if 0 < a_i < C else b2 if 0 < a_j < C else (b1 + b2) / 2.0
            num_changed += 1
        if num_changed == 0:
            return alphas, y, True
    return alphas, y, False


def dual_objective(alphas, y, K) -> float:
    v = alphas * y
    return float(alphas.sum() - 0.5 * v @ K @ v)


def all_alphas(model, X, y):
    """The model's alphas spread back over the training rows. Support rows
    keep their training order, so each is matched to the next equal row
    with its label; between identical rows any match gives the same F."""
    out = np.zeros(len(X))
    k = 0
    for t in range(len(X)):
        if k < len(model.alphas) and y[t] == model.labels[k] and np.array_equal(
            X[t], model.support_vectors[k]
        ):
            out[t] = model.alphas[k]
            k += 1
    assert k == len(model.alphas)
    return out


def violating_pair_gap(alphas, y, K, C) -> float:
    """max F over I_up minus min F over I_low, with F = y - K (alpha y)
    computed from the alphas alone."""
    F = y - K @ (alphas * y)
    pos = y > 0
    up = np.where(pos, alphas < C, alphas > 0)
    low = np.where(pos, alphas > 0, alphas < C)
    return float(F[up].max() - F[low].min())


@st.composite
def small_problems(draw):
    n = draw(st.integers(4, 40))
    d = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)).round(draw(st.integers(0, 3)))
    copies = draw(st.integers(0, n // 2))
    X[:copies] = X[n - copies:]  # duplicate rows, with labels that may differ
    y = rng.integers(0, 2, size=n)
    y[:2] = (0, 1)
    C = draw(st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]))
    gamma = draw(st.sampled_from([0.1, 1.0, 5.0]))
    return X, y, C, gamma


@settings(deadline=None, max_examples=150)
@given(small_problems(), st.sampled_from([1e-3, 1e-2]))
# The step-by-step F once read a gap of tol where the fresh one is 0.010000000000000009.
@example(
    (np.array([[1.0, -1], [-2, -3], [0, 1], [0, 1], [1, -1], [3, -1]]), np.array([0, 1, 1, 1, 1, 0]), 0.01, 5.0),
    1e-2,
)
def test_solver_is_feasible_converges_and_is_no_worse_than_simplified_smo(problem, tol):
    X, y, C, gamma = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = svm_fit_smo(X, y, C=C, gamma=gamma, tol=tol, max_passes=200)
    assert np.all(model.alphas > 0) and np.all(model.alphas <= C)
    assert abs(float(model.alphas @ model.labels)) < 1e-9
    assert model.n_iters <= 200 * -(-len(X) // 2)
    if not model.converged:
        return
    signed = 2.0 * y - 1.0
    alphas = all_alphas(model, X, signed)
    K = rbf_kernel(X, X, gamma)
    assert violating_pair_gap(alphas, signed, K, C) <= tol
    ref_alphas, ref_y, _ = reference_simplified_smo(X, y, C, gamma, tol=tol)
    assert dual_objective(alphas, signed, K) >= dual_objective(ref_alphas, ref_y, K) - tol * C * len(X)


@pytest.fixture(scope="module")
def default_size_svm_run(tmp_path_factory):
    """A holdout svm run on a 23 x 300 synthetic set (92 feature dims) at C 0.1."""
    root = tmp_path_factory.mktemp("svm300")
    assert main(["synth", "--epochs-per-patient", "300", "--seed", "0", "--out", str(root / "data")]) == 0
    cfg = root / "svm.json"
    cfg.write_text(json.dumps({"model": "svm", "model_params": {"C": 0.1, "max_passes": 30}}), encoding="utf-8")
    argv = ["train", "--features", str(root / "data" / "features.csv"), "--config", str(cfg)]
    assert main([*argv, "--out", str(root / "a")]) == 0
    assert main([*argv, "--out", str(root / "b")]) == 0
    return root


def test_default_size_holdout_svm_converges(default_size_svm_run):
    doc = json.loads((default_size_svm_run / "a" / "model.json").read_text(encoding="utf-8"))
    assert doc["params"]["converged"] is True
    assert 0 < doc["params"]["n_iters"] <= 30 * 1500
    report = json.loads((default_size_svm_run / "a" / "report.json").read_text(encoding="utf-8"))
    assert "warnings" not in report


def test_svm_refit_writes_a_byte_identical_model_file(default_size_svm_run):
    a, b = (default_size_svm_run / side / "model.json" for side in ("a", "b"))
    assert a.read_bytes() == b.read_bytes()


def reference_dense_smo(X, y, C, gamma, tol=1e-3, max_passes=50):
    """svm_fit_smo's solver on the whole kernel, built once: the form the
    row cache replaced. Returns (alphas over all rows, bias, steps, converged)."""
    y = 2.0 * np.asarray(y, dtype=np.float64) - 1.0
    n = len(X)
    K = rbf_kernel(X, X, gamma)
    alphas, F, pos = np.zeros(n), y.copy(), y > 0
    budget, steps, fresh = max_passes * -(-n // 2), 0, True
    while True:
        up = np.where(pos, alphas < C, alphas > 0)
        low = np.where(pos, alphas > 0, alphas < C)
        i = int(np.argmax(np.where(up, F, -np.inf)))
        hi, lo = F[i], F[low].min()
        converged = hi - lo <= tol
        if converged and not fresh:
            F, fresh = y - K @ (alphas * y), True
            continue
        if converged or steps == budget:
            break
        gain = hi - F
        curv = K[i, i] + K.diagonal() - 2.0 * K[i]
        curv[curv <= 0] = 1e-12
        j = int(np.argmin(np.where(low & (gain > 0), -gain * gain / curv, np.inf)))
        cap_i = C - alphas[i] if pos[i] else alphas[i]
        cap_j = alphas[j] if pos[j] else C - alphas[j]
        t = min(gain[j] / curv[j], cap_i, cap_j)
        alphas[i] = (C if pos[i] else 0.0) if t == cap_i else alphas[i] + y[i] * t
        alphas[j] = (0.0 if pos[j] else C) if t == cap_j else alphas[j] - y[j] * t
        F -= t * (K[i] - K[j])
        steps, fresh = steps + 1, False
    free = (alphas > 0) & (alphas < C)
    bias = float(F[free].mean()) if free.any() else float(hi + lo) / 2.0
    return alphas, bias, steps, converged


def blobs(n, d, seed):
    """Two overlapping Gaussian classes, continuous so that no two rows tie."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.3).astype(int)
    return rng.normal(size=(n, d)) + 0.8 * y[:, None], y


@pytest.mark.parametrize("n, d, C, gamma, seed", [(150, 5, 1.0, 0.5, 0), (300, 12, 0.1, 1 / 12, 1), (200, 3, 10.0, 2.0, 2)])
def test_row_cache_fit_matches_a_dense_kernel_fit(n, d, C, gamma, seed):
    X, y = blobs(n, d, seed)
    signed = 2.0 * y - 1.0
    model = svm_fit_smo(X, y, C=C, gamma=gamma, max_passes=200)
    ref_alphas, ref_bias, ref_steps, ref_converged = reference_dense_smo(X, y, C, gamma, max_passes=200)
    assert model.converged and ref_converged and model.n_iters == ref_steps
    alphas = all_alphas(model, X, signed)
    assert np.array_equal(alphas > 0, ref_alphas > 0)
    assert np.abs(alphas - ref_alphas).max() <= 1e-12
    assert model.bias == pytest.approx(ref_bias, abs=1e-12)
    K = rbf_kernel(X, X, gamma)
    assert violating_pair_gap(alphas, signed, K, C) <= 1e-3
    assert violating_pair_gap(ref_alphas, signed, K, C) <= 1e-3


def test_a_two_row_cache_fits_the_same_model_bit_for_bit(monkeypatch):
    X, y = blobs(200, 4, 3)
    big = svm_fit_smo(X, y, C=1.0, gamma=0.5, max_passes=200)
    computed = []  # the rows of each kernel block computed
    rbf = svm._rbf

    def counted(*args):
        computed.append(len(args[0]))
        return rbf(*args)

    monkeypatch.setattr(svm, "_rbf", counted)
    monkeypatch.setattr(svm, "_ROW_CACHE_BYTES", 2 * 8 * len(X))
    tiny = svm_fit_smo(X, y, C=1.0, gamma=0.5, max_passes=200)
    # Every step reads two rows; a two-row cache had to compute most again.
    assert computed.count(1) > tiny.n_iters
    for field in ("support_vectors", "alphas", "labels"):
        assert np.array_equal(getattr(tiny, field).view(np.uint64), getattr(big, field).view(np.uint64))
    assert (tiny.bias, tiny.n_iters, tiny.converged) == (big.bias, big.n_iters, big.converged)


def test_steps_after_an_unconfirmed_gap_match_a_dense_kernel_fit(monkeypatch):
    # The step-by-step F reads a gap of tol here, the fresh one a gap just
    # above it, so SMO steps on from a row cache emptied for the fresh F.
    X = np.array([[1.0, -1], [-2, -3], [0, 1], [0, 1], [1, -1], [3, -1]])
    y = np.array([0, 1, 1, 1, 1, 0])
    C, gamma, tol = 0.01, 5.0, 0.01
    events = []  # "F" for each fresh F, else the cached rows before a row read
    margins, read = svm._margins, svm._KernelRows.__getitem__

    def fresh_f(*args):
        events.append("F")
        return margins(*args)

    def read_row(self, i):
        events.append(len(self.rows))
        return read(self, i)

    monkeypatch.setattr(svm, "_margins", fresh_f)
    monkeypatch.setattr(svm._KernelRows, "__getitem__", read_row)
    model = svm_fit_smo(X, y, C=C, gamma=gamma, tol=tol, max_passes=200)
    first = events.index("F")
    assert events.count("F") == 2 and events[first + 1] == 0, events
    ref_alphas, ref_bias, ref_steps, ref_converged = reference_dense_smo(X, y, C, gamma, tol=tol, max_passes=200)
    assert model.converged and ref_converged and model.n_iters == ref_steps
    alphas = all_alphas(model, X, 2.0 * y - 1.0)
    assert np.array_equal(alphas > 0, ref_alphas > 0)
    assert np.abs(alphas - ref_alphas).max() <= 1e-12
    assert model.bias == pytest.approx(ref_bias, abs=1e-12)


def random_model(n_sv, d, seed):
    rng = np.random.default_rng(seed)
    return svm.SVMModel(
        support_vectors=rng.normal(size=(n_sv, d)),
        alphas=rng.random(n_sv),
        labels=rng.choice([-1.0, 1.0], n_sv),
        bias=0.25,
        gamma=0.3 / d,
        C=1.0,
    )


# Row counts that no block of 64 or 2,048 rows divides.
@pytest.mark.parametrize("n_sv, d, rows", [(1, 3, 4100), (20, 6, 333), (64, 92, 4101), (526, 92, 6900), (100, 17, 2049)])
@pytest.mark.parametrize("block_rows", [1, 64, 2048])
def test_decision_blocks_give_the_margins_of_one_block(monkeypatch, n_sv, d, rows, block_rows):
    model = random_model(n_sv, d, rows)
    X = np.random.default_rng(rows + 1).normal(size=(rows, d))
    coef = model.alphas * model.labels
    want = coef @ rbf_kernel(model.support_vectors, X, model.gamma) + model.bias
    monkeypatch.setattr(svm, "_BLOCK_BYTES", 8 * n_sv * block_rows)
    got = svm_decision(model, X)
    # A block's product may take another BLAS kernel or thread split than
    # the whole one; on OpenBLAS, 2,048-row blocks with one thread differed
    # only on tails of a few rows, by at most 1.3 ulps of sum |coef|.
    assert np.abs(got - want).max() <= 64 * np.finfo(float).eps * np.abs(coef).sum()
    assert np.array_equal(svm_decision(model, X), got)


def test_decision_holds_one_block_of_kernel_at_a_time(monkeypatch):
    model = random_model(100, 8, 0)
    X = np.random.default_rng(1).normal(size=(20_000, 8))
    monkeypatch.setattr(svm, "_BLOCK_BYTES", 1 << 20)  # the whole kernel would be 16 MB
    tracemalloc.start()
    try:
        svm_decision(model, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * (1 << 20)


_FIT_3000 = """
import numpy as np
from seizurekit.models import svm_fit_smo
rng = np.random.default_rng(0)
y = (rng.random(3000) < 0.3).astype(int)
X = rng.normal(size=(3000, 92)) + 0.3 * y[:, None]
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux's ru_maxrss in KiB")
def test_a_3000_row_fit_holds_far_less_than_the_whole_kernel(tmp_path):
    fit = _FIT_3000 + "model = svm_fit_smo(X, y, C=0.1, gamma=1 / 92, max_passes=30)\nassert model.converged\n"
    rise = _child_peak_mb(fit, tmp_path) - _child_peak_mb(_FIT_3000, tmp_path)
    kernel_mb = 3000**2 * 8 / 2**20
    assert rise < 0.4 * kernel_mb, f"a 3000-row fit rose {rise:.1f} MB; the whole kernel is {kernel_mb:.1f} MB"


def test_a_3000_row_fit_holds_at_most_twice_its_larger_budget_beyond_its_inputs():
    rng = np.random.default_rng(0)
    y = (rng.random(3000) < 0.3).astype(int)
    X = rng.normal(size=(3000, 92)) + 0.3 * y[:, None]
    tracemalloc.start()
    try:
        model = svm_fit_smo(X, y, C=0.1, gamma=1 / 92, max_passes=30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.converged and len(model.alphas) > 1000  # 2 * sv is more than half a kernel block
    budget = max(svm._ROW_CACHE_BYTES, svm._BLOCK_BYTES)
    # The row cache and the model's support vectors, or 2 * sv and one block of margins.
    assert peak <= 2 * budget, peak / budget


def test_default_size_holdout_svm_reports_its_steps(default_size_svm_run):
    doc = json.loads((default_size_svm_run / "a" / "model.json").read_text(encoding="utf-8"))
    report = json.loads((default_size_svm_run / "a" / "report.json").read_text(encoding="utf-8"))
    assert (report["n_iters"], report["converged"]) == (doc["params"]["n_iters"], doc["params"]["converged"])
