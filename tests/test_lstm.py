"""LSTM recurrence, exact BPTT gradients, training, and prediction."""

import functools
import operator
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seizurekit
from seizurekit import ConfigError, DataError, Windows
from seizurekit.models import (
    LstmParams,
    LstmTrainConfig,
    init_params,
    lstm_forward,
    lstm_grad,
    lstm_predict,
    lstm_train,
)
from seizurekit.models import lstm, sigmoid
from seizurekit.models.lstm import _FIELDS, _as_windows, _bce, _forward_batch, _mean_loss
from seizurekit.pipeline import _balance_by_duplication


def zero_params(d=3, h=4):
    zw = np.zeros((h, d + h))
    zb = np.zeros(h)
    return LstmParams(
        W_i=zw.copy(), W_f=zw.copy(), W_o=zw.copy(), W_g=zw.copy(),
        b_i=zb.copy(), b_f=zb.copy(), b_o=zb.copy(), b_g=zb.copy(),
        w_out=np.zeros(h), b_out=0.0,
    )


def flatten(p):
    parts = []
    for k in _FIELDS:
        v = getattr(p, k)
        parts.append(np.atleast_1d(np.asarray(v, dtype=np.float64)).ravel())
    return np.concatenate(parts)


def unflatten(template, vec):
    out = {}
    pos = 0
    for k in _FIELDS:
        v = getattr(template, k)
        if np.isscalar(v) or getattr(v, "ndim", 0) == 0:
            out[k] = float(vec[pos])
            pos += 1
        else:
            size = v.size
            out[k] = vec[pos : pos + size].reshape(v.shape)
            pos += size
    return LstmParams(**out)


def test_zero_parameters_emit_half():
    p = zero_params()
    prob, _ = lstm_forward(p, np.ones((5, 3)))
    assert prob == 0.5


def test_output_head_sigmoid_oracle():
    # all-zero recurrence plus b_out=2 makes the output sigmoid(2) exactly
    p = zero_params()
    p = LstmParams(**{**{k: getattr(p, k) for k in _FIELDS}, "b_out": 2.0})
    prob, _ = lstm_forward(p, np.ones((4, 3)))
    assert prob == pytest.approx(0.8807970779778823, abs=1e-15)


def test_forward_is_deterministic():
    p = init_params(3, hidden_dim=4, seed=0)
    seq = np.random.default_rng(1).normal(size=(6, 3))
    a, _ = lstm_forward(p, seq)
    b, _ = lstm_forward(p, seq)
    assert a == b


def test_gate_activations_are_bounded():
    p = init_params(3, hidden_dim=4, seed=2)
    seq = np.random.default_rng(3).normal(size=(7, 3)) * 5.0
    prob, cache = lstm_forward(p, seq)
    for key in ("i", "f", "o"):
        for arr in cache[key]:
            assert np.all((arr > 0) & (arr < 1))
    for arr in cache["g"] + cache["tanh_c"]:
        assert np.all(np.abs(arr) <= 1.0)
    assert 0.0 < prob < 1.0


def test_init_bounds_and_forget_bias():
    p = init_params(5, hidden_dim=16, seed=4)
    s = 1.0 / np.sqrt(16)
    for k in ("W_i", "W_f", "W_o", "W_g", "b_i", "b_o", "b_g", "w_out"):
        v = getattr(p, k)
        assert np.all(np.abs(v) <= s)
    assert np.all(p.b_f == 1.0)
    assert p.hidden_dim == 16 and p.input_dim == 5


def test_init_draws_in_field_order_and_the_forget_bias_draws_nothing():
    d, h, seed = 3, 5, 7
    p = init_params(d, hidden_dim=h, seed=seed)
    rng = np.random.default_rng(seed)
    s = 1.0 / np.sqrt(h)
    for k in ("W_i", "W_f", "W_o", "W_g"):
        assert np.array_equal(getattr(p, k), rng.uniform(-s, s, size=(h, d + h))), k
    for k in ("b_i", "b_o", "b_g", "w_out"):
        assert np.array_equal(getattr(p, k), rng.uniform(-s, s, size=h)), k
    assert type(p.b_out) is float and p.b_out == float(rng.uniform(-s, s))
    assert np.array_equal(p.b_f, np.ones(h))


def test_gradients_match_finite_differences():
    # every parameter entry, central differences, multiple seeds
    d, h, T, N = 3, 4, 5, 3
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        p = init_params(d, hidden_dim=h, seed=seed)
        seqs = rng.normal(size=(N, T, d))
        labels = rng.integers(0, 2, size=N).astype(float)
        grads, _ = lstm_grad(p, seqs, labels, clip_norm=None)
        gvec = flatten(
            LstmParams(**{k: grads[k] for k in _FIELDS})
        )
        pvec = flatten(p)
        eps = 1e-5
        for j in range(len(pvec)):
            up = pvec.copy()
            up[j] += eps
            dn = pvec.copy()
            dn[j] -= eps
            lp = _mean_loss(unflatten(p, up), seqs, labels)
            lm = _mean_loss(unflatten(p, dn), seqs, labels)
            num = (lp - lm) / (2 * eps)
            rel = abs(num - gvec[j]) / max(1e-8, abs(num), abs(gvec[j]))
            worst = max(worst, rel)
    assert worst < 1e-4


def test_gradient_clipping_rescales_global_norm():
    rng = np.random.default_rng(6)
    p = init_params(3, hidden_dim=4, seed=6)
    seqs = rng.normal(size=(4, 5, 3)) * 10
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    raw, _ = lstm_grad(p, seqs, labels, clip_norm=None)
    raw_norm = np.sqrt(sum(
        float(np.sum(np.square(raw[k]))) for k in _FIELDS
    ))
    clip = raw_norm / 2
    clipped, _ = lstm_grad(p, seqs, labels, clip_norm=clip)
    norm = np.sqrt(sum(float(np.sum(np.square(clipped[k]))) for k in _FIELDS))
    assert norm == pytest.approx(clip, rel=1e-12)
    # direction is preserved
    assert np.allclose(clipped["W_i"] * 2, raw["W_i"])


def test_batch_duplication_leaves_mean_gradient_unchanged():
    rng = np.random.default_rng(7)
    p = init_params(2, hidden_dim=3, seed=7)
    seqs = rng.normal(size=(3, 4, 2))
    labels = np.array([1.0, 0.0, 1.0])
    g1, l1 = lstm_grad(p, seqs, labels, clip_norm=None)
    g2, l2 = lstm_grad(
        p, np.concatenate([seqs, seqs]), np.concatenate([labels, labels]), clip_norm=None
    )
    assert l1 == pytest.approx(l2, rel=1e-12)
    for k in _FIELDS:
        assert np.allclose(g1[k], g2[k], rtol=1e-10)


def test_memorizes_toy_sequences():
    rng = np.random.default_rng(8)
    n, T, d = 20, 6, 4
    labels = np.array([i % 2 for i in range(n)], dtype=float)
    seqs = rng.normal(size=(n, T, d)) + labels[:, None, None] * 1.5
    params, history = lstm_train(
        (seqs, labels), None,
        LstmTrainConfig(learning_rate=0.2, epochs=200, batch_size=4, seed=0),
    )
    classes, probs = lstm_predict(params, seqs)
    assert (classes == labels).mean() >= 0.95
    assert history["train_loss"][-1] < history["train_loss"][0] * 0.5


def test_training_history_is_reproducible():
    rng = np.random.default_rng(9)
    seqs = rng.normal(size=(10, 5, 3))
    labels = (rng.random(10) > 0.5).astype(float)
    cfg = LstmTrainConfig(learning_rate=0.1, epochs=5, batch_size=4, seed=3)
    _, h1 = lstm_train((seqs, labels), None, cfg)
    _, h2 = lstm_train((seqs, labels), None, cfg)
    assert h1["train_loss"] == h2["train_loss"]
    assert h1["val_loss"] == h2["val_loss"]


def test_validation_set_drives_model_selection():
    rng = np.random.default_rng(10)
    seqs = rng.normal(size=(12, 4, 2))
    labels = (seqs[:, -1, 0] > 0).astype(float)
    vseqs = rng.normal(size=(6, 4, 2))
    vlabels = (vseqs[:, -1, 0] > 0).astype(float)
    params, history = lstm_train(
        (seqs, labels), (vseqs, vlabels),
        LstmTrainConfig(learning_rate=0.3, epochs=30, batch_size=4, seed=1),
    )
    # returned params are the best-validation snapshot, not the last epoch
    assert _mean_loss(params, vseqs, vlabels) <= min(history["val_loss"]) + 1e-12


def test_early_stopping_with_patience():
    rng = np.random.default_rng(11)
    seqs = rng.normal(size=(8, 3, 2))
    labels = rng.integers(0, 2, size=8).astype(float)
    cfg = LstmTrainConfig(learning_rate=5.0, epochs=500, batch_size=8, seed=0, patience=3)
    _, history = lstm_train((seqs, labels), None, cfg)
    assert len(history["train_loss"]) < 500


def test_predict_threshold_boundary_and_empty():
    p = zero_params()
    classes, probs = lstm_predict(p, np.zeros((3, 2, 3)))
    assert probs.tolist() == [0.5, 0.5, 0.5]
    assert classes.tolist() == [1, 1, 1]  # p >= threshold at exactly 0.5
    assert lstm_predict(p, np.zeros((0, 2, 3)))[0].size == 0


def test_bad_input_rejected():
    p = zero_params()
    with pytest.raises(DataError):
        lstm_forward(p, np.zeros((0, 3)))
    with pytest.raises(DataError):
        lstm_forward(p, np.zeros((4, 7)))  # wrong feature width
    with pytest.raises(DataError):
        lstm_grad(p, np.zeros((0, 2, 3)), np.zeros(0))
    with pytest.raises(DataError):
        lstm_grad(p, np.zeros((2, 2, 3)), np.zeros(3))
    with pytest.raises(ConfigError):
        LstmTrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        LstmTrainConfig(patience=0)
    with pytest.raises(ConfigError):
        init_params(0)


def overlapping_windows(n_rows=40, T=4, d=3, seed=12):
    """Every length-T run of n_rows random rows as index windows, with an
    imbalanced label per window."""
    rows = np.random.default_rng(seed).normal(size=(n_rows, d))
    idx = np.arange(n_rows - T + 1)[:, None] + np.arange(T)
    return Windows(rows, idx), (rows[idx[:, -1], 0] > 0.8).astype(np.int64)


def test_index_windows_train_and_score_bit_equal_to_copied_windows():
    windows, labels = overlapping_windows()
    balanced, y = _balance_by_duplication(windows, labels)
    assert len(balanced) > len(windows)  # minority windows were duplicated
    assert balanced.rows is windows.rows
    val = (windows[::3], labels[::3])
    cfg = LstmTrainConfig(learning_rate=0.1, epochs=3, batch_size=5, seed=2)

    p_idx, h_idx = lstm_train((balanced, y), val, cfg)
    p_arr, h_arr = lstm_train((balanced.rows[balanced.idx], y), (val[0].rows[val[0].idx], val[1]), cfg)
    for k in _FIELDS:
        assert np.array_equal(getattr(p_idx, k), getattr(p_arr, k)), k
    assert h_idx == h_arr

    classes, probs = lstm_predict(p_idx, windows)
    classes_arr, probs_arr = lstm_predict(p_idx, windows.rows[windows.idx])
    assert np.array_equal(probs, probs_arr)
    assert np.array_equal(classes, classes_arr)


def test_gradients_on_index_windows_equal_those_on_copied_windows():
    windows, labels = overlapping_windows(n_rows=12, T=3)
    p = init_params(3, hidden_dim=4, seed=5)
    g_idx, loss_idx = lstm_grad(p, windows, labels)
    g_arr, loss_arr = lstm_grad(p, windows.rows[windows.idx], labels)
    assert loss_idx == loss_arr
    for k in _FIELDS:
        assert np.array_equal(g_idx[k], g_arr[k]), k


def test_scoring_memory_does_not_grow_with_window_length():
    n, d = 2000, 8
    p = init_params(d, hidden_dim=8, seed=0)
    peaks = {}
    for T in (10, 40):
        windows = Windows(np.ones((n + T, d)), np.arange(n)[:, None] + np.arange(T))
        tracemalloc.start()
        lstm_predict(p, windows)
        peaks[T] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # Kept activations would take 8 arrays of n rows per step: 4x at T = 40.
    assert peaks[40] < 1.2 * peaks[10], peaks


def test_scoring_replaces_a_steps_gates_one_at_a_time():
    n, d, h = 4000, 4, 64
    p = init_params(d, hidden_dim=h, seed=0)
    peaks = {}
    for T in (1, 8):
        windows = Windows(np.ones((n + T, d)), np.arange(n)[:, None] + np.arange(T))
        tracemalloc.start()
        lstm_predict(p, windows)
        peaks[T] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # Over T = 1, later steps hold 3.0 more (n, h) arrays; computing all four
    # new gates while the last step's four are alive holds 5.0.
    arrays = (peaks[8] - peaks[1]) / (n * h * 8)
    assert arrays <= 3.5, arrays


def test_forward_batch_replaces_a_steps_gates_one_at_a_time():
    # test_scoring_replaces_a_steps_gates_one_at_a_time on one pass over
    # every window, which blocked scoring need not make at this size.
    n, d, h = 4000, 4, 64
    p = init_params(d, hidden_dim=h, seed=0)
    peaks = {}
    for T in (1, 8):
        windows = Windows(np.ones((n + T, d)), np.arange(n)[:, None] + np.arange(T))
        tracemalloc.start()
        _forward_batch(p, windows, keep=False)
        peaks[T] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    arrays = (peaks[8] - peaks[1]) / (n * h * 8)
    assert arrays <= 3.5, arrays


def block_windows(d: int, h: int) -> int:
    """Windows in a scoring block: the largest power of two, 8 at least,
    whose (N, d + h) step input fits in lstm._BLOCK_BYTES, or else the
    smallest whose gate products have lstm._MIN_GATE_CELLS cells."""
    n = 8
    while 2 * n * (d + h) * 8 <= lstm._BLOCK_BYTES or n * h < lstm._MIN_GATE_CELLS:
        n *= 2
    return n


def blocked_scoring_mismatches(d: int, h: int) -> list:
    """The window counts, among 1, 7 and counts about one to three blocks,
    at which lstm_predict or _mean_loss differ in any bit from one
    _forward_batch over every window."""
    step = block_windows(d, h)
    p = init_params(d, hidden_dim=h, seed=d + h)
    rng = np.random.default_rng(h)
    bad = []
    for n in (1, 7, step - 1, step, step + 1, 2 * step - 1, 3 * step + 5):
        T = 3
        windows = Windows(rng.normal(size=(n + T, d)), np.arange(n)[:, None] + np.arange(T))
        labels = (rng.random(n) < 0.3).astype(np.float64)
        whole, _ = _forward_batch(p, windows, keep=False)
        _, probs = lstm_predict(p, windows)
        loss = _mean_loss(p, windows, labels)
        if not (np.array_equal(probs, whole) and loss == float(_bce(whole, labels).mean())):
            bad.append(n)
    return bad


# (d, h) with 8,192 and 512 windows in a block, and 1,024, where the
# smallest gate product sets the block.
BLOCKED_SHAPES = [(3, 5), (92, 16), (127, 2)]


@pytest.mark.parametrize("d, h", BLOCKED_SHAPES)
def test_blocked_scoring_is_bit_equal_to_one_pass(d, h):
    assert blocked_scoring_mismatches(d, h) == []


@pytest.mark.parametrize("d, h", BLOCKED_SHAPES)
def test_blocked_scoring_is_bit_equal_to_one_pass_with_one_blas_thread(d, h):
    # The benchmark and the byte-identity of the CLI's outputs assume one thread.
    root = Path(__file__).resolve().parents[1]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(Path(seizurekit.__file__).parents[1]), str(root)]),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    code = f"from tests.test_lstm import blocked_scoring_mismatches as m; print(m({d}, {h}))"
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("n_blocks", [1, 2, 3])
@pytest.mark.parametrize("extra", [0, 1, -1])
def test_scoring_blocks_are_whole_and_the_last_takes_the_remainder(monkeypatch, n_blocks, extra):
    d, h = 3, 5
    step = block_windows(d, h)
    n = max(1, n_blocks * step + extra)
    sizes = []

    def counted(p, w, keep):
        sizes.append(len(w))
        return _forward_batch(p, w, keep)

    monkeypatch.setattr(lstm, "_forward_batch", counted)
    lstm_predict(init_params(d, hidden_dim=h), Windows(np.zeros((n, d)), np.arange(n)[:, None]))
    assert sum(sizes) == n
    assert sizes[:-1] == [step] * (len(sizes) - 1)
    assert step <= sizes[-1] < 2 * step or sizes == [n]


@pytest.mark.parametrize("score", ["predict", "mean_loss"])
def test_scoring_memory_does_not_grow_with_the_number_of_blocks(score):
    d, h, T = 92, 64, 2
    step = block_windows(d, h)
    p = init_params(d, hidden_dim=h, seed=0)
    peaks = {}
    for blocks in (2, 16):
        n = blocks * step
        windows = Windows(np.ones((n + T, d)), np.arange(n)[:, None] + np.arange(T))
        labels = np.zeros(n)
        tracemalloc.start()
        if score == "predict":
            lstm_predict(p, windows)
        else:
            _mean_loss(p, windows, labels)
        peaks[blocks] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # One pass over every window would hold 8x as much at 16 blocks.
    assert peaks[16] <= 1.2 * peaks[2], peaks


@pytest.mark.parametrize(
    "train_labels, val",
    [
        (np.zeros(5), None),  # one label short
        (np.zeros(6), (np.zeros((3, 4, 3)), np.zeros(1))),  # one label for three windows
        (np.zeros(6), (np.zeros((3, 4, 3)), np.zeros((3, 1)))),
        (np.zeros(6), (np.zeros((3, 5, 3)), np.zeros(3))),  # T differs
        (np.zeros(6), (np.zeros((3, 4, 2)), np.zeros(3))),  # d differs
        (np.zeros(6), (np.zeros((0, 4, 3)), np.zeros(0))),
    ],
)
def test_train_rejects_mismatched_labels_and_windows(train_labels, val):
    cfg = LstmTrainConfig(epochs=1)
    with pytest.raises(DataError):
        lstm_train((np.zeros((6, 4, 3)), train_labels), val, cfg)


def test_grad_rejects_labels_that_would_broadcast():
    with pytest.raises(DataError, match=r"shape \(2, 1\)"):
        lstm_grad(zero_params(), np.zeros((2, 2, 3)), np.zeros((2, 1)))


# The step as it was before the gates shared one buffer: each gate its own
# product, bias and activation, and its own backward product and bias sum.
_REF_SIGMOID = (sigmoid, lambda dy, y: dy * y * (1.0 - y))
_REF_TANH = (np.tanh, lambda dy, y: dy * (1.0 - y**2))
_REF_GATES = (("i", *_REF_SIGMOID), ("f", *_REF_SIGMOID), ("o", *_REF_SIGMOID), ("g", *_REF_TANH))


def _reference_forward_batch(p, w, keep):
    N, T, d = w.shape
    h_dim = p.hidden_dim
    h = np.zeros((N, h_dim))
    c = np.zeros((N, h_dim))
    cache = None
    if keep:
        cache = {key: [] for key in ("z", *(n for n, *_ in _REF_GATES), "c", "tanh_c")} | {"h": [h]}
    gate = {}
    for t in range(T):
        z = np.concatenate([w.rows[w.idx[:, t]], h], axis=1)
        for n, act, _ in _REF_GATES:
            gate[n] = act(z @ getattr(p, f"W_{n}").T + getattr(p, f"b_{n}"))
        c = gate["f"] * c + gate["i"] * gate["g"]
        tanh_c = np.tanh(c)
        h = gate["o"] * tanh_c
        if keep:
            for key, val in (("z", z), *gate.items(), ("c", c), ("tanh_c", tanh_c), ("h", h)):
                cache[key].append(val)
    return sigmoid(h @ p.w_out + p.b_out), cache


def _reference_lstm_grad(p, seqs, labels, clip_norm=5.0):
    seqs = _as_windows(seqs, "batch")
    labels = np.asarray(labels, dtype=np.float64)
    N, T, d = seqs.shape
    probs, cache = _reference_forward_batch(p, seqs, keep=True)
    loss = float(_bce(probs, labels).mean())
    grads = {f"{k}_{n}": np.zeros_like(getattr(p, f"{k}_{n}")) for k in "Wb" for n, *_ in _REF_GATES}
    dlogits = (probs - labels) / N
    grads["w_out"] = dlogits @ cache["h"][-1]
    grads["b_out"] = float(dlogits.sum())
    h_dim = p.hidden_dim
    dh = dlogits[:, None] * p.w_out[None, :]
    dc = np.zeros((N, h_dim))
    da = {}
    for t in range(T - 1, -1, -1):
        z = cache["z"][t]
        gate = {n: cache[n][t] for n, *_ in _REF_GATES}
        tanh_c = cache["tanh_c"][t]
        c_prev = cache["c"][t - 1] if t > 0 else np.zeros((N, h_dim))
        dc = dc + dh * gate["o"] * (1.0 - tanh_c**2)
        feeds = {"i": (dc, gate["g"]), "f": (dc, c_prev), "o": (dh, tanh_c), "g": (dc, gate["i"])}
        for n, _, dact in _REF_GATES:
            dout, partner = feeds[n]
            da[n] = dact(dout * partner, gate[n])
            grads[f"W_{n}"] += da[n].T @ z
            grads[f"b_{n}"] += da[n].sum(axis=0)
        dz = functools.reduce(operator.iadd, (da[n] @ getattr(p, f"W_{n}") for n, *_ in _REF_GATES))
        dh = dz[:, d:]
        dc = dc * gate["f"]
    if clip_norm is not None:
        norm = np.sqrt(sum(float(g**2) if k == "b_out" else float((g * g).sum()) for k, g in grads.items()))
        if norm > clip_norm:
            grads = {k: g * (clip_norm / norm) for k, g in grads.items()}
    return grads, loss


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def kernel_differences(N, T, d, h, seed, as_windows, clip_norm) -> list:
    """What _forward_batch (keep False and True, with every cached step) and
    lstm_grad give that differs in any bit from the reference step."""
    rng = np.random.default_rng(seed)
    p = init_params(d, hidden_dim=h, seed=seed)
    scale = rng.choice([0.1, 1.0, 30.0])  # 30 saturates the gates
    if as_windows:  # overlapping windows over shared rows, in shuffled order
        rows = scale * rng.normal(size=(N + T, d))
        seqs = Windows(rows, rng.permutation(N)[:, None] + np.arange(T))
    else:
        seqs = scale * rng.normal(size=(N, T, d))
    labels = (rng.random(N) < 0.4).astype(np.float64)
    w = _as_windows(seqs, "windows")
    bad = []
    for keep in (False, True):
        got, cache = _forward_batch(p, w, keep)
        want, ref_cache = _reference_forward_batch(p, w, keep)
        if not same_bits(got, want):
            bad.append(("probs", keep))
        for key in ref_cache or {}:
            if not all(same_bits(g, r) for g, r in zip(cache[key], ref_cache[key], strict=True)):
                bad.append(("cache", key))
    grads, loss = lstm_grad(p, seqs, labels, clip_norm=clip_norm)
    ref_grads, ref_loss = _reference_lstm_grad(p, seqs, labels, clip_norm=clip_norm)
    if loss != ref_loss:
        bad.append("loss")
    bad += [k for k in _FIELDS if not same_bits(grads[k], ref_grads[k])]
    return bad


@settings(max_examples=150, deadline=None)
@given(
    N=st.integers(1, 70),
    T=st.integers(1, 6),
    d=st.integers(1, 20),
    h=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    as_windows=st.booleans(),
    clip_norm=st.sampled_from([None, 5.0, 1e-3]),
)
@example(N=1, T=1, d=1, h=1, seed=0, as_windows=False, clip_norm=None)
@example(N=1, T=1, d=92, h=16, seed=1, as_windows=True, clip_norm=5.0)
@example(N=64, T=10, d=92, h=16, seed=2, as_windows=True, clip_norm=5.0)
def test_the_stacked_step_is_bit_equal_to_the_reference_step(N, T, d, h, seed, as_windows, clip_norm):
    assert kernel_differences(N, T, d, h, seed, as_windows, clip_norm) == []


# (N, T, d, h): one window and one step, the benchmark's batch, and wide gates.
KERNEL_SHAPES = [(1, 1, 3, 2), (7, 3, 5, 1), (64, 10, 92, 16), (32, 4, 92, 64)]


def kernel_mismatches() -> list:
    return [
        (shape, as_windows, bad)
        for shape in KERNEL_SHAPES
        for as_windows in (False, True)
        if (bad := kernel_differences(*shape, sum(shape), as_windows, 5.0))
    ]


def test_the_stacked_step_is_bit_equal_to_the_reference_step_with_one_blas_thread():
    root = Path(__file__).resolve().parents[1]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(Path(seizurekit.__file__).parents[1]), str(root)]),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    code = "from tests.test_lstm import kernel_mismatches as m; print(m())"
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_a_scoring_block_holds_about_three_times_its_step_input():
    # The benchmark's shape. The (4, N, h) gate buffer, c, tanh(c) and h are
    # allocated once a block; the gathered rows and the sigmoid's temporaries
    # come and go with each step.
    d, h, T = 92, 16, 10
    n = block_windows(d, h)
    p = init_params(d, hidden_dim=h, seed=0)
    windows = Windows(np.ones((n + T, d)), np.arange(n)[:, None] + np.arange(T))
    tracemalloc.start()
    lstm_predict(p, windows)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    step_input = n * (d + h) * 8
    assert peak <= 3 * step_input, peak / step_input
