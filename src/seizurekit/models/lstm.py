"""Single-layer LSTM binary classifier trained from scratch with BPTT.

The recurrence is the standard one: input, forget, and output gates with
sigmoid activations, a tanh candidate, c_t = f*c_{t-1} + i*g, h_t =
o*tanh(c_t), with h_0 = c_0 = 0. A sigmoid head on the final hidden state
gives the positive-class probability. Gradients of the mean binary
cross-entropy are computed by exact backpropagation through time and
clipped by global norm before each SGD step.

Windows arrive as ``epochs.Windows`` (feature rows plus a row-index matrix)
or as an (N, T, d) array, which is viewed as N*T rows indexed by
arange(N*T).reshape(N, T); either way step t reads ``rows[idx[:, t]]``.
Each step writes its four gate products into one (4, N, h) buffer, adds
the biases once and runs the three sigmoid gates through one call; backprop
forms the four gate derivatives in one such buffer. Only backprop keeps
each step's activations. A pass that only scores windows runs over
consecutive blocks of about _BLOCK_BYTES of step input and allocates one
block's step input, gate buffer, c, tanh(c) and h once, for all its steps.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace

import numpy as np

from ..domains import Domain, check_params, defaults_of, domains_of, param
from ..epochs import Windows
from ..errors import ConfigError, DataError
from .logistic import sigmoid
from .registry import THRESHOLD, Array, Derived, ModelSpec, Scalar, typed


@dataclass(frozen=True)
class LstmParams:
    W_i: np.ndarray  # (h, d + h)
    W_f: np.ndarray
    W_o: np.ndarray
    W_g: np.ndarray
    b_i: np.ndarray  # (h,)
    b_f: np.ndarray
    b_o: np.ndarray
    b_g: np.ndarray
    w_out: np.ndarray  # (h,)
    b_out: float
    sequence_length: int | None = None  # the window length T it was trained on, if known
    threshold: float = 0.5  # class 1 for a probability >= threshold

    @property
    def hidden_dim(self) -> int:
        return self.W_i.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W_i.shape[1] - self.W_i.shape[0]


INIT_DOMAINS = {"hidden_dim": Domain(int, 1)}  # init_params' hidden_dim

# The cell's gates in parameter order: i, f and o take a sigmoid, g a tanh.
_GATES = ("i", "f", "o", "g")
_FIELDS = (*(f"W_{n}" for n in _GATES), *(f"b_{n}" for n in _GATES), "w_out", "b_out")

# The most bytes of (N, d + h) step input that one block of a scoring pass
# holds; the last block, which also takes the remainder, holds up to twice
# that. With the gathered rows, gate buffer, c, tanh(c), h and the
# sigmoid's temporaries, a block holds about three times its step input at
# d = 92, h = 16, and more where h is large against d. A block's windows
# are a power of two, 8 at least, and at least _MIN_GATE_CELLS / h, and no
# product has fewer rows than a block. With one OpenBLAS thread such blocks
# give the probabilities of one whole-set pass bit for bit. Smaller
# products can take another kernel and differ in the last bits: a short
# last block did so for SVM margins, and gate products of fewer than 2,048
# cells did at d = 127, h = 2 (512 windows) and d = 92, h = 16 (64 windows).
_BLOCK_BYTES = 512 << 10
_MIN_GATE_CELLS = 2048


def init_params(input_dim: int, hidden_dim: int = 64, seed: int = 0) -> LstmParams:
    """Uniform(-s, s) init with s = 1/sqrt(h), drawn in _FIELDS order; the
    forget-gate bias starts at 1 (open, so early gradients flow) and draws nothing."""
    if input_dim < 1:
        raise ConfigError(f"input_dim must be >= 1, got {input_dim}")
    check_params("lstm", {"hidden_dim": hidden_dim}, INIT_DOMAINS)
    rng = np.random.default_rng(seed)
    s = 1.0 / np.sqrt(hidden_dim)
    w = {}
    for k in _FIELDS:
        shape = (hidden_dim, input_dim + hidden_dim) if k[0] == "W" else () if k == "b_out" else (hidden_dim,)
        w[k] = np.ones(shape) if k == "b_f" else rng.uniform(-s, s, size=shape)
    return LstmParams(**{**w, "b_out": float(w["b_out"])})


def _as_windows(seqs, what: str) -> Windows:
    """seqs as Windows with float64 rows; an (N, T, d) array is not copied."""
    if isinstance(seqs, Windows):
        return Windows(np.asarray(seqs.rows, dtype=np.float64), np.asarray(seqs.idx))
    seqs = np.asarray(seqs, dtype=np.float64)
    if seqs.ndim != 3:
        raise DataError(f"{what} must be a (N, T, d) array")
    N, T, d = seqs.shape
    return Windows(seqs.reshape(N * T, d), np.arange(N * T).reshape(N, T))


def _forward_batch(p: LstmParams, w: Windows, keep: bool):
    """Run the recurrence over windows; (probabilities, cache).

    With keep, the cache holds every step's activations for backprop: its
    "gates" are each step's (4, N, h) gate buffer, in _GATES order, and "i",
    "f", "o" and "g" are views of it. Without, it is None, and one step
    input, gate buffer, c, tanh(c) and h are allocated once and reused.
    """
    N, T, d = w.shape
    h_dim = p.hidden_dim
    if d != p.input_dim:
        raise DataError(f"input dim {d} does not match parameters ({p.input_dim})")
    weights = [getattr(p, f"W_{n}").T for n in _GATES]
    biases = np.stack([getattr(p, f"b_{n}") for n in _GATES])[:, None, :]  # (4, 1, h)
    h = np.zeros((N, h_dim))
    c = np.zeros((N, h_dim))
    cache = None
    if keep:
        cache = {key: [] for key in ("z", "gates", *_GATES, "c", "tanh_c")} | {"h": [h]}
    for t in range(T):
        if keep or t == 0:
            z = np.empty((N, d + h_dim))
            gates = np.empty((4, N, h_dim))
            c_next, tanh_c, h_next = np.empty((3, N, h_dim)) if keep else (c, np.empty_like(c), h)
        z[:, :d] = w.rows[w.idx[:, t]]
        z[:, d:] = h
        for W, out in zip(weights, gates):
            np.matmul(z, W, out=out)
        gates += biases
        sigmoid(gates[:3], out=gates[:3])
        np.tanh(gates[3], out=gates[3])
        i, f, o, g = gates
        # c = f*c + i*g and h = o*tanh(c), each product rounded as written.
        np.multiply(f, c, out=c_next)
        c_next += i * g
        c, h = c_next, np.multiply(o, np.tanh(c_next, out=tanh_c), out=h_next)
        if keep:
            for key, val in (("z", z), ("gates", gates), *zip(_GATES, gates), ("c", c), ("tanh_c", tanh_c), ("h", h)):
                cache[key].append(val)
    logits = h @ p.w_out + p.b_out
    probs = sigmoid(logits)
    return probs, cache


def lstm_forward(p: LstmParams, seq) -> tuple[float, dict]:
    """Probability for one (T, d) sequence, plus cached activations."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 2:
        raise DataError("sequence must be a (T, d) array")
    if seq.shape[0] < 1:
        raise DataError("sequence must have at least one step")
    probs, cache = _forward_batch(p, _as_windows(seq[None, :, :], "sequence"), keep=True)
    return float(probs[0]), cache


def _bce(probs, labels):
    """Each window's binary cross-entropy, its logs clamped at log(1e-300)."""
    return -(labels * np.log(np.maximum(probs, 1e-300))
             + (1 - labels) * np.log(np.maximum(1 - probs, 1e-300)))


def lstm_grad(
    p: LstmParams,
    seqs,
    labels,
    clip_norm: float | None = 5.0,
) -> tuple[dict, float]:
    """Exact BPTT gradients of the mean BCE over a batch of windows.

    clip_norm rescales the whole gradient when its global L2 norm exceeds
    the limit; pass None to disable (finite-difference checks need the raw
    gradient).
    """
    seqs = _as_windows(seqs, "batch")
    labels = np.asarray(labels, dtype=np.float64)
    if len(seqs) == 0:
        raise DataError("batch must be a nonempty (N, T, d) array")
    if labels.shape != (len(seqs),):
        raise DataError(f"labels of shape {labels.shape} for {len(seqs)} sequences")

    N, T, d = seqs.shape
    probs, cache = _forward_batch(p, seqs, keep=True)
    per_seq = _bce(probs, labels)
    if not np.isfinite(per_seq).all():
        bad = int(np.flatnonzero(~np.isfinite(per_seq))[0])
        raise DataError(f"non-finite loss at sequence index {bad}")
    loss = float(per_seq.mean())

    # The bias gradients are rows of one (4, h) sum, in _FIELDS order.
    d_biases = np.zeros((4, p.hidden_dim))
    grads = {f"W_{n}": np.zeros_like(getattr(p, f"W_{n}")) for n in _GATES}
    grads |= {f"b_{n}": db for n, db in zip(_GATES, d_biases)}
    # d(mean BCE)/d(logit) = (p - y) / N; the head feeds h_T.
    dlogits = (probs - labels) / N  # (N,)
    grads["w_out"] = dlogits @ cache["h"][-1]
    grads["b_out"] = float(dlogits.sum())

    dh = dlogits[:, None] * p.w_out[None, :]  # (N, h)
    dc = np.zeros((N, p.hidden_dim))
    d_gates = np.empty((4, N, p.hidden_dim))  # each gate's pre-activation gradient at step t
    for t in range(T - 1, -1, -1):
        z = cache["z"][t]
        gates = cache["gates"][t]
        i, f, o, g = gates
        tanh_c = cache["tanh_c"][t]
        c_prev = cache["c"][t - 1] if t > 0 else np.zeros((N, p.hidden_dim))

        dc = dc + dh * o * (1.0 - tanh_c**2)
        # A gate's output gradient is that of the product it feeds
        # (c = f*c_prev + i*g, h = o*tanh(c)) times its partner there,
        # then times its activation's slope: y*(1 - y), or 1 - y**2 for tanh.
        for da, dout, partner in zip(d_gates, (dc, dc, dh, dc), (g, c_prev, tanh_c, i)):
            np.multiply(dout, partner, out=da)
        d_gates[:3] *= gates[:3]
        d_gates[:3] *= 1.0 - gates[:3]
        d_gates[3] *= 1.0 - g**2
        d_biases += d_gates.sum(axis=1)
        for n, da in zip(_GATES, d_gates):
            grads[f"W_{n}"] += da.T @ z
        dz = functools.reduce(operator.iadd, (da @ getattr(p, f"W_{n}") for n, da in zip(_GATES, d_gates)))
        dh = dz[:, d:]
        dc = dc * f

    if clip_norm is not None:
        norm = np.sqrt(sum(
            float(g**2) if k == "b_out" else float((g * g).sum()) for k, g in grads.items()
        ))
        if norm > clip_norm:
            grads = {k: g * (clip_norm / norm) for k, g in grads.items()}
    return grads, loss


@dataclass(frozen=True)
class LstmTrainConfig:
    learning_rate: float = param(0.05, Domain(float, 0, lo_open=True))
    epochs: int = param(30, Domain(int, 1))
    batch_size: int = param(32, Domain(int, 1))
    grad_clip_norm: float = param(5.0, Domain(float, 0, lo_open=True))
    seed: int = 0
    # Epochs without val improvement before stopping; None runs every epoch.
    patience: int | None = param(None, Domain(int, 1, auto=True))

    def __post_init__(self):
        check_params("lstm", self, domains_of(self))


def _scores(p: LstmParams, w: Windows) -> np.ndarray:
    """The probabilities of _forward_batch(p, w, keep=False), computed block by block."""
    fits = (_BLOCK_BYTES // (8 * (w.shape[2] + p.hidden_dim))).bit_length() - 1
    step = 1 << max(3, fits, (-(-_MIN_GATE_CELLS // p.hidden_dim) - 1).bit_length())
    # Whole blocks from the start; the last one also takes the remainder.
    edges = [*range(0, max(len(w) - step, 0) + 1, step), len(w)]
    probs = np.empty(len(w))
    for a, b in zip(edges, edges[1:]):
        probs[a:b] = _forward_batch(p, w[a:b], keep=False)[0]
    return probs


def _mean_loss(p: LstmParams, seqs, labels) -> float:
    probs = _scores(p, _as_windows(seqs, "sequences"))
    return float(_bce(probs, np.asarray(labels, dtype=np.float64)).mean())


def _labelled_windows(pair: tuple, name: str) -> tuple[Windows, np.ndarray]:
    """A (windows, labels) pair checked to be nonempty with one label per window."""
    seqs, labels = pair
    seqs = _as_windows(seqs, f"{name} set")
    labels = np.asarray(labels, dtype=np.float64)
    if len(seqs) == 0:
        raise DataError(f"{name} set must be a nonempty (N, T, d) array")
    if labels.shape != (len(seqs),):
        raise DataError(f"{name} labels of shape {labels.shape} for {len(seqs)} windows")
    return seqs, labels


def lstm_train(
    train: tuple,
    val: tuple | None,
    cfg: LstmTrainConfig,
    params: LstmParams | None = None,
) -> tuple[LstmParams, dict]:
    """Mini-batch SGD over seeded shuffles; keeps the best-validation params.

    train and val are (windows, labels) pairs, the windows a Windows or an
    (N, T, d) array; val's windows must have the training windows' (T, d).
    val may be None, in which case the training loss drives best-epoch
    selection and early stopping. Returns the best parameters and a history
    dict: per-epoch train_loss and val_loss lists, and best_epoch, the
    epoch whose parameters were kept (0 for the initial ones).
    """
    seqs, labels = _labelled_windows(train, "training")
    if val is not None:
        val = _labelled_windows(val, "validation")
        if val[0].shape[1:] != seqs.shape[1:]:
            raise DataError(
                f"validation windows of (T, d) = {val[0].shape[1:]} for training "
                f"windows of {seqs.shape[1:]}"
            )
    rng = np.random.default_rng(cfg.seed)
    if params is None:
        params = init_params(seqs.shape[2], seed=cfg.seed)

    monitor = val if val is not None else (seqs, labels)
    history: dict = {"train_loss": [], "val_loss": [], "best_epoch": 0}
    best = params
    best_loss = _mean_loss(params, *monitor)
    stale = 0

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(seqs))
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            grads, _ = lstm_grad(
                params, seqs[batch], labels[batch], clip_norm=cfg.grad_clip_norm
            )
            updates = {
                k: getattr(params, k) - cfg.learning_rate * grads[k] for k in _FIELDS
            }
            updates["b_out"] = float(updates["b_out"])
            params = replace(params, **updates)
        history["train_loss"].append(_mean_loss(params, seqs, labels))
        vloss = history["train_loss"][-1] if val is None else _mean_loss(params, *monitor)
        history["val_loss"].append(vloss)
        if vloss < best_loss:
            best_loss = vloss
            best = params
            history["best_epoch"] = epoch
            stale = 0
        else:
            stale += 1
            if cfg.patience is not None and stale >= cfg.patience:
                break
    return best, history


def lstm_predict(p: LstmParams, seqs) -> tuple[np.ndarray, np.ndarray]:
    """(classes, probabilities); class 1 iff probability >= p.threshold."""
    seqs = _as_windows(seqs, "sequences")
    if len(seqs) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    probs = _scores(p, seqs)
    return (probs >= p.threshold).astype(np.int64), probs


# ---------------------------------------------------------------- registry entry


def _fit(X, y, p, seed, val):
    params = init_params(X.shape[2], hidden_dim=int(p["hidden_dim"]), seed=seed)
    train_cfg = LstmTrainConfig(**typed(p, domains_of(LstmTrainConfig)), seed=seed)
    best, history = lstm_train((X, y), val, train_cfg, params=params)
    report = {"epochs_run": len(history["train_loss"]), **history}
    return replace(best, sequence_length=X.shape[1], threshold=float(p["threshold"])), report


SPEC = ModelSpec(
    name="lstm",
    cls=LstmParams,
    defaults={"hidden_dim": 64, **defaults_of(LstmTrainConfig), "threshold": 0.5},
    domains={**domains_of(LstmTrainConfig), **INIT_DOMAINS, "threshold": THRESHOLD},
    fit=_fit,
    score=lambda m, X: lstm_predict(m, X),
    layout={
        "dims": {"input_dim": Derived(Domain(int, 1)), "hidden_dim": Derived(Domain(int, 1))},
        "weights": {
            **{k: Array(float, ("h", "d+h") if k[0] == "W" else ("h",)) for k in _FIELDS[:-1]},
            "b_out": Scalar(Domain(float)),
        },
        "config": {},
    },
    sequential=True,
)
