"""k-nearest-neighbors classification by exact Euclidean distance.

``nearest`` is the one neighbour search, shared with SMOTE. A BLAS matmul
screens every training row by the expansion |a|^2 - 2a.b + |b|^2, and only
the rows that its rounding bound cannot rule out are ranked by the exact
sqrt(sum((a - b)**2)). The neighbours, their order and their ties are
therefore those of the exact distance alone: exact distance ties rank the
lower training-row index first. Vote ties are broken by the class of the
single nearest neighbor. Optional class weights scale each neighbor's vote,
which trades accuracy for recall on imbalanced data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..domains import Domain, check_params
from ..errors import DataError
from .registry import CLASS_WEIGHTS, ModelSpec, resolve_class_weights

# Bytes of each block of ``nearest``. Its screen holds three float arrays and
# three byte masks of its (A rows, B rows) pairs, 27 bytes a pair; its exact
# re-rank holds two (pairs, columns) float arrays at a time. A block has 8 A
# rows at least: against 27,000 B rows, one-row blocks took twice as long as
# 8-row ones, their fixed costs outweighing the screen.
_BLOCK_BYTES = 1 << 20
_MIN_BLOCK_ROWS = 8

DOMAINS = {"k": Domain(int, 1)}


@dataclass(frozen=True)
class KnnModel:
    """KNN is lazy, so its artifact is the training data plus k."""

    train_X: np.ndarray
    train_y: np.ndarray
    k: int
    class_weights: dict | None = None


def nearest(A, B, k: int, exclude_self: bool = False) -> np.ndarray:
    """(len(A), k) indices of each A row's k nearest B rows, nearest first.

    The ranking is by the exact sqrt(sum((a - b)**2)) of each pair, with
    ties to the lower B index. The |a|^2 - 2ab + |b|^2 expansion, one
    matmul per block of A rows, only screens: a B row is kept when its
    screened value less its rounding bound is at most the k-th smallest of
    the screened values plus their bounds, and a row whose screen is not
    finite (squares that overflow) is always kept. Every row the screen
    drops is exactly farther than at least k kept rows, so ranking the kept
    rows by the exact formula, with a stable sort over ascending indices,
    gives the same neighbours, order and ties as ranking all of them, at any
    BLAS thread count. With exclude_self, A is B and row i's own index is
    dropped before the k are taken, so a duplicate of row i can still be its
    nearest neighbour. A block's whole screen, bounds and masks included,
    holds about _BLOCK_BYTES (for _MIN_BLOCK_ROWS A rows at least), and so
    does its exact re-rank, so memory does not grow with len(A).
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise DataError(f"feature count mismatch: rows of shape {A.shape} against {B.shape}")
    check_params("knn", {"k": k}, DOMAINS)
    if k > len(B) - exclude_self:
        raise DataError(f"k={k} exceeds the {len(B) - exclude_self} rows to search")

    # Both the screen and the exact formula are within (d + 2) eps N of the
    # true squared distance, N = |a|^2 + |b|^2, in any summation order and
    # so at any BLAS thread count (Higham 2002, section 3.1); rounding the
    # square root may merge values a further 4 eps N apart. 8 (d + 2) eps N
    # covers the sum with room to spare, and the smallest normal float in N
    # covers products that underflow.
    slack = 8 * (B.shape[1] + 2) * np.finfo(np.float64).eps
    b2 = np.einsum("ij,ij->i", B, B)
    # A row-major B.T costs one copy of B and makes the matmuls of a few
    # A rows against many B rows about twice as fast.
    B_t = np.ascontiguousarray(B.T)
    out = np.empty((len(A), k), dtype=np.int64)
    step = max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (27 * len(B)))
    for start in range(0, len(A), step):
        block = A[start:start + step]
        rows, cols = _screen(block, start, B_t, b2, k, exclude_self, slack)
        order = np.lexsort((cols, _distances(block, B, rows, cols), rows))
        first = np.searchsorted(rows, np.arange(len(block)))
        out[start:start + len(block)] = cols[order[first[:, None] + np.arange(k)]]
    return out


def _screen(block, start: int, B_t, b2, k: int, exclude_self: bool, slack: float) -> tuple:
    """The (block row, B row) pairs, in row-major order, that nearest's
    screen keeps for the A rows ``block``, the first of them A row start."""
    a2 = np.einsum("ij,ij->i", block, block)[:, None]
    screen = block @ B_t
    screen *= -2
    screen += a2
    screen += b2
    bound = a2 + b2
    bound += np.finfo(np.float64).tiny
    bound *= slack
    hi = screen + bound
    lo = np.subtract(screen, bound, out=bound)
    wild = ~np.isfinite(screen)  # squares that overflowed, or NaN inputs
    del screen
    lo[wild] = -np.inf
    hi[wild] = np.inf
    own = (np.arange(len(block)), np.arange(start, start + len(block)))
    if exclude_self:
        hi[own] = np.inf
    hi.partition(k - 1, axis=1)
    keep = lo <= hi[:, k - 1:k]
    if exclude_self:
        keep[own] = False
    return np.nonzero(keep)


def _distances(block, B, rows, cols) -> np.ndarray:
    """The exact sqrt(sum((a - b)**2)) of each (block[rows], B[cols]) pair."""
    pairs = max(1, _BLOCK_BYTES // (16 * max(1, B.shape[1])))
    dist = np.empty(len(rows))
    for p in range(0, len(rows), pairs):
        diff = block[rows[p:p + pairs]]
        diff -= B[cols[p:p + pairs]]
        diff *= diff
        dist[p:p + pairs] = np.sqrt(diff.sum(axis=1))
    return dist


def _vote(classes: np.ndarray, weights: dict | None) -> int:
    """Weighted majority of classes, nearest first; a tie goes to classes[0]."""
    tally: dict[int, float] = {}
    for c in classes:
        w = 1.0 if weights is None else float(weights.get(int(c), 1.0))
        tally[int(c)] = tally.get(int(c), 0.0) + w
    best = max(tally.values())
    winners = [c for c, v in tally.items() if v == best]
    if len(winners) == 1:
        return winners[0]
    return int(classes[0])


def knn_vote(
    train_X,
    train_y,
    X,
    k: int,
    class_weights: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(classes, positive-class vote shares) of each query row, from one
    nearest() search.

    The class is _vote's weighted majority; the vote share is the weighted
    fraction of the k neighbours in class 1, usable as a ranking score.
    """
    train_y = np.asarray(train_y)
    neighbours = train_y[nearest(X, train_X, k)]
    classes = np.empty(len(neighbours), dtype=np.int64)
    scores = np.empty(len(neighbours), dtype=np.float64)
    for r, chosen in enumerate(neighbours):
        classes[r] = _vote(chosen, class_weights)
        if class_weights is None:
            w_pos = float((chosen == 1).sum())
            w_all = float(k)
        else:
            w = np.array([float(class_weights.get(int(c), 1.0)) for c in chosen])
            w_pos = float(w[chosen == 1].sum())
            w_all = float(w.sum())
        scores[r] = w_pos / w_all if w_all else 0.0
    return classes, scores


# ---------------------------------------------------------------- registry entry

_LABEL = Domain(int, 0, 1)  # a train_y entry


def _fit(X, y, p, seed, val):
    model = KnnModel(
        train_X=np.asarray(X, dtype=np.float64),
        train_y=np.asarray(y, dtype=np.int64),
        k=int(p["k"]),
        class_weights=resolve_class_weights(p["class_weights"], y),
    )
    return model, {}


def _from_doc(doc):
    if not all(y in _LABEL for y in doc["params"]["train_y"]):
        raise ValueError("train_y holds a label other than 0 or 1")
    model = KnnModel(
        train_X=np.array(doc["params"]["train_X"], dtype=np.float64),
        train_y=np.array(doc["params"]["train_y"], dtype=np.int64),
        k=doc["config"]["k"],
        # JSON turned the int class keys into strings.
        class_weights=resolve_class_weights(doc["config"].get("class_weights"), None),
    )
    if model.train_X.ndim != 2 or model.train_y.shape != model.train_X.shape[:1]:
        raise ValueError(f"train_X of shape {model.train_X.shape}, train_y {model.train_y.shape}")
    if model.k > len(model.train_y):
        raise ValueError(f"k={model.k} exceeds the {len(model.train_y)} training rows")
    return model


SPEC = ModelSpec(
    name="knn",
    cls=KnnModel,
    defaults={"k": 2, "class_weights": None},
    domains={**DOMAINS, "class_weights": CLASS_WEIGHTS},
    fit=_fit,
    score=lambda m, X: knn_vote(m.train_X, m.train_y, X, m.k, m.class_weights),
    to_doc=lambda m: {
        "params": {"train_X": m.train_X.tolist(), "train_y": m.train_y.tolist()},
        "config": {"k": m.k, "class_weights": m.class_weights},
    },
    from_doc=_from_doc,
    config_keys=("k", "class_weights"),
)
