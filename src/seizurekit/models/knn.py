"""k-nearest-neighbors classification by brute-force Euclidean distance.

Vote ties are broken by the class of the single nearest neighbor; exact
distance ties rank the lower training-row index first. Optional class
weights scale each neighbor's vote, which trades accuracy for recall on
imbalanced data. ``nearest`` is the one neighbour search, shared with SMOTE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..domains import Domain, check_params
from ..errors import DataError

# Bytes of (A row, B row, column) differences held at once by ``nearest``.
_BLOCK_BYTES = 1 << 20

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

    Distances are the exact sqrt(sum((a - b)**2)) of each pair, never the
    |a|^2 - 2ab + |b|^2 expansion, which moves exact ties; ties rank the
    lower B index first. With exclude_self, A is B and row i's own index
    is dropped before the k are taken, so a duplicate of row i can still
    be its nearest neighbour. A rows are processed in blocks whose
    differences fit in _BLOCK_BYTES, so memory does not grow with len(A).
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise DataError(f"feature count mismatch: rows of shape {A.shape} against {B.shape}")
    check_params("knn", {"k": k}, DOMAINS)
    if k > len(B) - exclude_self:
        raise DataError(f"k={k} exceeds the {len(B) - exclude_self} rows to search")

    out = np.empty((len(A), k), dtype=np.int64)
    step = max(1, _BLOCK_BYTES // max(1, B.nbytes))
    for start in range(0, len(A), step):
        diff = A[start:start + step, None, :] - B[None, :, :]
        order = np.argsort(np.sqrt((diff * diff).sum(axis=2)), axis=1, kind="stable")
        if exclude_self:
            own = np.arange(start, start + len(order))[:, None]
            order = order[order != own].reshape(len(order), -1)
        out[start:start + len(order)] = order[:, :k]
    return out


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
