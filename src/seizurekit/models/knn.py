"""k-nearest-neighbors classification by brute-force Euclidean distance.

Vote ties are broken by the class of the single nearest neighbor; exact
distance ties rank the lower training-row index first. Optional class
weights scale each neighbor's vote, which trades accuracy for recall on
imbalanced data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError


@dataclass(frozen=True)
class KnnModel:
    """KNN is lazy, so its artifact is the training data plus k."""

    train_X: np.ndarray
    train_y: np.ndarray
    k: int
    class_weights: dict | None = None


def _vote(classes: np.ndarray, weights: dict | None, nearest_class: int) -> int:
    tally: dict[int, float] = {}
    for c in classes:
        w = 1.0 if weights is None else float(weights.get(int(c), 1.0))
        tally[int(c)] = tally.get(int(c), 0.0) + w
    best = max(tally.values())
    winners = [c for c, v in tally.items() if v == best]
    if len(winners) == 1:
        return winners[0]
    return int(nearest_class)


def knn_classify(
    train_X,
    train_y,
    query,
    k: int,
    class_weights: dict | None = None,
) -> int:
    """Majority class among the k nearest training rows to one query row."""
    train_X = np.asarray(train_X, dtype=np.float64)
    train_y = np.asarray(train_y)
    query = np.asarray(query, dtype=np.float64)
    if train_X.size == 0 or len(train_X) == 0:
        raise DataError("empty training set")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > len(train_X):
        raise DataError(f"k={k} exceeds training size {len(train_X)}")

    dist = np.sqrt(((train_X - query) ** 2).sum(axis=1))
    order = np.argsort(dist, kind="stable")
    chosen = order[:k]
    return _vote(train_y[chosen], class_weights, train_y[order[0]])


def knn_vote(
    train_X,
    train_y,
    X,
    k: int,
    class_weights: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(classes, positive-class vote shares) of each query row, from one
    neighbour search per row.

    The class follows knn_classify's rules; the vote share is the weighted
    fraction of the k neighbours in class 1, usable as a ranking score.
    """
    train_X = np.asarray(train_X, dtype=np.float64)
    train_y = np.asarray(train_y)
    X = np.asarray(X, dtype=np.float64)
    if len(train_X) == 0:
        raise DataError("empty training set")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > len(train_X):
        raise DataError(f"k={k} exceeds training size {len(train_X)}")

    classes = np.empty(len(X), dtype=np.int64)
    scores = np.empty(len(X), dtype=np.float64)
    for r in range(len(X)):
        dist = np.sqrt(((train_X - X[r]) ** 2).sum(axis=1))
        order = np.argsort(dist, kind="stable")
        chosen = train_y[order[:k]]
        classes[r] = _vote(chosen, class_weights, train_y[order[0]])
        if class_weights is None:
            w_pos = float((chosen == 1).sum())
            w_all = float(k)
        else:
            w = np.array([float(class_weights.get(int(c), 1.0)) for c in chosen])
            w_pos = float(w[chosen == 1].sum())
            w_all = float(w.sum())
        scores[r] = w_pos / w_all if w_all else 0.0
    return classes, scores


def knn_predict(train_X, train_y, X, k: int, class_weights: dict | None = None) -> np.ndarray:
    """knn_classify applied row-wise."""
    return knn_vote(train_X, train_y, X, k, class_weights)[0]


def knn_scores(train_X, train_y, X, k: int, class_weights: dict | None = None) -> np.ndarray:
    """Positive-class vote share per query row, usable as a ranking score."""
    return knn_vote(train_X, train_y, X, k, class_weights)[1]
