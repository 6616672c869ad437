"""Random forest of CART decision trees for binary labels.

Each tree trains on a bootstrap resample with a per-tree sub-seed and
considers floor(sqrt(d)) randomly chosen features at every node. Trees
grow on row indices into the one training matrix, copying neither the
resample nor a node's rows; a node gathers only its candidate columns of
its rows. Split thresholds are midpoints of consecutive distinct sorted values, scored by
weighted Gini impurity. All boundaries of a feature are scored at once as
arrays, with the same arithmetic and tie rules as a scan in order: the
first feature, then the first boundary, of equal impurity wins. Prediction
is a majority vote over trees; a tied vote goes to class 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..domains import Domain, check_params, domains_of, param
from ..errors import DataError


@dataclass(frozen=True)
class RFConfig:
    n_trees: int = param(100, Domain(int, 1))
    max_depth: int | None = param(None, Domain(int, 1, auto=True))
    min_samples_split: int = param(2, Domain(int, 2))
    max_features: int | None = param(None, Domain(int, 1, auto=True))  # None = floor(sqrt(d))
    seed: int = 0

    def __post_init__(self):
        check_params("rf", self, domains_of(self))


@dataclass(frozen=True)
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (class counts)."""

    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    counts: tuple[int, int] | None = None  # (class 0, class 1) at a leaf

    @property
    def is_leaf(self) -> bool:
        return self.counts is not None


@dataclass(frozen=True)
class RFModel:
    trees: tuple[TreeNode, ...]
    config: RFConfig
    n_features: int


def gini(counts) -> float:
    """Gini impurity 1 - sum((c/n)^2) of a class-count vector."""
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p * p).sum())


def _square(x: np.ndarray) -> np.ndarray:
    """x ** 2 by libm pow, as Python's float ** computes it. numpy's ** 2
    is x * x, which differs in the last bit and can flip a near-tie."""
    return np.float_power(x, 2.0)


def best_split(X, y, candidate_features):
    """Lowest weighted-Gini split over the candidate features, or None.

    For each feature the thresholds tried are midpoints between consecutive
    distinct sorted values. Returns (feature, threshold, gini_gain); None
    when no split strictly reduces impurity (pure nodes included).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = len(y)
    if n < 2:
        return None
    parent = gini(np.bincount(y, minlength=2))
    if parent == 0.0:
        return None

    best = None  # (weighted_gini, feature, threshold)
    for f in candidate_features:
        f = int(f)
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        # Prefix counts of class 1 score every boundary at once.
        ones = np.cumsum(y[order])
        boundaries = np.flatnonzero(xs[1:] > xs[:-1]) + 1
        if len(boundaries) == 0:
            continue
        n_l = boundaries
        n_r = n - n_l
        ones_l = ones[boundaries - 1]
        ones_r = ones[-1] - ones_l
        g_l = 1.0 - (_square(ones_l / n_l) + _square((n_l - ones_l) / n_l))
        g_r = 1.0 - (_square(ones_r / n_r) + _square((n_r - ones_r) / n_r))
        weighted = (n_l * g_l + n_r * g_r) / n
        # argmin keeps the first boundary of a tie and the strict < the
        # first feature, as a scan over boundaries in order would.
        i = int(np.argmin(weighted))
        if best is None or weighted[i] < best[0]:
            b = boundaries[i]
            best = (float(weighted[i]), f, (xs[b - 1] + xs[b]) / 2.0)
    if best is None:
        return None
    gain = parent - best[0]
    if gain <= 0.0:
        return None
    return best[1], best[2], gain


def _grow(X, y, rows, rng, config: RFConfig, max_features: int, depth: int) -> TreeNode:
    """The subtree of X[rows]: each node reads only its candidate columns of its rows."""
    y_node = y[rows]
    counts = np.bincount(y_node, minlength=2)
    leaf = TreeNode(counts=(int(counts[0]), int(counts[1])))
    if (
        len(rows) < config.min_samples_split
        or counts[0] == 0
        or counts[1] == 0
        or (config.max_depth is not None and depth >= config.max_depth)
    ):
        return leaf
    d = X.shape[1]
    candidates = rng.choice(d, size=min(max_features, d), replace=False)
    split = best_split(X[np.ix_(rows, candidates)], y_node, range(len(candidates)))
    if split is None:
        return leaf
    k, threshold, _ = split
    f = int(candidates[k])
    mask = X[rows, f] <= threshold
    left = _grow(X, y, rows[mask], rng, config, max_features, depth + 1)
    right = _grow(X, y, rows[~mask], rng, config, max_features, depth + 1)
    return TreeNode(feature=f, threshold=threshold, left=left, right=right)


def rf_fit(X, y, config: RFConfig = RFConfig()) -> RFModel:
    """Train n_trees CART trees on bootstrap resamples."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(X) == 0:
        raise DataError("empty training set")
    if len(y) != len(X):
        raise DataError(f"{len(y)} labels for {len(X)} rows")
    if not np.isin(y, (0, 1)).all():
        raise DataError("labels must be 0 or 1")

    d = X.shape[1]
    max_features = (
        config.max_features if config.max_features is not None else max(1, math.floor(math.sqrt(d)))
    )
    seeds = np.random.SeedSequence(config.seed).spawn(config.n_trees)
    trees = []
    n = len(X)
    for t in range(config.n_trees):
        rng = np.random.default_rng(seeds[t])
        rows = rng.integers(0, n, size=n)
        trees.append(_grow(X, y, rows, rng, config, max_features, depth=0))
    return RFModel(trees=tuple(trees), config=config, n_features=d)


def rf_scores(model: RFModel, X) -> np.ndarray:
    """Fraction of trees voting class 1, usable as a ranking score."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DataError(
            f"feature count mismatch: model expects {model.n_features}"
        )
    votes = np.zeros(len(X), dtype=np.int64)
    for tree in model.trees:
        # Route each node's row set down with one comparison per node; a
        # leaf votes class 1 for its rows on a strict majority (ties: 0).
        stack = [(tree, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf:
                c0, c1 = node.counts
                if c1 > c0:
                    votes[idx] += 1
            elif len(idx):
                left = X[idx, node.feature] <= node.threshold
                stack += [(node.left, idx[left]), (node.right, idx[~left])]
    return votes / len(model.trees)
