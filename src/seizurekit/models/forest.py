"""Random forest of CART decision trees for binary labels.

Each tree trains on a bootstrap resample with a per-tree sub-seed and
considers floor(sqrt(d)) randomly chosen features at every node. Trees
grow on row indices into the one training matrix, copying neither the
resample nor a node's rows; a node gathers its candidate columns of its
rows a block of fixed byte size at a time. Split thresholds are midpoints
of consecutive distinct sorted values, scored by weighted Gini impurity
(Breiman et al., 1984). The split found is the one a scan in order finds:
the first feature, then the first boundary, of equal impurity wins. The
search needs neither a stable sort nor libm's pow at every boundary: a
boundary's split does not depend on the order of equal values, and an
exact integer-count proxy ranks the boundaries, so pow runs only on those
whose proxy lies within a rounding bound of the best (see best_split).
Prediction is a majority vote over trees; a tied vote goes to class 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..domains import Domain, check_params, defaults_of, domains_of, param
from ..errors import DataError
from .registry import ModelSpec, typed


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


# A node's candidate columns are scored this many (row, column) cells at a
# time, 64 KB per float64 array, so the search's memory does not grow with
# max_features.
_BLOCK_CELLS = 1 << 13
# With u = 2**-53, S computed from the integer counts is within 4u*n of its
# exact value (S <= n), and the scan's weighted Gini within 8u of its exact
# value. A boundary the scan ranks lowest computes no higher than the one of
# largest S, so its exact S is at most 2 * 8u*n below that one's, and its
# computed S at most 2 * (4 + 8)u*n = 24u*n below the largest. The search
# keeps every boundary within n * _NEAR = 512u*n.
_NEAR = 2.0**-44


def best_split(X, y, candidate_features, rows=None):
    """Lowest weighted-Gini split over the candidate features, or None.

    For each feature the thresholds tried are midpoints between consecutive
    distinct sorted values. Returns (feature, threshold, gini_gain); None
    when no split strictly reduces impurity (pure nodes included). With
    rows, the split is that of X[rows], y holding those rows' labels.

    The result is bit for bit that of a scan over each feature's stably
    sorted values that computes the weighted Gini with ``_square`` at every
    boundary and keeps the first minimum in (feature, boundary) order:

    - Any sort order gives the same splits. A boundary between distinct
      values reads only the sorted values and the count of class-1 rows at
      or below it, and neither depends on the order of equal values.
    - Boundaries are ranked by S = (a**2 + b**2) / n_l + (c**2 + d**2) / n_r,
      which equals n * (1 - weighted Gini) exactly (a, b: the class-1 and
      class-0 rows left of the boundary; c, d: right of it). Only the
      boundaries whose S lies within the rounding bound ``_NEAR`` of the
      largest S of their block of columns are scored with the scan's
      arithmetic, and these hold every boundary that scores lowest in it.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = len(y)
    if n < 2:
        return None
    counts = np.bincount(y, minlength=2)
    parent = gini(counts)
    if parent == 0.0:
        return None

    features = np.array(candidate_features, dtype=np.intp)
    if rows is None:
        rows = np.arange(n)
    total = int(counts[1])
    weights = y.astype(np.float64)
    # Rows left and right of the boundary after each sorted position.
    n_l = np.arange(1, n, dtype=np.float64)
    n_r = n - n_l
    width = max(1, _BLOCK_CELLS // n)
    best = None  # (weighted_gini, feature, threshold)
    for start in range(0, len(features), width):
        block = features[start : start + width, None]
        cols = X.T[block, rows]
        order = cols.argsort(axis=1)
        xs = np.sort(cols, axis=1)
        # The class counts a, b, c, d as exact float64 integers, then S in place.
        a = np.add.accumulate(weights[order], axis=1)[:, :-1]
        b = n_l - a
        c = total - a
        d = n_r - c
        score = a * a
        score += np.square(b, out=b)
        score /= n_l
        c *= c
        c += np.square(d, out=d)
        c /= n_r
        score += c
        score *= xs[:, 1:] > xs[:, :-1]  # S > 0 at a boundary, 0 between equal values
        top = np.maximum.reduce(score, axis=None)
        if top == 0.0:
            continue
        # Near-best boundaries in (feature, boundary) order, scored as the
        # scan scores them; argmin keeps the first of a tie and the strict <
        # the earlier block.
        k, i = np.nonzero(score >= top - n * _NEAR)
        ones_l = a[k, i]
        ones_r = total - ones_l
        left = i + 1
        right = n - left
        g_l = 1.0 - (_square(ones_l / left) + _square((left - ones_l) / left))
        g_r = 1.0 - (_square(ones_r / right) + _square((right - ones_r) / right))
        weighted = (left * g_l + right * g_r) / n
        j = weighted.argmin()
        if best is None or weighted[j] < best[0]:
            kj, ij = k[j], i[j]
            best = (float(weighted[j]), int(block[kj, 0]), (xs[kj, ij] + xs[kj, ij + 1]) / 2.0)
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
    split = best_split(X, y_node, candidates, rows)
    if split is None:
        return leaf
    f, threshold, _ = split
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
    # min and max propagate NaN and reach any inf, with no mask of X's size.
    if X.size and not (np.isfinite(X.min()) and np.isfinite(X.max())):
        raise DataError("training features contain non-finite values")

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


# ---------------------------------------------------------------- registry entry


def _fit(X, y, p, seed, val):
    cfg = RFConfig(**typed(p, domains_of(RFConfig)), seed=seed)
    return rf_fit(X, y, cfg), {}


def _score(m, X):
    # Class 1 on a majority of trees; a share of exactly 0.5 goes to class 0.
    # share > 0.5 is exactly votes > n_trees / 2 for any n_trees < 2**52.
    scores = rf_scores(m, X)
    return (scores > 0.5).astype(np.int64), scores


def _tree_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"counts": list(node.counts)}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _tree_to_dict(node.left),
        "right": _tree_to_dict(node.right),
    }


def _tree_from_dict(doc: dict, n_features: int) -> TreeNode:
    if "counts" in doc:
        return TreeNode(counts=(int(doc["counts"][0]), int(doc["counts"][1])))
    if doc["feature"] not in range(n_features):
        raise ValueError(f"split feature {doc['feature']!r} of a model on {n_features} features")
    return TreeNode(
        feature=int(doc["feature"]),
        threshold=float(doc["threshold"]),
        left=_tree_from_dict(doc["left"], n_features),
        right=_tree_from_dict(doc["right"], n_features),
    )


def _from_doc(doc):
    model = RFModel(
        trees=tuple(_tree_from_dict(t, doc["params"]["n_features"]) for t in doc["params"]["trees"]),
        config=RFConfig(**doc["config"]),
        n_features=int(doc["params"]["n_features"]),
    )
    if len(model.trees) != model.config.n_trees:
        raise ValueError(f"{len(model.trees)} trees for n_trees={model.config.n_trees}")
    return model


SPEC = ModelSpec(
    name="rf",
    cls=RFModel,
    defaults=defaults_of(RFConfig),
    domains=domains_of(RFConfig),
    fit=_fit,
    score=_score,
    to_doc=lambda m: {
        "params": {"trees": [_tree_to_dict(t) for t in m.trees], "n_features": m.n_features},
        "config": asdict(m.config),
    },
    from_doc=_from_doc,
    config_keys=tuple(f.name for f in fields(RFConfig)),
)
