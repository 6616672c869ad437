"""Random forest: Gini splitting, bootstrap determinism, voting rules."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seizurekit import ConfigError, DataError
from seizurekit.models import RFConfig, RFModel, best_split, gini, rf_fit, rf_scores
from seizurekit.models.forest import TreeNode

from tests.test_registry import classify


def test_gini_known_values():
    assert gini([2, 2]) == 0.5
    assert gini([4, 0]) == 0.0
    assert gini([0, 0]) == 0.0
    assert gini([3, 1]) == pytest.approx(1 - (0.75**2 + 0.25**2))


def test_best_split_perfect_boundary():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    f, threshold, gain = best_split(X, y, [0])
    assert f == 0
    assert threshold == 2.5  # midpoint of consecutive distinct values
    assert gain == pytest.approx(0.5)  # parent gini 0.5, children pure


def test_best_split_picks_lower_weighted_gini_feature():
    X = np.array(
        [[1.0, 5.0], [2.0, 1.0], [3.0, 6.0], [4.0, 2.0]]
    )
    y = np.array([0, 0, 1, 1])
    # feature 0 separates perfectly; feature 1 interleaves the classes
    f, threshold, gain = best_split(X, y, [0, 1])
    assert f == 0 and threshold == 2.5


def test_best_split_none_for_pure_or_constant():
    assert best_split(np.array([[1.0], [2.0]]), np.array([1, 1]), [0]) is None
    # constant feature: no boundary between distinct values exists
    assert best_split(np.array([[3.0], [3.0]]), np.array([0, 1]), [0]) is None
    assert best_split(np.array([[3.0]]), np.array([0]), [0]) is None


def test_best_split_requires_positive_gain():
    # both children keep a 50/50 mix: weighted gini equals the parent
    X = np.array([[1.0], [1.0], [2.0], [2.0]])
    y = np.array([0, 1, 0, 1])
    assert best_split(X, y, [0]) is None


def test_best_split_against_exhaustive_search():
    rng = np.random.default_rng(5)
    for trial in range(40):
        n = int(rng.integers(4, 30))
        d = int(rng.integers(1, 4))
        X = np.round(rng.normal(size=(n, d)), 1)  # duplicates likely
        y = rng.integers(0, 2, size=n)
        result = best_split(X, y, list(range(d)))
        # brute force every midpoint of every feature
        parent = gini(np.bincount(y, minlength=2))
        best = None
        for f in range(d):
            vals = np.unique(X[:, f])
            for a, b in zip(vals[:-1], vals[1:]):
                t = (a + b) / 2
                left = y[X[:, f] <= t]
                right = y[X[:, f] > t]
                w = (
                    len(left) * gini(np.bincount(left, minlength=2))
                    + len(right) * gini(np.bincount(right, minlength=2))
                ) / n
                if best is None or w < best[0] - 1e-15:
                    best = (w, f, t)
        if result is None:
            assert best is None or parent - best[0] <= 1e-12
        else:
            assert best is not None
            assert result[2] == pytest.approx(parent - best[0])


def test_single_deep_tree_memorizes_unique_rows():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 3))  # continuous: rows are unique
    y = rng.integers(0, 2, size=40)
    model = rf_fit(X, y, RFConfig(n_trees=1, max_features=3, seed=1))
    # the tree memorizes its bootstrap sample; rows it saw must come back right
    seeds = np.random.SeedSequence(1).spawn(1)
    idx = np.random.default_rng(seeds[0]).integers(0, 40, size=40)
    pred = classify(model, X[idx])
    assert np.array_equal(pred, y[idx])


def test_forest_learns_separable_data():
    rng = np.random.default_rng(9)
    X = np.concatenate([rng.normal(-2, 0.5, size=(40, 2)), rng.normal(2, 0.5, size=(40, 2))])
    y = np.array([0] * 40 + [1] * 40)
    model = rf_fit(X, y, RFConfig(n_trees=15, max_depth=4, seed=2))
    assert (classify(model, X) == y).mean() >= 0.95


def test_same_seed_reproduces_forest():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(50, 4))
    y = rng.integers(0, 2, size=50)
    q = rng.normal(size=(20, 4))
    a = rf_fit(X, y, RFConfig(n_trees=7, seed=3))
    b = rf_fit(X, y, RFConfig(n_trees=7, seed=3))
    c = rf_fit(X, y, RFConfig(n_trees=7, seed=4))
    assert np.array_equal(classify(a, q), classify(b, q))
    assert np.array_equal(rf_scores(a, q), rf_scores(b, q))
    assert not np.array_equal(rf_scores(a, q), rf_scores(c, q))


def test_max_depth_limits_tree():
    X = np.random.default_rng(11).normal(size=(60, 2))
    y = (X[:, 0] * X[:, 1] > 0).astype(int)
    model = rf_fit(X, y, RFConfig(n_trees=1, max_depth=1, max_features=2, seed=0))

    def depth(node):
        if node.is_leaf:
            return 0
        return 1 + max(depth(node.left), depth(node.right))

    assert depth(model.trees[0]) <= 1


def test_forest_vote_tie_predicts_class_zero():
    leaf0 = TreeNode(counts=(5, 0))
    leaf1 = TreeNode(counts=(0, 5))
    model = RFModel(trees=(leaf0, leaf1), config=RFConfig(n_trees=2), n_features=1)
    assert classify(model, np.array([[0.0]]))[0] == 0
    assert rf_scores(model, np.array([[0.0]]))[0] == 0.5


def test_leaf_count_tie_predicts_class_zero():
    tie_leaf = TreeNode(counts=(3, 3))
    model = RFModel(trees=(tie_leaf,), config=RFConfig(n_trees=1), n_features=1)
    assert classify(model, np.array([[0.0]]))[0] == 0


def test_scores_are_vote_fractions():
    trees = tuple(TreeNode(counts=(0, 1)) for _ in range(3)) + (TreeNode(counts=(1, 0)),)
    model = RFModel(trees=trees, config=RFConfig(n_trees=4), n_features=2)
    assert rf_scores(model, np.zeros((1, 2)))[0] == 0.75


def test_bad_input_rejected():
    with pytest.raises(ConfigError):
        RFConfig(n_trees=0)
    with pytest.raises(ConfigError):
        RFConfig(max_depth=0)
    with pytest.raises(DataError):
        rf_fit(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(DataError):
        rf_fit(np.zeros((4, 2)), np.array([0, 1, 2, 0]))
    model = rf_fit(np.array([[0.0], [1.0]]), np.array([0, 1]), RFConfig(n_trees=1))
    with pytest.raises(DataError):
        classify(model, np.zeros((2, 3)))


def _reference_best_split(X, y, candidate_features):
    """The per-boundary scan that ``best_split`` must match bit for bit."""
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
        ones = np.cumsum(y[order])
        boundaries = np.flatnonzero(xs[1:] > xs[:-1]) + 1
        for b in boundaries:
            n_l = int(b)
            n_r = n - n_l
            ones_l = int(ones[b - 1])
            ones_r = int(ones[-1]) - ones_l
            g_l = 1.0 - ((ones_l / n_l) ** 2 + ((n_l - ones_l) / n_l) ** 2)
            g_r = 1.0 - ((ones_r / n_r) ** 2 + ((n_r - ones_r) / n_r) ** 2)
            weighted = (n_l * g_l + n_r * g_r) / n
            threshold = (xs[b - 1] + xs[b]) / 2.0
            if best is None or weighted < best[0]:
                best = (weighted, f, threshold)
    if best is None:
        return None
    gain = parent - best[0]
    if gain <= 0.0:
        return None
    return best[1], best[2], gain


def _reference_tree_predict_one(node: TreeNode, row: np.ndarray) -> int:
    """The per-row tree walk that ``rf_scores`` must match."""
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    c0, c1 = node.counts
    return 1 if c1 > c0 else 0  # majority class 0, ties included


def _column(draw, rng, n, earlier):
    kind = draw(st.sampled_from(["one_decimal", "few_values", "constant", "continuous", "copy"]))
    if kind == "one_decimal":  # many duplicates
        return np.round(rng.normal(size=n), 1)
    if kind == "few_values":
        return rng.choice(np.round(rng.normal(size=draw(st.integers(2, 3))), 2), size=n)
    if kind == "constant":
        return np.full(n, np.round(rng.normal(), 1))
    if kind == "copy" and earlier:  # exact cross-feature ties
        return earlier[draw(st.integers(0, len(earlier) - 1))].copy()
    return rng.normal(size=n)


def _labels(draw, rng, n):
    kind = draw(st.sampled_from(["all_zero", "all_one", "one_minority", "skewed", "even"]))
    if kind in ("all_zero", "all_one"):
        return np.full(n, int(kind == "all_one"), dtype=np.int64)
    if kind == "one_minority":
        y = np.full(n, draw(st.integers(0, 1)), dtype=np.int64)
        y[draw(st.integers(0, n - 1))] ^= 1
        return y
    p = 0.5 if kind == "even" else draw(st.sampled_from([0.03, 0.1, 0.9, 0.97]))
    return (rng.random(n) < p).astype(np.int64)


@st.composite
def split_cases(draw):
    """Rows, labels and candidate features (a random subset, in random order)."""
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(d):
        columns.append(_column(draw, rng, n, columns))
    X = np.column_stack(columns)
    features = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
    return X, _labels(draw, rng, n), features


# 33 of 41 rows are class 1 on the left of the only boundary: (33/41) ** 2
# by libm pow and 33/41 * 33/41 differ in the last bit.
_POW_CASE = (
    np.array([[0.0]] * 41 + [[1.0]] * 9),
    np.array([1] * 33 + [0] * 8 + [0] * 9),
    [0],
)


@settings(deadline=None, max_examples=300)
@given(split_cases())
@example(_POW_CASE)
def test_best_split_matches_reference_scan(case):
    X, y, features = case
    got = best_split(X, y, features)
    want = _reference_best_split(X, y, features)
    assert got == want
    if want is not None:
        assert type(got[0]) is int
        assert float(got[1]).hex() == float(want[1]).hex()
        assert float(got[2]).hex() == float(want[2]).hex()


def _thresholds(nodes):
    for node in nodes:
        if not node.is_leaf:
            yield node.threshold
            yield from _thresholds((node.left, node.right))


@settings(deadline=None)
@given(
    split_cases(),
    st.integers(1, 6),
    st.none() | st.integers(1, 4),
    st.integers(0, 2**16),
)
def test_rf_scores_match_reference_walk(case, n_trees, max_depth, seed):
    X, y, _ = case
    model = rf_fit(X, y, RFConfig(n_trees=n_trees, max_depth=max_depth, seed=seed))
    # Query the training rows, fresh rows, and rows sitting on thresholds.
    rng = np.random.default_rng(seed)
    thresholds = list(_thresholds(model.trees)) or [0.0]
    queries = np.vstack(
        [X, rng.normal(size=X.shape), rng.choice(thresholds, size=X.shape)]
    )
    votes = np.zeros(len(queries), dtype=np.float64)
    for tree in model.trees:
        votes += np.array([_reference_tree_predict_one(tree, q) for q in queries], dtype=np.float64)
    want = votes / len(model.trees)
    got = rf_scores(model, queries)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(classify(model, queries), (want > 0.5).astype(np.int64))


def _reference_copying_grow(X, y, rng, config: RFConfig, max_features: int, depth: int) -> TreeNode:
    """The _grow that copied each node's rows, all columns, for its children."""
    counts = np.bincount(y, minlength=2)
    leaf = TreeNode(counts=(int(counts[0]), int(counts[1])))
    if (
        len(y) < config.min_samples_split
        or counts[0] == 0
        or counts[1] == 0
        or (config.max_depth is not None and depth >= config.max_depth)
    ):
        return leaf
    d = X.shape[1]
    candidates = rng.choice(d, size=min(max_features, d), replace=False)
    split = best_split(X, y, candidates)
    if split is None:
        return leaf
    f, threshold, _ = split
    mask = X[:, f] <= threshold
    left = _reference_copying_grow(X[mask], y[mask], rng, config, max_features, depth + 1)
    right = _reference_copying_grow(X[~mask], y[~mask], rng, config, max_features, depth + 1)
    return TreeNode(feature=f, threshold=threshold, left=left, right=right)


def _reference_copying_fit(X, y, config: RFConfig) -> tuple[TreeNode, ...]:
    """rf_fit's trees grown on a copy of each bootstrap resample."""
    d = X.shape[1]
    max_features = config.max_features if config.max_features is not None else max(1, int(np.sqrt(d)))
    seeds = np.random.SeedSequence(config.seed).spawn(config.n_trees)
    trees = []
    for t in range(config.n_trees):
        rng = np.random.default_rng(seeds[t])
        idx = rng.integers(0, len(X), size=len(X))
        trees.append(_reference_copying_grow(X[idx], y[idx], rng, config, max_features, depth=0))
    return tuple(trees)


def _bits(node: TreeNode):
    """A tree as nested tuples, thresholds by their bits."""
    if node.is_leaf:
        return node.counts
    assert type(node.feature) is int
    return (node.feature, float(node.threshold).hex(), _bits(node.left), _bits(node.right))


@settings(deadline=None, max_examples=200)
@given(
    split_cases(),
    st.integers(0, 20),
    st.integers(1, 3),
    st.none() | st.integers(1, 4),
    st.integers(2, 6),
    st.none() | st.integers(1, 6),
    st.integers(0, 2**16),
)
@example(_POW_CASE, 0, 2, None, 2, None, 0)
@example(_POW_CASE, 5, 1, 1, 3, 1, 1)
def test_trees_grown_on_row_indices_equal_trees_grown_on_copies(
    case, duplicates, n_trees, max_depth, min_samples_split, max_features, seed
):
    X, y, _ = case
    # Exact duplicate rows, labels included, beside the columns' own ties.
    dup = np.random.default_rng(seed).integers(0, len(X), size=duplicates)
    X, y = np.vstack([X, X[dup]]), np.concatenate([y, y[dup]])
    if max_features is not None:
        max_features = min(max_features, X.shape[1])
    config = RFConfig(
        n_trees=n_trees,
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        max_features=max_features,
        seed=seed,
    )
    got = rf_fit(X, y, config).trees
    want = _reference_copying_fit(X, y, config)
    assert [_bits(t) for t in got] == [_bits(t) for t in want]


def test_fit_memory_does_not_grow_with_the_feature_count():
    n = 4000
    rng = np.random.default_rng(0)
    y = (rng.random(n) < 0.3).astype(np.int64)
    # Every column is continuous, so a node's split work is the same whichever
    # candidates it draws.
    config = RFConfig(n_trees=2, max_depth=2, max_features=4, seed=1)
    peaks = {}
    for d in (16, 256):
        X = rng.normal(size=(n, d))
        tracemalloc.start()
        rf_fit(X, y, config)
        peaks[d] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # A copied bootstrap resample alone would be 8 MB at d = 256.
    assert peaks[256] <= 1.2 * peaks[16], peaks
