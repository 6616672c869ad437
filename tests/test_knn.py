"""Nearest-neighbor voting, tie-breaking, and class weighting."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seizurekit import ConfigError, DataError, SmoteConfig, smote
from seizurekit.models import knn, knn_vote
from seizurekit.models.knn import nearest


TRAIN_X = np.array([[0.0, 0.0], [1.0, 1.0], [10.0, 10.0]])
TRAIN_Y = np.array([0, 0, 1])


def classify_one(train_X, train_y, query, k, class_weights=None):
    """The class knn_vote gives one query row."""
    return int(knn_vote(train_X, train_y, [query], k, class_weights)[0][0])


def test_majority_vote_small_example():
    # query near the two class-0 points; k=2 neighbors are both class 0
    assert classify_one(TRAIN_X, TRAIN_Y, [0.1, 0.1], k=2) == 0
    assert classify_one(TRAIN_X, TRAIN_Y, [9.0, 9.0], k=1) == 1


def test_vote_tie_goes_to_nearest_neighbor():
    X = np.array([[0.0], [2.0]])
    y = np.array([1, 0])
    # k=2 splits the vote 1-1; the closer point decides
    assert classify_one(X, y, [0.4], k=2) == 1
    assert classify_one(X, y, [1.6], k=2) == 0


def test_distance_tie_prefers_lower_row_index():
    X = np.array([[-1.0], [1.0], [5.0]])
    y = np.array([1, 0, 0])
    # query 0.0 is equidistant from rows 0 and 1; stable sort ranks row 0
    # first, so the k=1 neighbor (and the vote tiebreak at k=2) is class 1
    assert classify_one(X, y, [0.0], k=1) == 1
    assert classify_one(X, y, [0.0], k=2) == 1


def test_query_on_training_point():
    assert classify_one(TRAIN_X, TRAIN_Y, [10.0, 10.0], k=1) == 1


def test_predict_matches_classify_rowwise():
    rng = np.random.default_rng(2)
    train_X = rng.normal(size=(30, 3))
    train_y = rng.integers(0, 2, size=30)
    X = rng.normal(size=(15, 3))
    batch, _ = knn_vote(train_X, train_y, X, k=5)
    single = [classify_one(train_X, train_y, row, k=5) for row in X]
    assert batch.tolist() == single


def test_prediction_invariant_to_training_order():
    rng = np.random.default_rng(3)
    # jittered rows make exact distance ties vanishingly unlikely
    train_X = rng.normal(size=(40, 4))
    train_y = rng.integers(0, 2, size=40)
    X = rng.normal(size=(20, 4))
    base, _ = knn_vote(train_X, train_y, X, k=3)
    perm = rng.permutation(40)
    shuffled, _ = knn_vote(train_X[perm], train_y[perm], X, k=3)
    assert np.array_equal(base, shuffled)


def test_class_weights_can_flip_minority_vote():
    X = np.array([[0.0], [0.2], [0.4]])
    y = np.array([0, 0, 1])
    assert classify_one(X, y, [0.2], k=3) == 0
    # weighting class 1 votes 3x outweighs two class-0 neighbors
    assert classify_one(X, y, [0.2], k=3, class_weights={0: 1.0, 1: 3.0}) == 1


def test_scores_are_positive_vote_share():
    _, s = knn_vote(TRAIN_X, TRAIN_Y, np.array([[0.0, 0.0], [10.0, 10.0]]), k=3)
    assert s.tolist() == [pytest.approx(1 / 3), pytest.approx(1 / 3)]
    _, s1 = knn_vote(TRAIN_X, TRAIN_Y, np.array([[10.0, 10.0]]), k=1)
    assert s1[0] == 1.0


def test_invalid_k_and_empty_train_rejected():
    with pytest.raises(ConfigError):
        classify_one(TRAIN_X, TRAIN_Y, [0.0, 0.0], k=0)
    with pytest.raises(DataError):
        classify_one(TRAIN_X, TRAIN_Y, [0.0, 0.0], k=4)
    with pytest.raises(DataError):
        classify_one(np.zeros((0, 2)), np.zeros(0), [0.0, 0.0], k=1)


# ---------------------------------------------------------------- nearest


def _reference_minority_neighbors(minority, k):
    """SMOTE's former search: the full pairwise tensor, self dropped by index."""
    n = len(minority)
    diff = minority[:, None, :] - minority[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    order = np.argsort(dist, axis=1, kind="stable")
    neighbors = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        row = order[i][order[i] != i]
        neighbors[i] = row[:k]
    return neighbors


def _reference_query_neighbors(train_X, X, k):
    """knn_vote's former search: one distance pass per query row."""
    out = np.empty((len(X), k), dtype=np.int64)
    for r in range(len(X)):
        dist = np.sqrt(((train_X - X[r]) ** 2).sum(axis=1))
        out[r] = np.argsort(dist, kind="stable")[:k]
    return out


@st.composite
def nearest_cases(draw):
    d = draw(st.integers(1, 4))
    # Quarter steps are exact in binary, so equal distances tie exactly.
    row = st.lists(st.integers(-4, 4).map(lambda v: v / 4), min_size=d, max_size=d)
    distinct = draw(st.lists(row, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2, max_size=24))
    # A large offset keeps the differences exact but not |a|^2 - 2ab + |b|^2.
    offset = draw(st.sampled_from([0.0, 1e8]))
    B = offset + np.array([distinct[i] for i in picks])  # repeats give duplicate rows
    A = offset + np.array(draw(st.lists(row, max_size=10)), dtype=np.float64).reshape(-1, d)
    exclude_self = draw(st.booleans())
    top = len(B) - exclude_self
    k = draw(st.sampled_from([1, top]) | st.integers(1, top))
    # Small budgets split the rows into many blocks, one row each at the least.
    budget = draw(st.sampled_from([1, 64, 1 << 20]))
    return A, B, k, exclude_self, budget


@settings(max_examples=300, deadline=None)
@given(nearest_cases())
def test_nearest_matches_the_former_neighbour_searches(case):
    A, B, k, exclude_self, budget = case
    with mock.patch.object(knn, "_BLOCK_BYTES", budget):
        if exclude_self:
            assert np.array_equal(nearest(B, B, k, exclude_self=True), _reference_minority_neighbors(B, k))
        else:
            got = nearest(A, B, k)
            assert got.shape == (len(A), k)
            assert np.array_equal(got, _reference_query_neighbors(B, A, k))


def test_nearest_drops_own_index_not_first_position():
    # Rows 0 and 1 coincide: row 1's nearest other row is row 0, which
    # ranks ahead of row 1 itself.
    X = np.array([[0.0], [0.0], [1.0]])
    assert nearest(X, X, 1, exclude_self=True).tolist() == [[1], [0], [0]]


def test_nearest_rejects_bad_shapes_and_k():
    with pytest.raises(DataError):
        nearest(np.zeros((2, 3)), np.zeros((4, 2)), 1)
    with pytest.raises(DataError):
        nearest(np.zeros((3, 2)), np.zeros((3, 2)), 3, exclude_self=True)
    with pytest.raises(ConfigError):
        nearest(np.zeros((3, 2)), np.zeros((3, 2)), 0)


@st.composite
def screen_cases(draw):
    """Rows where the matmul screen is hardest to trust: integer grids full
    of exact ties and planted duplicates, a cancelling offset, norms whose
    squares overflow (1e154 and up) or underflow, and blocks small enough
    that the queries and the re-ranked pairs span several of them."""
    d = draw(st.integers(0, 12))  # numpy sums 8 or more columns pairwise
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.integers(-3, 4, size=(draw(st.integers(1, 6)), d)).astype(np.float64)
    if draw(st.booleans()):
        grid += rng.normal(size=grid.shape)  # ties only between duplicates
    scale = draw(st.sampled_from([1.0, 1e-160, 1e150, 1e154, 1e155]))
    offset = draw(st.sampled_from([0.0, 1e8]))
    n_b = draw(st.integers(1, 30))
    B = offset + scale * grid[rng.integers(len(grid), size=n_b)]  # repeats are duplicate rows
    exclude_self = n_b > 1 and draw(st.booleans())
    A = B if exclude_self else offset + scale * grid[rng.integers(len(grid), size=draw(st.integers(0, 20)))]
    top = n_b - exclude_self
    k = draw(st.sampled_from([1, top]) | st.integers(1, top))
    # The smallest budgets give blocks of knn._MIN_BLOCK_ROWS queries and
    # split the re-rank into pairs of rows.
    budget = draw(st.sampled_from([8 * n_b, 16 * n_b, 1 << 20]))
    return A, B, k, exclude_self, budget


@settings(max_examples=300, deadline=None)
@given(screen_cases())
def test_the_screened_search_matches_the_former_exact_searches(case):
    A, B, k, exclude_self, budget = case
    with mock.patch.object(knn, "_BLOCK_BYTES", budget), np.errstate(all="ignore"):
        got = nearest(A, B, k, exclude_self=exclude_self)
        if exclude_self:
            want = _reference_minority_neighbors(B, k)
        else:
            want = _reference_query_neighbors(B, A, k)
    assert got.shape == (len(A), k)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("fixed_lambda", [0.5, None])
@pytest.mark.parametrize("seed", [0, 1])
def test_smote_output_equals_the_output_from_the_former_search(fixed_lambda, seed):
    rng = np.random.default_rng(seed)
    minority = rng.normal(size=(60, 92))
    minority[1::3] = minority[:-1:3]  # every third row duplicates the row before it
    X = np.vstack([minority, rng.normal(loc=3, size=(200, 92))])
    y = np.array([1] * 60 + [0] * 200)
    cfg = SmoteConfig(k_neighbors=5, seed=seed)
    got = smote(X, y, cfg, fixed_lambda=fixed_lambda)

    def former(A, B, k, exclude_self):
        return _reference_minority_neighbors(B, k)

    with mock.patch.object(knn, "nearest", former):
        want = smote(X, y, cfg, fixed_lambda=fixed_lambda)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_a_search_holds_about_one_block_budget_beyond_its_inputs():
    # The benchmark's knn: 1,725 test rows against 1,000 training rows.
    rng = np.random.default_rng(4)
    A, B = rng.normal(size=(1725, 92)), rng.normal(size=(1000, 92))
    tracemalloc.start()
    try:
        out = nearest(A, B, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A row-major copy of B, then one block's screen or re-rank at a time.
    assert peak - out.nbytes <= 2 * knn._BLOCK_BYTES, (peak - out.nbytes) / knn._BLOCK_BYTES
