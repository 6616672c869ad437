"""Minority oversampling: counts, geometry, determinism, provenance."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seizurekit import ConfigError, DataError, FeatureMatrix, SmoteConfig, smote


def balanced_config(**kw):
    return SmoteConfig(**{"k_neighbors": 5, "target_ratio": 1.0, "seed": 0, **kw})


def test_exact_output_counts():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(13, 4))
    y = np.array([1] * 3 + [0] * 10)
    Xo, yo, mask = smote(X, y, balanced_config(k_neighbors=2))
    # floor(1.0 * 10) = 10 minority rows after; 7 are synthetic
    assert mask.sum() == 7
    assert (yo == 1).sum() == 10 and (yo == 0).sum() == 10
    assert len(Xo) == 20


def test_partial_target_ratio_counts():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(25, 3))
    y = np.array([1] * 5 + [0] * 20)
    Xo, yo, mask = smote(X, y, balanced_config(k_neighbors=3, target_ratio=0.5))
    assert (yo == 1).sum() == 10  # floor(0.5 * 20)
    assert mask.sum() == 5


def test_already_balanced_adds_nothing():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 2))
    y = np.array([0] * 5 + [1] * 5)
    Xo, yo, mask = smote(X, y, balanced_config(k_neighbors=2))
    assert mask.sum() == 0
    assert np.array_equal(Xo, X)


def test_original_rows_pass_through_bit_identical():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 6))
    y = (np.arange(30) < 6).astype(int)
    Xo, yo, mask = smote(X, y, balanced_config())
    assert np.array_equal(Xo[:30], X)
    assert np.array_equal(yo[:30], y)
    assert not mask[:30].any()
    assert mask[30:].all()


def test_fixed_lambda_midpoint():
    X = np.array([[0.0, 0.0], [2.0, 2.0], [5.0, 5.0], [6.0, 5.0], [7.0, 5.0]])
    y = np.array([1, 1, 0, 0, 0])
    Xo, yo, mask = smote(X, y, balanced_config(k_neighbors=1), fixed_lambda=0.5)
    # each minority row's only neighbor is the other one: midpoint (1, 1)
    for row in Xo[mask]:
        assert row.tolist() == [1.0, 1.0]


def test_identical_minority_rows_give_identical_synthetics():
    X = np.vstack([np.full((3, 4), 2.5), np.random.default_rng(5).normal(size=(9, 4))])
    y = np.array([1] * 3 + [0] * 9)
    Xo, yo, mask = smote(X, y, balanced_config(k_neighbors=2))
    assert np.allclose(Xo[mask], 2.5)


def test_synthetic_rows_lie_on_minority_segments():
    rng = np.random.default_rng(6)
    for trial in range(60):
        n_min = int(rng.integers(3, 10))
        n_maj = int(rng.integers(n_min + 1, 25))
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, n_min))
        X = np.vstack([rng.normal(size=(n_min, d)), rng.normal(loc=5, size=(n_maj, d))])
        y = np.array([1] * n_min + [0] * n_maj)
        Xo, yo, mask = smote(X, y, balanced_config(k_neighbors=k, seed=trial))
        minority = X[:n_min]
        # true neighbor sets from an independent brute-force pass
        d2 = ((minority[:, None, :] - minority[None, :, :]) ** 2).sum(axis=2)
        for s in Xo[mask]:
            ok = False
            for i in range(n_min):
                order = np.argsort(d2[i], kind="stable")
                nn = [j for j in order if j != i][:k]
                for j in nn:
                    a, b = minority[i], minority[j]
                    seg = b - a
                    denom = float(seg @ seg)
                    lam = 0.0 if denom == 0 else float((s - a) @ seg) / denom
                    lam = min(max(lam, 0.0), 1.0)
                    if np.abs(a + lam * seg - s).max() < 1e-9:
                        ok = True
                        break
                if ok:
                    break
            assert ok, f"trial {trial}: synthetic row off every minority segment"


def test_same_seed_reproduces_and_seeds_differ():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 5))
    y = (np.arange(40) < 8).astype(int)
    a = smote(X, y, balanced_config(seed=42))[0]
    b = smote(X, y, balanced_config(seed=42))[0]
    c = smote(X, y, balanced_config(seed=43))[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_k_clamped_with_warning():
    X = np.vstack([np.eye(2), np.random.default_rng(8).normal(loc=4, size=(9, 2))])
    y = np.array([1, 1] + [0] * 9)
    with pytest.warns(UserWarning, match="clamping"):
        Xo, yo, mask = smote(X, y, balanced_config(k_neighbors=5))
    assert (yo == 1).sum() == 9


def test_single_minority_row_rejected():
    X = np.random.default_rng(9).normal(size=(5, 2))
    y = np.array([1, 0, 0, 0, 0])
    with pytest.raises(DataError):
        smote(X, y, balanced_config())


def test_single_class_rejected():
    X = np.zeros((4, 2))
    with pytest.raises(DataError):
        smote(X, np.zeros(4, dtype=int), balanced_config())


def test_bad_config_rejected():
    with pytest.raises(ConfigError):
        SmoteConfig(k_neighbors=0)
    with pytest.raises(ConfigError):
        SmoteConfig(target_ratio=0.0)
    with pytest.raises(ConfigError):
        SmoteConfig(target_ratio=1.5)


def test_feature_matrix_metadata_copied_from_source():
    rng = np.random.default_rng(10)
    values = np.vstack([rng.normal(size=(3, 2)), rng.normal(loc=6, size=(7, 2))])
    m = FeatureMatrix(
        values=values,
        patients=np.array([f"P{i}" for i in range(10)], dtype=object),
        files=np.array([f"f{i}" for i in range(10)], dtype=object),
        starts=np.arange(10, dtype=np.float64),
    )
    y = np.array([1] * 3 + [0] * 7)
    out, yo, mask = smote(m, y, balanced_config(k_neighbors=2))
    assert isinstance(out, FeatureMatrix)
    assert list(out.patients[:10]) == list(m.patients)
    # synthetic rows carry the provenance of their interpolation source
    assert set(out.patients[mask]) <= {"P0", "P1", "P2"}
    assert len(out.values) == 14


@st.composite
def smote_cases(draw):
    """Rows on a dyadic grid (so squared distances are exact and ties are
    common, duplicate rows included), classes in random order, any k and
    ratio."""
    n0, n1 = draw(st.integers(2, 25)), draw(st.integers(2, 25))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 2.0 ** draw(st.integers(-4, 4))
    X = rng.integers(-draw(st.integers(1, 4)), 5, size=(n0 + n1, d)) * scale
    y = rng.permutation(np.array([0] * n0 + [1] * n1))
    k = draw(st.integers(1, min(n0, n1) + 2))
    ratio = draw(st.sampled_from([1.0, 0.5]) | st.floats(0.01, 1.0))
    return X, y, k, ratio, draw(st.integers(0, 2**16))


@settings(deadline=None)
@given(smote_cases())
def test_each_synthetic_row_lies_between_its_source_and_a_nearest_neighbour(case):
    X, y, k, ratio, seed = case
    n = len(y)
    # Unique patient names mark each synthetic row's source row.
    m = FeatureMatrix(
        values=X,
        patients=np.array([str(i) for i in range(n)], dtype=object),
        files=np.array(["f"] * n, dtype=object),
        starts=np.zeros(n),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out, yo, mask = smote(m, y, SmoteConfig(k_neighbors=k, target_ratio=ratio, seed=seed))

    counts = np.bincount(y, minlength=2)
    minority = int(np.argmin(counts))  # equal counts: class 0, as np.unique orders them
    n_min, n_maj = counts[minority], counts[1 - minority]
    assert mask.sum() == max(0, math.floor(ratio * n_maj) - n_min)
    assert (yo[mask] == minority).all()

    rows = np.flatnonzero(y == minority)
    k = min(k, n_min - 1)
    for s, source in zip(out.values[mask], out.patients[mask]):
        i = int(source)
        assert i in rows
        # k nearest minority rows by exact squared distance, lower index first.
        d2 = ((X[rows] - X[i]) ** 2).sum(axis=1)
        nearest = [rows[j] for j in np.lexsort((rows, d2)) if rows[j] != i][:k]
        on_segment = False
        for j in nearest:
            seg = X[j] - X[i]
            denom = float(seg @ seg)
            lam = 0.0 if denom == 0 else min(max(float((s - X[i]) @ seg) / denom, 0.0), 1.0)
            on_segment |= np.abs(X[i] + lam * seg - s).max() <= 1e-12 * max(1.0, np.abs(X).max())
        assert on_segment, f"synthetic row {s} from row {i} is off every segment to {nearest}"


def test_neighbour_search_memory_does_not_grow_with_minority_squared():
    # The full pairwise difference tensor at this size is 400 * 400 * 92
    # doubles, about 118 MB; the blocked search stays near its 1 MB budget.
    rng = np.random.default_rng(8)
    X = rng.normal(size=(1200, 92))
    y = np.array([1] * 400 + [0] * 800)
    tracemalloc.start()
    try:
        Xo, yo, mask = smote(X, y, balanced_config())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.sum() == 400
    assert peak < 32 * 2**20


def test_synthetic_rows_are_written_into_the_output_without_a_second_copy():
    # 100 minority rows against 2,000 majority: 1,900 synthetic rows. A
    # separate array of synthetic rows concatenated onto the input would
    # hold about half the output a second time.
    rng = np.random.default_rng(9)
    X = rng.normal(size=(2100, 92))
    y = np.array([1] * 100 + [0] * 2000)
    out_bytes = 4000 * 92 * 8
    tracemalloc.start()
    try:
        Xo, yo, mask = smote(X, y, balanced_config())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Xo.nbytes == out_bytes and mask.sum() == 1900
    assert peak < 1.25 * out_bytes
