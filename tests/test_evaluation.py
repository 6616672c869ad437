"""Patient-level splits, k-fold CV, confusion metrics, and ROC/AUC."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seizurekit import (
    ConfigError,
    DataError,
    LeakageError,
    SplitPlan,
    assert_patient_disjoint,
    compute_metrics,
    kfold_patients,
    roc_auc,
    split_patients,
    summarize_folds,
)


def patients(n, prefix="P"):
    return [f"{prefix}{i:02d}" for i in range(1, n + 1)]


def test_default_split_sizes_23_patients():
    plan = split_patients(patients(23))
    assert len(plan.train_patients) == 12  # round-half-up of 11.5
    assert len(plan.val_patients) == 6  # round-half-up of 5.75
    assert len(plan.test_patients) == 5


def test_default_split_sizes_8_patients():
    plan = split_patients(patients(8))
    assert (len(plan.train_patients), len(plan.val_patients), len(plan.test_patients)) == (4, 2, 2)


def test_split_partitions_input():
    ids = patients(17)
    plan = split_patients(ids, seed=3)
    combined = plan.train_patients + plan.val_patients + plan.test_patients
    assert sorted(combined) == sorted(ids)
    assert len(set(combined)) == len(ids)


def test_split_seed_determinism_and_order_independence():
    ids = patients(12)
    a = split_patients(ids, seed=5)
    b = split_patients(list(reversed(ids)), seed=5)
    c = split_patients(ids, seed=6)
    assert a == b  # input order is irrelevant: IDs are sorted first
    assert a != c


def test_split_groups_disjoint_over_many_seeds():
    ids = patients(9)
    for seed in range(100):
        plan = split_patients(ids, seed=seed)
        train, val, test = map(set, (plan.train_patients, plan.val_patients, plan.test_patients))
        assert not (train & val) and not (train & test) and not (val & test)


def test_split_rejects_bad_input():
    with pytest.raises(DataError):
        split_patients(["A", "B"])
    with pytest.raises(DataError):
        split_patients(["A", "B", "B", "C"])
    with pytest.raises(ConfigError):
        split_patients(patients(6), ratios=(0.5, 0.2, 0.2))
    with pytest.raises(ConfigError):
        split_patients(patients(6), ratios=(1.5, -0.25, -0.25))


def test_split_plan_rejects_shared_patient():
    with pytest.raises(LeakageError):
        SplitPlan(("A", "B"), ("B",), ("C",), seed=0)


def test_kfold_sizes():
    folds = kfold_patients(patients(23), k=5)
    test_sizes = sorted(len(test) for _, test in folds)
    assert test_sizes == [4, 4, 5, 5, 5]
    folds = kfold_patients(patients(10), k=5)
    assert all(len(test) == 2 for _, test in folds)


def test_kfold_each_patient_tests_exactly_once():
    ids = patients(13)
    for seed in range(20):
        folds = kfold_patients(ids, k=4, seed=seed)
        seen = [p for _, test in folds for p in test]
        assert sorted(seen) == sorted(ids)
        for train, test in folds:
            assert sorted(train + test) == sorted(ids)
            assert not set(train) & set(test)


def test_kfold_rejects_bad_k():
    with pytest.raises(ConfigError):
        kfold_patients(patients(10), k=1)
    with pytest.raises(DataError):
        kfold_patients(patients(4), k=5)


def test_disjoint_gate_names_offenders():
    assert_patient_disjoint(["A", "B"], ["C"])  # fine
    with pytest.raises(LeakageError, match="'B'"):
        assert_patient_disjoint(["A", "B"], ["B", "C"])


def test_metrics_hand_worked_case():
    r = compute_metrics([1, 1, 0, 0], [1, 0, 0, 0])
    assert (r.tp, r.fp, r.tn, r.fn) == (1, 0, 2, 1)
    assert r.accuracy == 0.75
    assert r.precision == 1.0
    assert r.recall == 0.5
    assert r.f1 == pytest.approx(2 / 3)
    assert r.undefined == ()


def test_metrics_perfect_prediction():
    r = compute_metrics([1, 0, 1, 0], [1, 0, 1, 0])
    assert r.accuracy == r.precision == r.recall == r.f1 == 1.0


def test_metrics_all_negative_on_imbalanced_data():
    y_true = np.zeros(100, dtype=int)
    y_true[:6] = 1
    r = compute_metrics(y_true, np.zeros(100, dtype=int))
    assert r.accuracy == 0.94
    assert r.recall == 0.0
    assert r.precision == 0.0
    assert "precision" in r.undefined  # tp + fp == 0
    assert "f1" in r.undefined
    assert r.recall == 0.0 and "recall" not in r.undefined  # fn > 0: defined


def test_metrics_weighted_averages_are_support_weighted():
    y_true = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
    y_pred = [1, 0, 1, 0, 0, 1, 0, 0, 0, 0]
    r = compute_metrics(y_true, y_pred)
    p1, r1 = 2 / 3, 2 / 3
    p0, r0 = 6 / 7, 6 / 7
    assert r.weighted_precision == pytest.approx((3 * p1 + 7 * p0) / 10)
    assert r.weighted_recall == pytest.approx((3 * r1 + 7 * r0) / 10)


def test_metrics_reject_bad_input():
    with pytest.raises(DataError):
        compute_metrics([1, 0], [1])
    with pytest.raises(DataError):
        compute_metrics([], [])
    with pytest.raises(DataError):
        compute_metrics([2, 0], [1, 0])


def test_auc_hand_worked_case():
    # positives {0.9, 0.4}, negatives {0.5, 0.1}: 3 wins out of 4 pairs
    points, auc = roc_auc([1, 0, 1, 0], [0.9, 0.5, 0.4, 0.1])
    assert auc == 0.75
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)


def test_auc_perfect_separation():
    _, auc = roc_auc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1])
    assert auc == 1.0
    _, auc = roc_auc([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9])
    assert auc == 0.0


def test_auc_all_tied_scores():
    points, auc = roc_auc([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5])
    assert auc == 0.5
    assert points == [(0.0, 0.0), (1.0, 1.0)]


def test_auc_matches_brute_force_pair_count():
    rng = np.random.default_rng(13)
    for trial in range(200):
        n = int(rng.integers(4, 50))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        # quantized scores force plenty of exact ties
        scores = np.round(rng.normal(size=n), 1)
        _, auc = roc_auc(y, scores)
        pos = scores[y == 1]
        neg = scores[y == 0]
        wins = sum(1 for p in pos for q in neg if p > q)
        ties = sum(1 for p in pos for q in neg if p == q)
        expect = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert auc == expect  # bitwise: both sides are exact pair counts


# Few score levels give heavy ties; -0.0 and 0.0 are one score.
_tied_scores = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.25000000000000006, 3.0])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_tied_scores | st.floats(-5, 5), st.integers(0, 1)), min_size=2))
def test_roc_auc_matches_brute_force_over_all_pairs(rows):
    y = np.array([label for _, label in rows])
    scores = np.array([score for score, _ in rows])
    assume(0 < y.sum() < len(y))
    points, auc = roc_auc(y, scores)

    pos, neg = scores[y == 1], scores[y == 0]
    wins = sum(1 for p in pos for q in neg if p > q)
    ties = sum(1 for p in pos for q in neg if p == q)
    assert auc == (wins + 0.5 * ties) / (len(pos) * len(neg))
    # One point per distinct threshold, predicting positive iff score >= it.
    thresholds = sorted(set(scores.tolist()), reverse=True)
    expect = [(0.0, 0.0)] + [
        (int((neg >= t).sum()) / len(neg), int((pos >= t).sum()) / len(pos)) for t in thresholds
    ]
    assert points == expect


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(19)
    y = rng.integers(0, 2, size=40)
    y[0], y[1] = 0, 1
    scores = rng.normal(size=40)
    _, a = roc_auc(y, scores)
    _, b = roc_auc(y, 3.0 * scores + 7.0)
    assert a == b


def test_auc_roc_curve_is_monotone():
    rng = np.random.default_rng(29)
    y = rng.integers(0, 2, size=60)
    y[0], y[1] = 0, 1
    points, _ = roc_auc(y, np.round(rng.normal(size=60), 1))
    fprs = [p[0] for p in points]
    tprs = [p[1] for p in points]
    assert fprs == sorted(fprs)
    assert tprs == sorted(tprs)


def test_auc_rejects_degenerate_input():
    with pytest.raises(DataError):
        roc_auc([1, 1], [0.5, 0.6])
    with pytest.raises(DataError):
        roc_auc([1, 0], [np.nan, 0.5])


def test_summarize_folds_keys_do_not_depend_on_fold_order():
    one_class = {"accuracy": 1.0, "recall": 0.0}  # a one-class test side has no auc
    both = {"accuracy": 0.5, "recall": 0.5, "auc": 0.75}
    other = {"accuracy": 0.7, "recall": 0.25, "auc": 0.25}
    for folds in ([one_class, both, both], [both, one_class, both], [both, other, one_class]):
        s = summarize_folds(folds)
        assert list(s) == ["accuracy", "recall", "auc"]
        aucs = [f["auc"] for f in folds if "auc" in f]
        assert s["auc"]["mean"] == pytest.approx(np.mean(aucs))


def test_summarize_folds_mean_and_sample_std():
    reports = [{"accuracy": 0.7, "tp": 1}, {"accuracy": 0.8, "tp": 2}, {"accuracy": 0.9, "tp": 3}]
    s = summarize_folds(reports)
    assert s["accuracy"]["mean"] == pytest.approx(0.8)
    assert s["accuracy"]["std"] == pytest.approx(0.1)  # ddof=1
    assert "tp" not in s
