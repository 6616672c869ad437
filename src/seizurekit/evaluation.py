"""Patient-independent splitting, k-fold CV, metrics, and ROC/AUC.

Splits operate on patient IDs, never on rows, so no patient can straddle a
train/test boundary. Metrics with a zero denominator report 0 and name
themselves in the report's ``undefined`` list instead of returning NaN.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .domains import Domain, check_params
from .errors import ConfigError, DataError, LeakageError

_RATIO_DOMAINS = dict.fromkeys(("train", "val", "test"), Domain(float, 0))
FOLD_DOMAINS = {"k": Domain(int, 2)}  # kfold_patients' fold count


@dataclass(frozen=True)
class SplitPlan:
    train_patients: tuple[str, ...]
    val_patients: tuple[str, ...]
    test_patients: tuple[str, ...]
    seed: int

    def __post_init__(self):
        groups = (set(self.train_patients), set(self.val_patients), set(self.test_patients))
        total = sum(len(g) for g in groups)
        if len(groups[0] | groups[1] | groups[2]) != total:
            raise LeakageError("split groups share a patient")


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _check_patients(patient_ids) -> list[str]:
    ids = [str(p) for p in patient_ids]
    if len(set(ids)) != len(ids):
        dupes = sorted({p for p in ids if ids.count(p) > 1})
        raise DataError(f"duplicate patient ids: {dupes}")
    return ids


def check_split_ratios(ratios) -> None:
    """Raise ConfigError unless ratios are three finite numbers >= 0 that sum to 1."""
    if len(ratios) != 3:
        raise ConfigError(f"split_ratios must hold 3 numbers, got {ratios!r}")
    check_params("split_ratios", dict(zip(_RATIO_DOMAINS, ratios)), _RATIO_DOMAINS)
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios}")


def split_patients(
    patient_ids,
    ratios: tuple[float, float, float] = (0.5, 0.25, 0.25),
    seed: int = 0,
) -> SplitPlan:
    """Shuffle patients (seeded) and partition by the given ratios.

    Sizes are round-half-up of ratio * n for train and validation; the
    remainder goes to test. Input order does not matter: IDs are sorted
    before the seeded shuffle.
    """
    ids = sorted(_check_patients(patient_ids))
    if len(ids) < 3:
        raise DataError(f"need at least 3 patients to split, got {len(ids)}")
    check_split_ratios(ratios)

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    shuffled = [ids[i] for i in order]

    n = len(ids)
    n_train = _round_half_up(ratios[0] * n)
    n_val = _round_half_up(ratios[1] * n)
    n_test = n - n_train - n_val
    if n_test < 0:
        raise ConfigError(
            f"ratios {ratios} on {n} patients give sizes "
            f"{n_train}/{n_val}/{n_test}"
        )
    return SplitPlan(
        train_patients=tuple(shuffled[:n_train]),
        val_patients=tuple(shuffled[n_train : n_train + n_val]),
        test_patients=tuple(shuffled[n_train + n_val :]),
        seed=seed,
    )


def kfold_patients(
    patient_ids, k: int = 5, seed: int = 0
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Seeded patient-level k-fold: shuffle, chunk, each fold is test once.

    Fold sizes are ceil(n/k) for the first n mod k folds and floor(n/k)
    for the rest. Returns [(train_patients, test_patients), ...] in fold
    order.
    """
    check_params("kfold_patients", {"k": k}, FOLD_DOMAINS)
    ids = sorted(_check_patients(patient_ids))
    if k > len(ids):
        raise DataError(f"k={k} exceeds patient count {len(ids)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    shuffled = np.array([ids[i] for i in order], dtype=object)
    folds = np.array_split(shuffled, k)
    out = []
    for i in range(k):
        test = tuple(str(p) for p in folds[i])
        train = tuple(str(p) for j in range(k) if j != i for p in folds[j])
        out.append((train, test))
    return out


def assert_patient_disjoint(train_patients, test_patients) -> None:
    """Leakage gate: no patient may appear on both sides of a boundary."""
    shared = sorted(set(map(str, train_patients)) & set(map(str, test_patients)))
    if shared:
        raise LeakageError(
            f"patient(s) {shared} appear in both train and test rows"
        )


@dataclass(frozen=True)
class MetricsReport:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    weighted_precision: float
    weighted_recall: float
    undefined: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {**asdict(self), "undefined": list(self.undefined)}


def _ratio(num: int, den: int, name: str, undefined: list[str]) -> float:
    if den == 0:
        undefined.append(name)
        return 0.0
    return num / den


def compute_metrics(y_true, y_pred) -> MetricsReport:
    """Confusion counts and derived metrics for binary labels.

    Zero-denominator metrics come back as 0 with the metric name recorded
    in ``undefined``. Weighted precision/recall are the support-weighted
    averages of the per-class values.
    """
    y_true = np.asarray(y_true).astype(np.int64)
    y_pred = np.asarray(y_pred).astype(np.int64)
    if y_true.shape != y_pred.shape:
        raise DataError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise DataError("cannot compute metrics on empty input")
    for arr, name in ((y_true, "y_true"), (y_pred, "y_pred")):
        if not np.isin(arr, (0, 1)).all():
            raise DataError(f"{name} must contain only 0/1 labels")

    tp = int(((y_true == 1) & (y_pred == 1)).sum())
    fp = int(((y_true == 0) & (y_pred == 1)).sum())
    tn = int(((y_true == 0) & (y_pred == 0)).sum())
    fn = int(((y_true == 1) & (y_pred == 0)).sum())
    n = tp + fp + tn + fn

    undefined: list[str] = []
    precision = _ratio(tp, tp + fp, "precision", undefined)
    recall = _ratio(tp, tp + fn, "recall", undefined)
    if precision + recall == 0:
        if "f1" not in undefined:
            undefined.append("f1")
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)

    # Per-class views for the support-weighted averages: class 1 as above,
    # class 0 with the confusion matrix relabeled.
    p0 = _ratio(tn, tn + fn, "precision_class0", undefined)
    r0 = _ratio(tn, tn + fp, "recall_class0", undefined)
    support1 = tp + fn
    support0 = tn + fp
    weighted_precision = (support1 * precision + support0 * p0) / n
    weighted_recall = (support1 * recall + support0 * r0) / n

    return MetricsReport(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        accuracy=(tp + tn) / n,
        precision=precision,
        recall=recall,
        f1=f1,
        weighted_precision=weighted_precision,
        weighted_recall=weighted_recall,
        undefined=tuple(undefined),
    )


def roc_auc(y_true, scores) -> tuple[list[tuple[float, float]], float]:
    """ROC points from a descending threshold sweep, plus exact AUC.

    AUC is the pair statistic P(score_pos > score_neg) + 0.5 * P(equal),
    computed with integer win/tie counts so it matches a brute-force pair
    enumeration bit for bit. The curve runs from (0,0) to (1,1) with one
    point per distinct score threshold (predict positive iff score >=
    threshold).
    """
    y_true = np.asarray(y_true).astype(np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape:
        raise DataError(f"length mismatch: {y_true.shape} vs {scores.shape}")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite")
    n_pos = int((y_true == 1).sum())
    n_neg = int((y_true == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC undefined: need both classes present")

    # One group per distinct score, highest first, with its label counts.
    distinct, groups = np.unique(-scores, return_inverse=True)
    pos = np.bincount(groups[y_true == 1], minlength=len(distinct))
    neg = np.bincount(groups[y_true == 0], minlength=len(distinct))
    tp, fp = np.cumsum(pos), np.cumsum(neg)
    points = [(0.0, 0.0)] + list(zip((fp / n_neg).tolist(), (tp / n_pos).tolist()))

    # Exact pair statistic: a positive wins against every negative in a
    # lower score group and ties with those in its own.
    wins = int(pos @ (n_neg - fp))
    ties = int(pos @ neg)
    auc = (wins + 0.5 * ties) / (n_pos * n_neg)
    return points, auc


def summarize_folds(reports: list[dict]) -> dict:
    """Mean and sample standard deviation per numeric metric across folds.

    A metric missing from some folds (auc, when a fold's test side has one
    class) is summarized over the folds that have it; keys come from every
    fold in the order first seen, so the folds' order cannot drop one.
    """
    if not reports:
        raise DataError("no fold reports to summarize")
    keys = dict.fromkeys(
        k
        for r in reports
        for k, v in r.items()
        if isinstance(v, (int, float)) and k not in ("tp", "fp", "tn", "fn")
    )
    out = {}
    for k in keys:
        vals = np.array([r[k] for r in reports if k in r], dtype=np.float64)
        mean = float(vals.mean())
        std = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        out[k] = {"mean": mean, "std": std}
    return out
