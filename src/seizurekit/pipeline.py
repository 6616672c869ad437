"""End-to-end training/evaluation runs with a fixed leakage-safe order.

Every run follows the same sequence: split by patient, fit the scaler on
training rows only, scale all splits, oversample the training split if
asked, then fit the model. Models come from the registry in
models/registry.py, and score_features scores every model, fresh or
loaded from its file, on raw feature rows; a sequence model reads
build_sequences windows where the others read rows, each at the threshold
and window length the model carries (see scoring_point).
A patient-disjointness gate guards every evaluation: run_holdout, run_cv
and run_eval, which scores a saved model and also refuses a test patient
that helped fit it. The only way around the gate is run_holdout's
allow_leaky_split switch, which exists to demonstrate how optimistic
row-level splits are.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .domains import Domain, check_params, domains_of, param
from .epochs import SEQUENCE_LENGTH, SequenceDataset, build_sequences
from .errors import ConfigError, DataError, LeakageError
from .evaluation import (
    assert_patient_disjoint,
    check_split_ratios,
    compute_metrics,
    kfold_patients,
    roc_auc,
    split_patients,
    summarize_folds,
)
from .features import FeatureMatrix, Scaler, apply_scaler, fit_scaler
# DEFAULT_SVM_TRAIN_CAP and resolve_class_weights are re-exported here.
from .models.registry import (
    DEFAULT_MODEL,
    DEFAULT_SVM_TRAIN_CAP,
    MODELS,
    ModelSpec,
    resolve_class_weights,
    spec_for,
)
from .smote import SmoteConfig, smote


@dataclass(frozen=True)
class PipelineConfig:
    model: str = DEFAULT_MODEL
    model_params: dict = field(default_factory=dict)
    use_smote: bool = False
    smote_k: int = param(5, domains_of(SmoteConfig)["k_neighbors"])
    smote_ratio: float = param(1.0, domains_of(SmoteConfig)["target_ratio"])
    split_ratios: tuple[float, float, float] = (0.5, 0.25, 0.25)
    sequence_length: int = param(10, SEQUENCE_LENGTH)
    max_train_rows: int | None = param(None, Domain(int, 2, auto=True))
    allow_leaky_split: bool = False
    seed: int = 0

    def __post_init__(self):
        names = tuple(MODELS)
        if self.model not in names:
            raise ConfigError(f"unknown model {self.model!r}; choose from {names}")
        check_params(self.model, self.model_params, self.spec.domains)
        check_params("pipeline", self, domains_of(self))
        check_split_ratios(self.split_ratios)
        # Sequence windows are balanced by duplication instead (see
        # evaluate_split), and a row-level split would cut each file's windows
        # at every row sent elsewhere: no row-level option applies to them.
        row_level = {"smote": self.use_smote, "max_train_rows": self.max_train_rows is not None,
                     "allow_leaky_split": self.allow_leaky_split}
        used = [name for name, on in row_level.items() if on]
        if self.spec.sequential and used:
            raise ConfigError(f"{self.model} trains on sequence windows; {used[0]} is not supported")

    @property
    def spec(self) -> ModelSpec:
        return MODELS[self.model]

    @property
    def params(self) -> dict:
        """model_params over the model's registry defaults."""
        return {**self.spec.defaults, **self.model_params}


def window_length(spec: ModelSpec, given: int | None) -> int | None:
    """The window length a model of spec reads: the one given, else 10, for
    a sequence model; None for a row model, which a given length makes a
    ConfigError."""
    if spec.sequential:
        return given or PipelineConfig.sequence_length
    if given is not None:
        raise ConfigError(f"{spec.name} models read rows and take no sequence_length")
    return None


def scoring_point(model, model_file, threshold=None, sequence_length=None):
    """A loaded model re-pointed at the threshold and window length asked
    for, if any, and the (threshold, window length) it then scores at.

    A threshold given must lie in the model's domain, so one given to a
    model without a threshold is an unknown parameter; it overrides the one
    the model was fitted with. A sequence model reads windows of the length
    its file records, which a length given must equal (window_length rules
    on a file that records none). Either is None where the model has none.
    """
    spec = spec_for(model)
    if threshold is not None:
        check_params(spec.name, {"threshold": threshold}, spec.domains)
        model = replace(model, threshold=float(threshold))
    recorded = model.sequence_length if spec.sequential else None
    if recorded is not None and sequence_length not in (None, recorded):
        raise ConfigError(
            f"sequence_length {sequence_length} differs from the {recorded} "
            f"that the model in {model_file} was trained with"
        )
    T = window_length(spec, recorded or sequence_length)
    model = replace(model, sequence_length=T) if spec.sequential else model
    return model, getattr(model, "threshold", None), T


def stratified_cap(y, cap: int, seed: int) -> np.ndarray:
    """Seeded index subsample of at most cap rows, preserving class ratio."""
    y = np.asarray(y)
    n = len(y)
    if n <= cap:
        return np.arange(n)
    rng = np.random.default_rng(seed)
    keep: list[np.ndarray] = []
    classes, _ = np.unique(y, return_counts=True)  # a bare np.unique loads numpy.ma on numpy 2
    for c in classes:
        idx = np.flatnonzero(y == c)
        quota = max(1, math.floor(cap * len(idx) / n))
        keep.append(rng.choice(idx, size=min(quota, len(idx)), replace=False))
    out = np.sort(np.concatenate(keep))
    return out


def model_inputs(
    spec: ModelSpec, scaler: Scaler, fm: FeatureMatrix, labels, sequence_length: int
) -> SequenceDataset:
    """A model's inputs from raw feature rows, which scaler scales, each
    with the identity (patient, file, start) of the row it is scored as.

    A sequence model reads length-T windows (row indices into the scaled
    rows) labelled by their last epoch; every other model reads the rows.
    """
    fm = apply_scaler(scaler, fm)
    if spec.sequential:
        return build_sequences(fm, labels, sequence_length)
    return SequenceDataset(
        inputs=fm.values,
        y=np.asarray(labels),
        patients=fm.patients,
        files=fm.files,
        starts=fm.starts,
    )


def score_features(model, scaler, fm: FeatureMatrix, labels):
    """Score raw feature rows with a trained model and the scaler fitted with it.

    Returns the model_inputs scored, the classes, the ranking scores, and a
    report of the labels: confusion-matrix metrics, plus AUC and ROC points
    when both classes occur; or None without labels.
    """
    spec = spec_for(model)
    y = np.zeros(fm.n_rows, dtype=np.int64) if labels is None else labels
    T = window_length(spec, getattr(model, "sequence_length", None))
    data = model_inputs(spec, scaler, fm, y, T)
    classes, scores = spec.score(model, data.inputs)
    if labels is None:
        return data, classes, scores, None
    report = compute_metrics(data.y, classes).to_dict()
    if len(np.unique(data.y, return_counts=True)[0]) == 2:  # as in stratified_cap
        points, report["auc"] = roc_auc(data.y, scores)
        report["roc_points"] = [[float(a), float(b)] for a, b in points]
    return data, classes, scores, report


@dataclass(frozen=True)
class RunResult:
    report: dict
    model: object
    scaler: object
    fit_patients: list  # sorted patients of the train and validation rows


def _balance_by_duplication(X, y: np.ndarray):
    """Duplicate minority windows cyclically until the classes are even.

    X is anything indexed by an index array (Windows duplicate indices, not rows).
    """
    y = np.asarray(y)
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2 or counts.min() == counts.max():
        return X, y
    minority = classes[np.argmin(counts)]
    idx = np.flatnonzero(y == minority)
    need = int(counts.max() - counts.min())
    extra = np.tile(idx, math.ceil(need / len(idx)))[:need]
    keep = np.concatenate([np.arange(len(y)), extra])
    return X[keep], y[keep]


def evaluate_split(
    fm: FeatureMatrix,
    labels: np.ndarray,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    cfg: PipelineConfig,
    val_idx: np.ndarray | None = None,
) -> RunResult:
    """Scale, oversample, fit, and score one train/test assignment.

    Row indices select from fm/labels. The patient-disjointness gate runs
    on row metadata unless cfg.allow_leaky_split (holdout_split's row split).
    """
    labels = np.asarray(labels)
    if not cfg.allow_leaky_split:
        assert_patient_disjoint(fm.patients[train_idx], fm.patients[test_idx])
        if val_idx is not None and len(val_idx):
            assert_patient_disjoint(fm.patients[train_idx], fm.patients[val_idx])
            assert_patient_disjoint(fm.patients[val_idx], fm.patients[test_idx])

    spec = cfg.spec
    train_fm = fm.take(train_idx)
    scaler = fit_scaler(train_fm)
    T = cfg.sequence_length
    train = model_inputs(spec, scaler, train_fm, labels[train_idx], T)
    X_tr, y_tr = train.inputs, train.y
    del train_fm, train  # the unscaled rows, and the scaled ones a cap leaves behind

    cap = cfg.max_train_rows if cfg.max_train_rows is not None else spec.train_cap
    if cap is not None and len(X_tr) > cap:
        keep = stratified_cap(y_tr, cap, cfg.seed)
        X_tr, y_tr = X_tr[keep], y_tr[keep]

    val = None
    if val_idx is not None and len(val_idx):
        held_out = model_inputs(spec, scaler, fm.take(val_idx), labels[val_idx], T)
        val = (held_out.inputs, held_out.y) if len(held_out) else None

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        n_synth = 0
        if cfg.use_smote:
            smote_cfg = SmoteConfig(
                k_neighbors=cfg.smote_k, target_ratio=cfg.smote_ratio, seed=cfg.seed
            )
            X_tr, y_tr, synth_mask = smote(X_tr, y_tr, smote_cfg)
            n_synth = int(synth_mask.sum())

        if spec.sequential:
            if len(X_tr) == 0:
                raise DataError("no training sequences; files shorter than T?")
            X_tr, y_tr = _balance_by_duplication(X_tr, y_tr)
            counts = {"n_train_sequences": int(len(X_tr))}
        else:
            counts = {"n_train_rows_used": int(len(X_tr)), "n_synthetic_train_rows": n_synth}
        model, fit_report = spec.fit(X_tr, y_tr, cfg.params, cfg.seed, val)
    test, _, _, report = score_features(model, scaler, fm.take(test_idx), labels[test_idx])
    if spec.sequential:
        counts["n_test_sequences"] = int(len(test))

    report.update(
        n_train_rows=int(len(train_idx)),
        n_val_rows=int(len(val_idx)) if val_idx is not None else 0,
        n_test_rows=int(len(test_idx)),
    )
    report.update(counts)
    report.update(fit_report)
    notes = [str(w.message) for w in caught]
    if notes:
        report["warnings"] = notes
    fit_rows = train_idx if val_idx is None else np.concatenate([train_idx, val_idx])
    return RunResult(report, model, scaler, sorted(set(map(str, fm.patients[fit_rows]))))


def holdout_split(
    fm: FeatureMatrix, cfg: PipelineConfig, explicit=None
) -> tuple[dict, dict]:
    """Row indices of each side of a holdout split, and its report entry.

    explicit is a (train, val, test) tuple of patient lists, each of which
    must be in the data; without it, split_patients draws the groups from
    split_ratios and the seed, or allow_leaky_split splits the rows at
    random. A split with no test rows is a DataError, raised before any fit;
    patient lists with allow_leaky_split are a ConfigError.
    """
    sides = ("train", "val", "test")
    if explicit is not None and cfg.allow_leaky_split:
        raise ConfigError("allow_leaky_split given with patient lists: the lists fix the split")
    if cfg.allow_leaky_split:
        # A row-level split that ignores patients; only for the optimism demo.
        order = np.random.default_rng(cfg.seed).permutation(fm.n_rows)
        n_train, n_val = (math.floor(r * fm.n_rows + 0.5) for r in cfg.split_ratios[:2])
        parts = np.split(order, [n_train, n_train + n_val])
        rows = {side: np.sort(part) for side, part in zip(sides, parts)}
        entry = {"leaky_row_level": True, "seed": cfg.seed}
    else:
        if explicit is None:
            plan = split_patients(
                sorted(set(fm.patients)), ratios=cfg.split_ratios, seed=cfg.seed
            )
            groups = (plan.train_patients, plan.val_patients, plan.test_patients)
            entry = {"seed": plan.seed}
        else:
            groups = explicit
            entry = {"explicit": True}
            present = set(map(str, fm.patients))
            for side, group in zip(sides, groups):
                missing = sorted(set(group) - present)
                if missing:
                    raise DataError(f"{side}_patients not in dataset: {missing}")
        rows = {}
        for side, group in zip(sides, groups):
            rows[side] = np.flatnonzero(np.isin(fm.patients, group))
            entry[f"{side}_patients"] = list(group)
    if len(rows["test"]) == 0:
        raise DataError("evaluation split has no test rows")
    return rows, entry


def run_holdout(
    fm: FeatureMatrix, labels: np.ndarray, cfg: PipelineConfig, explicit=None
) -> RunResult:
    """Holdout on holdout_split's rows; the leakage gate is skipped only
    for the leaky row split."""
    rows, entry = holdout_split(fm, cfg, explicit)
    result = evaluate_split(fm, labels, rows["train"], rows["test"], cfg, val_idx=rows["val"])
    result.report["split"] = entry
    return result


def run_eval(
    fm: FeatureMatrix,
    labels: np.ndarray,
    model,
    scaler: Scaler,
    fit_patients,
    cfg: PipelineConfig,
    explicit=None,
    model_file=None,
) -> dict:
    """The report of a trained model, as load_model returns it (model,
    scaler, fit_patients), scored on the test rows of holdout_split's split.

    The leakage gate has two parts: the split's train and test patients
    must be disjoint, and no test patient may be among fit_patients, the
    patients that helped fit the model (in model_file, which the message
    names). The rows are scored before the second part, so that a file of
    another feature layout is a DataError, not a name clash.
    """
    if cfg.allow_leaky_split:
        raise ConfigError("eval does not support the leaky split")
    rows, split = holdout_split(fm, cfg, explicit)
    test_idx = rows["test"]
    assert_patient_disjoint(fm.patients[rows["train"]], fm.patients[test_idx])
    data, _, _, report = score_features(model, scaler, fm.take(test_idx), labels[test_idx])
    fitted_on = sorted(set(fit_patients) & set(map(str, fm.patients[test_idx])))
    if fitted_on:
        where = f" in {model_file}" if model_file else ""
        raise LeakageError(f"test patient(s) {fitted_on} helped fit the model{where}")
    report["n_test_rows"] = int(len(data))
    report["test_patients"] = split["test_patients"]
    return report


# The metrics run_cv summarizes over the folds, in the order folds.csv lists them.
FOLD_METRICS = ("accuracy", "precision", "recall", "f1", "auc")


def run_cv(
    fm: FeatureMatrix, labels: np.ndarray, cfg: PipelineConfig, k: int = 5
) -> dict:
    """Patient-wise k-fold CV: per-fold reports, the mean/std summary of
    each of FOLD_METRICS, and that summary as text (`formatted`): a
    percentage, or the AUC to four places."""
    if cfg.allow_leaky_split:
        raise ConfigError("cross-validation does not support the leaky split")
    folds = kfold_patients(sorted(set(fm.patients)), k=k, seed=cfg.seed)
    fold_reports = []
    for i, (train_p, test_p) in enumerate(folds):
        train_idx = np.flatnonzero(np.isin(fm.patients, train_p))
        test_idx = np.flatnonzero(np.isin(fm.patients, test_p))
        result = evaluate_split(fm, labels, train_idx, test_idx, cfg)
        report = dict(result.report)
        report["fold"] = i
        report["test_patients"] = list(test_p)
        fold_reports.append(report)
    summary = summarize_folds([{m: r[m] for m in FOLD_METRICS if m in r} for r in fold_reports])
    formatted = {
        name: (
            f"{stats['mean'] * 100:.2f}% (±{stats['std'] * 100:.2f}%)"
            if name != "auc"
            else f"{stats['mean']:.4f} (±{stats['std']:.4f})"
        )
        for name, stats in summary.items()
    }
    return {"folds": fold_reports, "summary": summary, "formatted": formatted, "k": k, "seed": cfg.seed}
