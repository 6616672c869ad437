"""Pipeline ordering, leakage gate, row caps, and CV orchestration."""

import warnings

import numpy as np
import pytest

from seizurekit import (
    ConfigError,
    FeatureMatrix,
    LeakageError,
    PipelineConfig,
    SynthConfig,
    evaluate_split,
    generate_synthetic,
    run_cv,
    run_eval,
    run_holdout,
)
from seizurekit.pipeline import (
    DEFAULT_SVM_TRAIN_CAP,
    resolve_class_weights,
    stratified_cap,
)


SMALL = SynthConfig(n_patients=8, epochs_per_patient=250, n_channels=3, seed=0)


@pytest.fixture(scope="module")
def small_data():
    return generate_synthetic(SMALL)


def config(**kw):
    return PipelineConfig(**{"model": "logreg", "model_params": {"max_iters": 100}, **kw})


def test_holdout_report_shape(small_data):
    fm, y = small_data
    result = run_holdout(fm, y, config())
    r = result.report
    for key in ("accuracy", "precision", "recall", "f1", "tp", "fp", "tn", "fn",
                "auc", "roc_points", "n_train_rows", "n_test_rows"):
        assert key in r
    split = r["split"]
    assert len(split["train_patients"]) == 4
    assert len(split["val_patients"]) == 2
    assert len(split["test_patients"]) == 2
    assert not set(split["train_patients"]) & set(split["test_patients"])


def test_scaler_fitted_on_train_rows_only(small_data):
    fm, y = small_data
    result = run_holdout(fm, y, config())
    train_rows = np.isin(fm.patients, result.report["split"]["train_patients"])
    assert np.array_equal(result.scaler.mean, fm.values[train_rows].mean(axis=0))
    assert np.array_equal(result.scaler.std, fm.values[train_rows].std(axis=0))


def test_scaler_unmoved_by_test_row_tampering(small_data):
    fm, y = small_data
    base = run_holdout(fm, y, config())
    test_rows = np.isin(fm.patients, base.report["split"]["test_patients"])
    tampered_values = fm.values.copy()
    tampered_values[test_rows] += 1000.0
    tampered = FeatureMatrix(
        values=tampered_values, patients=fm.patients, files=fm.files, starts=fm.starts
    )
    redo = run_holdout(tampered, y, config())
    assert np.array_equal(base.scaler.mean, redo.scaler.mean)
    assert np.array_equal(base.scaler.std, redo.scaler.std)


def test_gate_rejects_contaminated_explicit_split(small_data):
    fm, y = small_data
    patients = sorted(set(fm.patients))
    train_idx = np.flatnonzero(np.isin(fm.patients, patients[:4]))
    # test set shares patients[3] with train
    test_idx = np.flatnonzero(np.isin(fm.patients, patients[3:5]))
    with pytest.raises(LeakageError, match=patients[3]):
        evaluate_split(fm, y, train_idx, test_idx, config())


def test_gate_checks_validation_side_too(small_data):
    fm, y = small_data
    patients = sorted(set(fm.patients))
    train_idx = np.flatnonzero(np.isin(fm.patients, patients[:4]))
    test_idx = np.flatnonzero(np.isin(fm.patients, patients[4:6]))
    bad_val = np.flatnonzero(np.isin(fm.patients, patients[3:4]))
    with pytest.raises(LeakageError):
        evaluate_split(fm, y, train_idx, test_idx, config(), val_idx=bad_val)


def test_smote_applies_to_training_rows_only(small_data):
    fm, y = small_data
    plain = run_holdout(fm, y, config())
    yes = run_holdout(fm, y, config(use_smote=True))
    assert yes.report["n_synthetic_train_rows"] > 0
    assert plain.report["n_synthetic_train_rows"] == 0
    # test side is untouched: same rows scored either way
    assert yes.report["n_test_rows"] == plain.report["n_test_rows"]
    assert yes.report["tp"] + yes.report["fn"] == plain.report["tp"] + plain.report["fn"]


def test_smote_raises_recall(small_data):
    fm, y = small_data
    params = {"learning_rate": 0.5, "max_iters": 150}
    plain = run_holdout(fm, y, config(model_params=params))
    yes = run_holdout(fm, y, config(model_params=params, use_smote=True))
    assert yes.report["recall"] > plain.report["recall"]


def test_leaky_split_is_more_optimistic_on_default_data():
    # patient offsets reward a model that sees every patient in training,
    # so the row-level split scores at least as high on AUC
    fm, y = generate_synthetic(SynthConfig())
    params = {"learning_rate": 0.5, "max_iters": 150}
    honest = run_holdout(fm, y, config(model_params=params, use_smote=True))
    leaky = run_holdout(
        fm, y, config(model_params=params, use_smote=True, allow_leaky_split=True)
    )
    assert leaky.report["split"] == {"leaky_row_level": True, "seed": 0}
    assert leaky.report["auc"] >= honest.report["auc"]


def test_svm_train_cap_defaults_to_3000(small_data):
    fm, y = small_data
    result = run_holdout(
        fm, y, PipelineConfig(model="svm", model_params={"C": 0.1, "max_passes": 5})
    )
    assert result.report["n_train_rows_used"] <= DEFAULT_SVM_TRAIN_CAP


def test_explicit_row_cap_subsamples_train(small_data):
    fm, y = small_data
    result = run_holdout(fm, y, config(max_train_rows=300))
    assert result.report["n_train_rows"] == 1000  # 4 patients x 250 epochs
    # per-class floor quotas keep the subsample at or just under the cap
    assert 295 <= result.report["n_train_rows_used"] <= 300


def test_stratified_cap_preserves_ratio_and_determinism():
    y = np.array([0] * 90 + [1] * 10)
    a = stratified_cap(y, 50, seed=1)
    b = stratified_cap(y, 50, seed=1)
    assert np.array_equal(a, b)
    assert len(a) <= 50
    kept = y[a]
    assert (kept == 1).sum() == 5  # floor(50 * 10/100)
    assert np.array_equal(stratified_cap(y, 200, seed=1), np.arange(100))


def test_resolve_class_weights_forms():
    y = np.array([0, 0, 0, 1])
    assert resolve_class_weights(None, y) is None
    assert resolve_class_weights({"0": 1, "1": 2.5}, y) == {0: 1.0, 1: 2.5}
    bal = resolve_class_weights("balanced", y)
    assert bal[0] == pytest.approx(4 / 6) and bal[1] == pytest.approx(4 / 2)
    with pytest.raises(ConfigError):
        resolve_class_weights("bananas", y)


def test_constant_model_baseline(small_data):
    fm, y = small_data
    result = run_holdout(fm, y, PipelineConfig(model="constant"))
    r = result.report
    assert r["recall"] == 0.0
    assert r["accuracy"] == pytest.approx(1.0 - y[np.isin(fm.patients, r["split"]["test_patients"])].mean())
    assert "precision" in r.get("undefined", [])


def test_lstm_pipeline_runs(small_data):
    fm, y = small_data
    cfg = PipelineConfig(
        model="lstm",
        model_params={"hidden_dim": 8, "epochs": 2, "batch_size": 64, "learning_rate": 0.1},
        sequence_length=5,
    )
    result = run_holdout(fm, y, cfg)
    r = result.report
    assert r["n_test_sequences"] == r["tp"] + r["fp"] + r["tn"] + r["fn"]
    # each patient contributes one file of 250 epochs: 246 windows at T=5
    assert r["n_test_sequences"] == 2 * 246
    assert r["epochs_run"] == 2


def test_lstm_report_shows_its_convergence(small_data):
    fm, y = small_data
    cfg = PipelineConfig(
        model="lstm",
        model_params={"hidden_dim": 4, "epochs": 3, "batch_size": 64, "learning_rate": 0.1},
        sequence_length=5,
    )
    r = run_holdout(fm, y, cfg).report
    assert len(r["train_loss"]) == len(r["val_loss"]) == r["epochs_run"] == 3
    assert 0 <= r["best_epoch"] <= 3
    if r["best_epoch"]:
        assert r["val_loss"][r["best_epoch"] - 1] == min(r["val_loss"])


def test_logreg_that_does_not_converge_says_so_in_the_report(small_data):
    fm, y = small_data
    capped = run_holdout(fm, y, config(model_params={"max_iters": 5})).report
    assert any("did not converge within 5 iterations" in w for w in capped["warnings"])


def test_logreg_and_svm_reports_give_iterations_and_convergence(small_data):
    fm, y = small_data
    for cfg in (config(model_params={"max_iters": 5}), config(model="svm", model_params={"C": 1.0})):
        result = run_holdout(fm, y, cfg)
        assert result.report["n_iters"] == result.model.n_iters > 0
        assert result.report["converged"] is result.model.converged


def test_unknown_model_and_params_rejected():
    with pytest.raises(ConfigError):
        PipelineConfig(model="mlp")
    with pytest.raises(ConfigError):
        PipelineConfig(model="logreg", model_params={"n_trees": 5})
    with pytest.raises(ConfigError):
        PipelineConfig(sequence_length=0)
    with pytest.raises(ConfigError):
        PipelineConfig(max_train_rows=1)


def test_cv_folds_partition_patients(small_data):
    fm, y = small_data
    out = run_cv(fm, y, config(), k=4)
    assert out["k"] == 4
    assert len(out["folds"]) == 4
    seen = [p for r in out["folds"] for p in r["test_patients"]]
    assert sorted(seen) == sorted(set(fm.patients))
    accs = [r["accuracy"] for r in out["folds"]]
    assert out["summary"]["accuracy"]["mean"] == pytest.approx(np.mean(accs))
    assert out["summary"]["accuracy"]["std"] == pytest.approx(np.std(accs, ddof=1))
    for r in out["folds"]:
        assert "fold" in r and "auc" in r


def test_run_eval_scores_a_trained_model_on_its_own_test_split(small_data):
    fm, y = small_data
    result = run_holdout(fm, y, config())
    report = run_eval(fm, y, result.model, result.scaler, result.fit_patients, config())
    assert report["test_patients"] == result.report["split"]["test_patients"]
    for key in ("accuracy", "recall", "auc", "n_test_rows"):
        assert report[key] == result.report[key]


def test_run_eval_gates_leakage_without_the_cli(small_data):
    fm, y = small_data
    result = run_holdout(fm, y, config())
    trained = (result.model, result.scaler, result.fit_patients)
    fitted, tested = result.fit_patients[0], result.report["split"]["test_patients"]
    # A test patient helped fit the model.
    with pytest.raises(LeakageError, match=rf"\['{fitted}'\] helped fit the model in m.json"):
        run_eval(fm, y, *trained, config(), explicit=((), (), (fitted,)), model_file="m.json")
    # An explicit split puts one patient on both sides.
    both = ((tested[0],), (), tuple(tested))
    with pytest.raises(LeakageError, match=rf"\['{tested[0]}'\] appear in both train and test"):
        run_eval(fm, y, *trained, config(), explicit=both)
    with pytest.raises(ConfigError, match="leaky split"):
        run_eval(fm, y, *trained, config(allow_leaky_split=True))


def test_cv_rejects_leaky_mode(small_data):
    fm, y = small_data
    with pytest.raises(ConfigError):
        run_cv(fm, y, config(allow_leaky_split=True), k=3)


def test_holdout_refuses_patient_lists_with_the_leaky_split(small_data):
    """The lists fix a patient split, so the row-level switch cannot also apply."""
    fm, y = small_data
    patients = sorted(set(fm.patients))
    lists = (tuple(patients[:4]), tuple(patients[4:6]), tuple(patients[6:]))
    with pytest.raises(ConfigError, match="allow_leaky_split given with patient lists"):
        run_holdout(fm, y, config(allow_leaky_split=True), lists)


def test_smote_clamp_warning_reaches_the_report(small_data):
    fm, y = small_data
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning that escapes the report fails the test
        r = run_holdout(fm, y, config(use_smote=True, smote_k=10_000)).report
    clamps = [w for w in r["warnings"] if "clamping" in w]
    assert len(clamps) == 1 and clamps[0].startswith("k_neighbors=10000 >= minority count")
