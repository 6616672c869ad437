"""The CLI option table: each command takes exactly the config keys of its
OPTIONS entry, each of the type the table gives, and a bad value ends in
one error line with exit 1, never in a traceback or an ignored option."""

import ast
import json

import pytest

from seizurekit.cli import FLAG_ONLY, OPTIONS, main


def _settable(command):
    return sorted(k for k, (kind, *_) in OPTIONS[command].items() if kind is not FLAG_ONLY)


_FILE_FLAGS = {
    "train": ["--features"],
    "cv": ["--features"],
    "eval": ["--features", "--model"],
    "predict": ["--features", "--model"],
}


def _argv(tmp_path, command, config, out="out"):
    """A command line whose input files do not exist: options are resolved
    before any file but the config is read."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / out)]
    for flag in _FILE_FLAGS.get(command, ()):
        argv += [flag, str(tmp_path / "missing")]
    return argv


def _one_error_line(err: str, prefix: str = "error:") -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), err
    return lines[0]


def _wrong_value(kind):
    return {str: 1, list[str]: [1], list[float]: ["a"]}.get(kind, "x")


@pytest.mark.parametrize(
    "command, key, kind",
    [(c, k, kind) for c, table in OPTIONS.items() for k, (kind, *_) in table.items()],
)
def test_a_config_value_of_the_wrong_type_exits_1(tmp_path, capsys, command, key, kind):
    assert main(_argv(tmp_path, command, {key: _wrong_value(kind)})) == 1
    assert key in _one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_a_key_only_another_command_takes_is_rejected(tmp_path, capsys, command):
    others = set().union(*(_settable(c) for c in OPTIONS)) - set(_settable(command))
    assert others
    for key in sorted(others):
        assert main(_argv(tmp_path, command, {key: None})) == 1
        line = _one_error_line(capsys.readouterr().err)
        assert repr(key) in line
        assert ast.literal_eval(line.split("allowed: ", 1)[1]) == _settable(command)


def test_a_bool_is_not_a_number_and_an_int_for_a_float_is_stored_as_one(tmp_path, capsys):
    assert main(_argv(tmp_path, "synth", {"patients": True})) == 1
    assert "patients" in _one_error_line(capsys.readouterr().err)
    cfg = {"patients": 3, "epochs_per_patient": 20, "channels": 1, "separation": 0}
    assert main(_argv(tmp_path, "synth", cfg, out="ok")) == 0
    manifest = (tmp_path / "ok" / "manifest.json").read_text(encoding="utf-8")
    assert '"separation": 0.0' in manifest


# ---------------------------------------------------------------- inputs that used to fail badly


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A 6-patient x 60-epoch x 3-channel feature CSV and an rf model trained on it."""
    root = tmp_path_factory.mktemp("options")
    assert main([
        "synth", "--patients", "6", "--epochs-per-patient", "60", "--channels", "3",
        "--seed", "0", "--out", str(root / "data"),
    ]) == 0
    cfg = root / "rf.json"
    cfg.write_text(json.dumps({"model": "rf", "model_params": {"n_trees": 3}}), encoding="utf-8")
    features = root / "data" / "features.csv"
    assert main([
        "train", "--features", str(features), "--config", str(cfg), "--out", str(root / "rf"),
    ]) == 0
    return root, features


def _run(runs, tmp_path, command, config=None, flags=()):
    root, features = runs
    argv = [command, "--features", str(features), "--out", str(tmp_path / "out"), *flags]
    if command in ("eval", "predict"):
        argv += ["--model", str(root / "rf" / "model.json")]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(cfg)]
    return main(argv)


@pytest.mark.parametrize(
    "command, config, named",
    [
        # Each of these used to end in a traceback.
        ("train", {"model": "knn", "model_params": {"k": "abc"}}, "k"),
        ("train", {"model": "rf", "model_params": {"max_depth": "x"}}, "max_depth"),
        ("train", {"smote": True, "smote_k": "x"}, "smote_k"),
        ("train", {"split_ratios": [0.5, "a", 0.25]}, "split_ratios"),
        ("train", {"max_train_rows": "x"}, "max_train_rows"),
        # Each of these used to be accepted and ignored.
        ("train", {"k": 3}, "'k'"),
        ("cv", {"train_patients": ["P01"]}, "train_patients"),
        ("cv", {"val_patients": ["P01"]}, "val_patients"),
        ("cv", {"test_patients": ["P01"]}, "test_patients"),
        ("predict", {"sequence_length": 3}, "sequence_length"),
    ],
)
def test_rejected_config(runs, tmp_path, capsys, command, config, named):
    assert _run(runs, tmp_path, command, config) == 1
    assert named in _one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, key, config",
    [
        ("synth", "prevalence", {"prevalence": 10**400}),
        ("train", "smote_ratio", {"smote": True, "smote_ratio": 10**400}),
        ("train", "split_ratios", {"split_ratios": [0.5, 10**400, 0.25]}),
    ],
)
def test_an_int_too_large_for_a_float_exits_1(tmp_path, capsys, command, key, config):
    assert main(_argv(tmp_path, command, config)) == 1
    assert _one_error_line(capsys.readouterr().err).startswith(f"error: {key} must be ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config, flags",
    [({}, ["--horizon", "60"]), ({"horizon_s": 60}, []), ({"task": "detection", "horizon_s": 300}, [])],
)
def test_a_horizon_given_with_the_detection_task_exits_1(tmp_path, capsys, config, flags):
    # The EDF directory does not exist: reading it would exit 2.
    config = {"edf_dir": str(tmp_path / "missing"), **config}
    assert main([*_argv(tmp_path, "ingest", config), *flags]) == 1
    assert "horizon_s" in _one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_synth_rejects_a_patient_count_that_is_not_an_int(tmp_path, capsys):
    assert main(_argv(tmp_path, "synth", {"patients": "x"})) == 1
    assert "patients" in _one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("flag", ["--smote", "--no-smote", "--allow-leaky-split"])
def test_eval_has_no_training_flags(runs, tmp_path, capsys, flag):
    assert _run(runs, tmp_path, "eval", flags=[flag]) == 1
    assert flag in _one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["{not json", '{"mean": [1]}', '{"mean": "a", "std": "b"}'])
def test_predict_rejects_a_malformed_scaler_file(runs, tmp_path, capsys, text):
    scaler = tmp_path / "scaler.json"
    scaler.write_text(text, encoding="utf-8")
    assert _run(runs, tmp_path, "predict", flags=["--scaler", str(scaler)]) == 2
    assert "scaler" in _one_error_line(capsys.readouterr().err, "data error:")


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_a_model_file_number_that_is_not_finite_exits_2(runs, tmp_path, capsys, command, value):
    root, features = runs
    doc = json.loads((root / "rf" / "model.json").read_text(encoding="utf-8"))
    doc["params"]["trees"][0]["threshold"] = value  # json writes NaN and Infinity
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, "--features", str(features), "--model", str(model), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    line = _one_error_line(capsys.readouterr().err, "data error:")
    assert line == f"data error: {model}: rf trees contains non-finite values"
    assert not (tmp_path / "out").exists()


def test_train_records_explicit_patient_lists_in_its_manifest(runs, tmp_path):
    split = {"train_patients": ["P01", "P02", "P03"], "val_patients": ["P04"],
             "test_patients": ["P05", "P06"]}
    assert _run(runs, tmp_path, "train", {"model": "constant", **split}) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert {k: manifest["config"][k] for k in split} == split


def test_no_smote_flag_wins_over_the_config_file(runs, tmp_path):
    config = {"smote": True, "model_params": {"max_iters": 20}}
    assert _run(runs, tmp_path, "train", config, flags=["--no-smote"]) == 0
    out = tmp_path / "out"
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"]["smote"] is False
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["n_synthetic_train_rows"] == 0


@pytest.mark.parametrize(
    "command, config, named",
    [
        ("train", {"model": "rf", "sequence_length": 3}, "sequence_length"),
        ("cv", {"model": "logreg", "sequence_length": 3}, "sequence_length"),
        ("eval", {"sequence_length": 3}, "sequence_length"),
        ("train", {"model": "logreg", "smote_k": 3}, "smote_k"),
        ("cv", {"smote": False, "smote_ratio": 0.5}, "smote_ratio"),
        # eval scores the fitted model: only the decision threshold applies.
        ("eval", {"model_params": {"n_trees": 3}}, "n_trees"),
    ],
)
def test_an_option_the_run_would_not_use_is_rejected(runs, tmp_path, capsys, command, config, named):
    assert _run(runs, tmp_path, command, config) == 1
    assert named in _one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_smote_options_given_with_smote_are_used(runs, tmp_path):
    config = {"smote": True, "smote_k": 3, "smote_ratio": 0.5, "model_params": {"max_iters": 20}}
    assert _run(runs, tmp_path, "train", config) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["smote_k"] == 3 and manifest["config"]["smote_ratio"] == 0.5


@pytest.mark.parametrize(
    "weights",
    [
        {"1": "x"}, {"1": True}, {"2": 1.0}, {"one": 1.0}, {"1": float("nan")}, "bananas", 3, ["a"],
        {"0": 0, "1": 0}, {"1": -5}, {"1": 0.0},
    ],
)
def test_malformed_class_weights_exit_1_before_any_data_is_read(tmp_path, capsys, weights):
    config = {"model": "logreg", "model_params": {"class_weights": weights}}
    # The features file does not exist: reading it would exit 2.
    assert main(_argv(tmp_path, "train", config)) == 1
    assert "class_weights" in _one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "command, flags",
    [("train", []), ("train", ["--allow-leaky-split"]), ("eval", [])],
)
def test_a_split_with_no_test_rows_is_a_data_error_before_any_fit(runs, tmp_path, capsys, command, flags):
    # After a fit, the empty test split would fail as "cannot compute metrics on empty input".
    assert _run(runs, tmp_path, command, {"split_ratios": [1.0, 0.0, 0.0]}, flags) == 2
    line = _one_error_line(capsys.readouterr().err, "data error:")
    assert line.endswith("evaluation split has no test rows")
    assert not (tmp_path / "out").exists()
