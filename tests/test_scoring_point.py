"""The model file records the decision threshold it was trained at, and
`eval` and `predict` score at it; explicit patient lists refuse the options
that would choose another split."""

import json

import numpy as np
import pytest

from seizurekit.cli import main

# At seed 1 some test windows of this lstm score in [0.1, 0.5), so its threshold shows.
PARAMS = {"logreg": {"max_iters": 30}, "lstm": {"hidden_dim": 8, "epochs": 2}}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A small feature CSV, and a logreg and an lstm trained on it at threshold 0.1."""
    root = tmp_path_factory.mktemp("threshold")
    assert main([
        "synth", "--patients", "6", "--epochs-per-patient", "60", "--channels", "2",
        "--seed", "0", "--out", str(root / "data"),
    ]) == 0
    features = root / "data" / "features.csv"
    for name, params in PARAMS.items():
        cfg = root / f"{name}.json"
        doc = {"model": name, "model_params": {**params, "threshold": 0.1}}
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["train", "--features", str(features), "--config", str(cfg), "--seed", "1"]
        assert main([*argv, "--out", str(root / name)]) == 0
    return root, features


def _read(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _score(command, features, model, out, config=None, flags=()):
    argv = [command, "--features", str(features), "--model", str(model), "--seed", "1", *flags]
    if config is not None:
        path = out.parent / f"{out.name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    return main([*argv, "--out", str(out)])


def _predictions(out):
    """(scores, classes) of a predict run, and the threshold its manifest records."""
    lines = (out / "predictions.csv").read_text(encoding="utf-8").splitlines()[1:]
    scores = np.array([float(line.split(",")[3]) for line in lines])
    classes = np.array([int(line.split(",")[4]) for line in lines])
    return scores, classes, _read(out / "manifest.json")["config"]["threshold"]


def _without_threshold(runs, name, tmp_path):
    """A copy of name's model file that records no threshold."""
    doc = _read(runs[0] / name / "model.json")
    doc["config"].pop("threshold", None)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("name", list(PARAMS))
def test_eval_and_predict_score_at_the_trained_threshold(runs, tmp_path, name):
    root, features = runs
    model = root / name / "model.json"
    assert _read(model)["config"]["threshold"] == 0.1
    assert _score("eval", features, model, tmp_path / "eval") == 0
    metrics = _read(tmp_path / "eval" / "metrics.json")
    report = _read(root / name / "report.json")
    for key in ("tp", "fp", "tn", "fn", "accuracy", "recall", "auc"):
        assert metrics[key] == report[key], key

    assert _score("predict", features, model, tmp_path / "pred") == 0
    scores, classes, threshold = _predictions(tmp_path / "pred")
    assert threshold == 0.1
    assert np.array_equal(classes, (scores >= 0.1).astype(int))
    assert (scores < 0.5).any() and (scores >= 0.1).any()  # 0.1 and 0.5 give other classes


@pytest.mark.parametrize("name", list(PARAMS))
def test_a_threshold_given_overrides_the_recorded_one(runs, tmp_path, name):
    root, features = runs
    model = root / name / "model.json"
    assert _read(model)["config"]["threshold"] == 0.1
    assert _score("predict", features, model, tmp_path / "pred", flags=["--threshold", "0.7"]) == 0
    scores, classes, threshold = _predictions(tmp_path / "pred")
    assert threshold == 0.7
    assert np.array_equal(classes, (scores >= 0.7).astype(int))

    given = {"model_params": {"threshold": 0.5}}
    assert _score("eval", features, model, tmp_path / "given", given) == 0
    unrecorded = _without_threshold(runs, name, tmp_path)
    assert _score("eval", features, unrecorded, tmp_path / "bare") == 0
    metrics = _read(tmp_path / "given" / "metrics.json")
    assert metrics == _read(tmp_path / "bare" / "metrics.json")
    report = _read(root / name / "report.json")
    assert [metrics[k] for k in ("tp", "fp")] != [report[k] for k in ("tp", "fp")]


@pytest.mark.parametrize("name", list(PARAMS))
def test_a_file_without_a_threshold_scores_at_one_half(runs, tmp_path, name):
    _, features = runs
    model = _without_threshold(runs, name, tmp_path)
    assert _score("predict", features, model, tmp_path / "pred") == 0
    scores, classes, threshold = _predictions(tmp_path / "pred")
    assert threshold == 0.5
    assert np.array_equal(classes, (scores >= 0.5).astype(int))


@pytest.mark.parametrize("value", ["0.1", True, None, "1e400"])
@pytest.mark.parametrize("name", list(PARAMS))
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_a_recorded_threshold_that_is_not_a_finite_number_exits_2(
    runs, tmp_path, capsys, command, name, value
):
    _, features = runs
    model = _without_threshold(runs, name, tmp_path)
    text = model.read_text(encoding="utf-8")
    literal = value if value == "1e400" else json.dumps(value)  # 1e400 parses as inf
    model.write_text(text.replace('"config": {', f'"config": {{"threshold": {literal}, ', 1))
    assert _score(command, features, model, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {model}: malformed {name} model document")
    assert "threshold must be a finite number" in err
    assert not (tmp_path / "out").exists()


SPLIT = {"train_patients": ["P01", "P02", "P03"], "val_patients": ["P04"],
         "test_patients": ["P05", "P06"]}


@pytest.mark.parametrize(
    "command, config, flags, named",
    [
        ("train", {**SPLIT, "split_ratios": [0.5, 0.25, 0.25]}, [], "split_ratios"),
        ("eval", {**SPLIT, "split_ratios": [0.5, 0.25, 0.25]}, [], "split_ratios"),
        ("train", {"test_patients": ["P06"], "split_ratios": [0.6, 0.2, 0.2]}, [], "split_ratios"),
        ("train", SPLIT, ["--allow-leaky-split"], "allow_leaky_split"),
    ],
)
def test_explicit_patient_lists_refuse_other_split_options(
    runs, tmp_path, capsys, command, config, flags, named
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "logreg", **config}), encoding="utf-8")
    # The features file does not exist: reading it would exit 2.
    argv = [command, "--features", str(tmp_path / "missing.csv"), "--config", str(cfg), *flags]
    if command == "eval":
        argv += ["--model", str(runs[0] / "logreg" / "model.json")]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and named in err and "_patients" in err
    assert not (tmp_path / "out").exists()
