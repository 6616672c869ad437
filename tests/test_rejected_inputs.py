"""Options and values that used to be ignored or accepted and now fail
with a ConfigError (exit 1), a DataError (exit 2) or a ValueError."""

import datetime
import json

import numpy as np
import pytest

from seizurekit import Recording
from seizurekit.cli import main

from tests.test_edf import make_channel


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A small feature CSV plus an rf and a logreg model trained on it."""
    root = tmp_path_factory.mktemp("runs")
    assert main([
        "synth", "--patients", "6", "--epochs-per-patient", "60", "--channels", "2",
        "--seed", "0", "--out", str(root / "data"),
    ]) == 0
    features = root / "data" / "features.csv"
    for name, params in (("rf", {"n_trees": 3, "max_depth": 3}), ("logreg", {"max_iters": 30})):
        cfg = root / f"{name}.json"
        cfg.write_text(json.dumps({"model": name, "model_params": params}), encoding="utf-8")
        assert main([
            "train", "--features", str(features), "--config", str(cfg),
            "--out", str(root / name),
        ]) == 0
    return root, features


def _config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _eval(runs, tmp_path, model, config=None):
    root, features = runs
    argv = [
        "eval", "--features", str(features), "--model", str(root / model / "model.json"),
        "--out", str(tmp_path / "eval"),
    ]
    if config is not None:
        argv += ["--config", _config(tmp_path, config)]
    return main(argv)


def test_eval_records_the_model_files_type(runs, tmp_path):
    assert _eval(runs, tmp_path, "rf") == 0
    manifest = json.loads((tmp_path / "eval" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["model"] == "rf"


def test_eval_checks_params_against_the_model_files_type(runs, tmp_path, capsys):
    assert _eval(runs, tmp_path, "rf", {"model_params": {"threshold": 0.0}}) == 1
    assert "threshold" in capsys.readouterr().err
    assert _eval(runs, tmp_path, "logreg", {"model_params": {"threshold": 0.0}}) == 0


def test_eval_rejects_a_config_model_that_disagrees_with_the_file(runs, tmp_path, capsys):
    assert _eval(runs, tmp_path, "rf", {"model": "logreg"}) == 1
    assert "does not match" in capsys.readouterr().err
    assert _eval(runs, tmp_path, "rf", {"model": "rf"}) == 0


@pytest.mark.parametrize("via_config", [False, True])
def test_predict_threshold_needs_a_thresholded_model(runs, tmp_path, capsys, via_config):
    root, features = runs

    def predict(model):
        argv = [
            "predict", "--features", str(features), "--model", str(root / model / "model.json"),
            "--out", str(tmp_path / model),
        ]
        if via_config:
            return main(argv + ["--config", _config(tmp_path, {"threshold": 0.0})])
        return main(argv + ["--threshold", "0.0"])

    assert predict("rf") == 1
    assert "threshold" in capsys.readouterr().err
    assert not (tmp_path / "rf" / "predictions.csv").exists()
    assert predict("logreg") == 0


@pytest.mark.parametrize(
    "flags, config",
    [(["--smote"], {}), ([], {"smote": True}), ([], {"max_train_rows": 50})],
)
@pytest.mark.parametrize("command", ["train", "cv"])
def test_lstm_rejects_smote_and_row_cap(runs, tmp_path, capsys, command, flags, config):
    _, features = runs
    argv = [
        command, "--features", str(features), "--out", str(tmp_path / "out"),
        "--config", _config(tmp_path, {"model": "lstm", **config}), *flags,
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "lstm" in err and ("smote" in err or "max_train_rows" in err)


@pytest.mark.parametrize("params", ['{"gamma": 1e400}', '{"tol": -1}'])
def test_svm_gamma_or_tol_out_of_range_exits_1(runs, tmp_path, capsys, params):
    _, features = runs
    cfg = tmp_path / "svm.json"
    cfg.write_text('{"model": "svm", "model_params": %s}' % params, encoding="utf-8")
    argv = ["train", "--features", str(features), "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "must be a finite number > 0" in capsys.readouterr().err


def test_lstm_rejects_the_leaky_row_split(runs, tmp_path, capsys):
    # A row-level split scatters each file's epochs, so every window would
    # be cut at the rows sent to the other splits.
    _, features = runs
    out = tmp_path / "out"
    argv = [
        "train", "--features", str(features), "--model", "lstm", "--allow-leaky-split",
        "--config", _config(tmp_path, {"model_params": {"hidden_dim": 2, "epochs": 1}}),
        "--out", str(out),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "lstm" in err and "allow_leaky_split" in err
    assert not out.exists()


def test_ingest_checks_highpass_before_reading_any_file(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.edf").write_bytes(b"not an EDF file")
    rc = main(["ingest", "--edf-dir", str(src), "--highpass", "nan", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "highpass" in capsys.readouterr().err


@pytest.mark.parametrize("duration", [0.0, -1.0, float("nan"), float("inf")])
def test_recording_rejects_bad_record_duration(duration):
    with pytest.raises(ValueError, match="record_duration_s"):
        Recording(
            patient_id="chb01",
            start_datetime=datetime.datetime(2002, 3, 4, 5, 6, 7),
            record_duration_s=duration,
            num_records=2,
            channels=(make_channel(label="EEG C0", spr=4),),
            signals=(np.zeros(8),),
        )


def _edited_features(runs, tmp_path, line_no, edit):
    """A copy of the run's feature CSV with line `line_no` (1-based) edited."""
    _, features = runs
    lines = features.read_bytes().split(b"\n")
    lines[line_no - 1] = edit(lines[line_no - 1])
    path = tmp_path / "features.csv"
    path.write_bytes(b"\n".join(lines))
    return path


@pytest.mark.parametrize("label", [b"7", b"-1"])
def test_train_refuses_a_label_outside_0_and_1(runs, tmp_path, capsys, label):
    def relabel(line):
        cells = line.split(b",")
        cells[3] = label
        return b",".join(cells)

    # line 242 is a row of P05, which the default split does not train on
    path = _edited_features(runs, tmp_path, 242, relabel)
    argv = [
        "train", "--features", str(path), "--config", _config(tmp_path, {"model": "logreg"}),
        "--out", str(tmp_path / "out"),
    ]
    assert main(argv) == 2
    assert f"{path}:242: label '{label.decode()}'" in capsys.readouterr().err


def test_train_refuses_a_feature_file_that_is_not_utf8(runs, tmp_path, capsys):
    path = _edited_features(runs, tmp_path, 100, lambda line: b"P\xe9" + line)
    argv = ["train", "--features", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"{path}:100: not UTF-8" in capsys.readouterr().err
