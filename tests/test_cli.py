"""End-to-end CLI runs: exit codes, output files, manifests, determinism."""

import datetime
import hashlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seizurekit import Recording, Scaler, write_edf
from seizurekit.cli import main
from seizurekit.features import read_feature_csv
from seizurekit.models import save_model
from seizurekit.models.lstm import init_params

from tests.test_edf import make_channel


def make_edf_bytes(patient, n_seconds, rate_hz=8, n_channels=2, seed=0):
    rng = np.random.default_rng(seed)
    channels = [
        make_channel(label=f"EEG C{i}", spr=rate_hz) for i in range(n_channels)
    ]
    signals = [rng.uniform(-90, 90, size=rate_hz * n_seconds) for _ in channels]
    rec = Recording(
        patient_id=patient,
        start_datetime=datetime.datetime(2002, 3, 4, 5, 6, 7),
        record_duration_s=1.0,
        num_records=n_seconds,
        channels=tuple(channels),
        signals=tuple(signals),
        recording_id="",
    )
    return write_edf(rec)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    rc = main(
        [
            "synth",
            "--out",
            str(d),
            "--patients",
            "6",
            "--epochs-per-patient",
            "120",
            "--channels",
            "3",
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    cfg_dir = tmp_path_factory.mktemp("traincfg")
    cfg = cfg_dir / "train.json"
    cfg.write_text(
        json.dumps({"model": "logreg", "model_params": {"max_iters": 60}}),
        encoding="utf-8",
    )
    out = tmp_path_factory.mktemp("trained")
    rc = main(
        [
            "train",
            "--features",
            str(synth_dir / "features.csv"),
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    return out


# ---------------------------------------------------------------- basics


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "synth" in capsys.readouterr().out


def test_subcommand_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    assert "--features" in capsys.readouterr().out


def test_no_subcommand_exits_1(capsys):
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_model_choice_exits_1(tmp_path, synth_dir, capsys):
    rc = main(
        [
            "train",
            "--features",
            str(synth_dir / "features.csv"),
            "--model",
            "perceptron",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 1
    assert "perceptron" in capsys.readouterr().err


def test_missing_features_file_exits_2(tmp_path, capsys):
    rc = main(
        [
            "train",
            "--features",
            str(tmp_path / "nope.csv"),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 2


def test_smote_flags_mutually_exclusive(tmp_path, synth_dir, capsys):
    rc = main(
        [
            "train",
            "--features",
            str(synth_dir / "features.csv"),
            "--smote",
            "--no-smote",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 1
    assert "mutually exclusive" in capsys.readouterr().err


def test_unknown_config_key_exits_1(tmp_path, synth_dir, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": "logreg", "modle_params": {}}), encoding="utf-8")
    rc = main(
        [
            "train",
            "--features",
            str(synth_dir / "features.csv"),
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "modle_params" in err
    assert "allowed" in err


def test_config_file_must_exist(tmp_path, synth_dir):
    rc = main(
        [
            "train",
            "--features",
            str(synth_dir / "features.csv"),
            "--config",
            str(tmp_path / "missing.json"),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 1


def test_config_file_that_is_not_utf8_exits_1(tmp_path, synth_dir, capsys):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(b'{"model": "logreg\xe9"}')
    argv = ["train", "--features", str(synth_dir / "features.csv"), "--config", str(cfg)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert f"{cfg}: invalid JSON" in capsys.readouterr().err


def test_config_file_must_be_json_object(tmp_path, synth_dir, capsys):
    cfg = tmp_path / "arr.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    rc = main(
        [
            "train",
            "--features",
            str(synth_dir / "features.csv"),
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "JSON object" in capsys.readouterr().err


# ---------------------------------------------------------------- synth


def test_synth_outputs_and_manifest(synth_dir, capsys):
    features = synth_dir / "features.csv"
    lines = features.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 6 * 120
    assert lines[0].startswith("patient,file,start_s,label,f0")

    manifest = json.loads((synth_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 0
    assert manifest["inputs"] == {}
    assert manifest["spec_version"] == "1.0"
    assert manifest["config"]["patients"] == 6
    assert manifest["config"]["channels"] == 3


def test_main_calls_the_command_set_on_the_module_and_writes_its_manifest(tmp_path, monkeypatch):
    """main looks cmd_<command> up when it runs, so a wrapper set on the module
    sees the call, and the manifest records the inputs the command returns."""
    from seizurekit import cli

    calls = []

    def wrapped(args, opts, given):
        calls.append((opts["patients"], given))
        inputs, hashed = cmd_synth(args, opts, given)
        return {**inputs, "extra.txt": extra}, hashed

    extra = tmp_path / "extra.txt"
    extra.write_text("x", encoding="utf-8")
    cmd_synth = cli.cmd_synth
    monkeypatch.setattr(cli, "cmd_synth", wrapped)
    out = tmp_path / "out"
    argv = ["synth", "--patients", "3", "--epochs-per-patient", "40", "--channels", "2", "--out", str(out)]
    assert main(argv) == 0
    assert calls == [(3, {"patients", "epochs_per_patient", "channels"})]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "synth" and manifest["config"]["patients"] == 3
    assert manifest["inputs"] == {"extra.txt": hashlib.sha256(b"x").hexdigest()}


def test_synth_rerun_is_byte_identical(tmp_path):
    args = ["synth", "--patients", "3", "--epochs-per-patient", "40", "--channels", "2", "--seed", "7"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "features.csv").read_bytes() == (b / "features.csv").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    c = tmp_path / "c"
    args_seeded = args[:-1] + ["8", "--out", str(c)]
    assert main(args_seeded) == 0
    assert (a / "features.csv").read_bytes() != (c / "features.csv").read_bytes()


def test_synth_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(
        json.dumps({"patients": 5, "epochs_per_patient": 30, "channels": 2}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    rc = main(
        ["synth", "--config", str(cfg), "--patients", "3", "--out", str(out), "--seed", "0"]
    )
    assert rc == 0
    fm, _ = read_feature_csv(out / "features.csv")
    assert sorted(set(fm.patients)) == ["P01", "P02", "P03"]
    assert fm.n_rows == 3 * 30


# ---------------------------------------------------------------- train


def test_train_outputs(trained_dir, synth_dir):
    for name in ("model.json", "scaler.json", "report.json", "roc.csv", "manifest.json"):
        assert (trained_dir / name).is_file(), name

    scaler = json.loads((trained_dir / "scaler.json").read_text(encoding="utf-8"))
    assert len(scaler["mean"]) == 12 and len(scaler["std"]) == 12
    assert scaler["spec_version"] == "1.0"

    report = json.loads((trained_dir / "report.json").read_text(encoding="utf-8"))
    for key in ("accuracy", "precision", "recall", "f1", "auc", "split"):
        assert key in report, key
    assert "roc_points" not in report
    split = report["split"]
    groups = [split["train_patients"], split["val_patients"], split["test_patients"]]
    assert sorted(p for g in groups for p in g) == [f"P0{i}" for i in range(1, 7)]

    doc = json.loads((trained_dir / "model.json").read_text(encoding="utf-8"))
    assert doc["scaler"] == {"mean": scaler["mean"], "std": scaler["std"]}
    assert doc["fit_patients"] == sorted(split["train_patients"] + split["val_patients"])

    roc_lines = (trained_dir / "roc.csv").read_text(encoding="utf-8").splitlines()
    assert roc_lines[0] == "fpr,tpr"
    assert roc_lines[1] == "0.0,0.0"
    assert roc_lines[-1] == "1.0,1.0"

    manifest = json.loads((trained_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "train"
    digest = manifest["inputs"]["features.csv"]
    assert re.fullmatch(r"[0-9a-f]{64}", digest)
    import hashlib

    assert digest == hashlib.sha256((synth_dir / "features.csv").read_bytes()).hexdigest()


def test_train_rerun_is_byte_identical(tmp_path, synth_dir):
    cfg = tmp_path / "train.json"
    cfg.write_text(
        json.dumps({"model": "logreg", "model_params": {"max_iters": 40}, "smote": True}),
        encoding="utf-8",
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(
            [
                "train",
                "--features",
                str(synth_dir / "features.csv"),
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        outs.append(out)
    a, b = outs
    for name in ("model.json", "scaler.json", "report.json", "roc.csv", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_lstm_train_and_predict_reruns_are_byte_identical(tmp_path, synth_dir):
    cfg = tmp_path / "lstm.json"
    cfg.write_text(
        json.dumps({"model": "lstm", "model_params": {"hidden_dim": 4, "epochs": 2}}),
        encoding="utf-8",
    )
    features = str(synth_dir / "features.csv")
    for name in ("a", "b"):
        train, pred = tmp_path / name / "train", tmp_path / name / "predict"
        argv = ["train", "--features", features, "--config", str(cfg), "--seed", "3"]
        assert main([*argv, "--out", str(train)]) == 0
        assert main([
            "predict", "--features", features, "--model", str(train / "model.json"),
            "--scaler", str(train / "scaler.json"), "--out", str(pred),
        ]) == 0
    a, b = _tree_bytes(tmp_path / "a"), _tree_bytes(tmp_path / "b")
    assert len(a) >= 7  # train: model, scaler, report, roc, manifest; predict: csv, manifest
    assert a == b


def test_eval_and_cv_reruns_are_byte_identical(tmp_path, synth_dir, trained_dir):
    cfg = tmp_path / "cv.json"
    cfg.write_text(json.dumps({"model": "logreg", "model_params": {"max_iters": 40}}), encoding="utf-8")
    features = str(synth_dir / "features.csv")
    for name in ("a", "b"):
        assert main([
            "eval", "--features", features, "--model", str(trained_dir / "model.json"),
            "--out", str(tmp_path / name / "eval"),
        ]) == 0
        assert main([
            "cv", "--features", features, "--config", str(cfg), "--k", "3", "--seed", "2",
            "--out", str(tmp_path / name / "cv"),
        ]) == 0
    a, b = _tree_bytes(tmp_path / "a"), _tree_bytes(tmp_path / "b")
    # eval: metrics, roc, manifest; cv: 3 folds, folds.csv, summary, manifest
    assert len(a) == 9
    assert a == b


def test_contaminated_explicit_split_exits_3(tmp_path, synth_dir, capsys):
    cfg = tmp_path / "leaky.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "logreg",
                "train_patients": ["P01", "P02", "P03"],
                "val_patients": ["P04"],
                "test_patients": ["P03", "P05", "P06"],
            }
        ),
        encoding="utf-8",
    )
    rc = main(
        [
            "train",
            "--features",
            str(synth_dir / "features.csv"),
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "leakage" in err
    assert "P03" in err


def test_explicit_split_unknown_patient_exits_2(tmp_path, synth_dir, capsys):
    cfg = tmp_path / "ghost.json"
    cfg.write_text(
        json.dumps(
            {
                "train_patients": ["P01", "P02"],
                "val_patients": ["P03"],
                "test_patients": ["P99"],
            }
        ),
        encoding="utf-8",
    )
    rc = main(
        [
            "train",
            "--features",
            str(synth_dir / "features.csv"),
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert "P99" in capsys.readouterr().err


def test_explicit_disjoint_split_recorded_in_report(tmp_path, synth_dir):
    cfg = tmp_path / "explicit.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "logreg",
                "model_params": {"max_iters": 40},
                "train_patients": ["P01", "P02", "P03"],
                "val_patients": ["P04"],
                "test_patients": ["P05", "P06"],
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    rc = main(
        [
            "train",
            "--features",
            str(synth_dir / "features.csv"),
            "--config",
            str(cfg),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["split"] == {
        "train_patients": ["P01", "P02", "P03"],
        "val_patients": ["P04"],
        "test_patients": ["P05", "P06"],
        "explicit": True,
    }


def test_allow_leaky_split_flag(tmp_path, synth_dir):
    out = tmp_path / "out"
    rc = main(
        [
            "train",
            "--features",
            str(synth_dir / "features.csv"),
            "--model",
            "logreg",
            "--allow-leaky-split",
            "--out",
            str(out),
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["split"] == {"leaky_row_level": True, "seed": 0}


# ---------------------------------------------------------------- eval


def _without(doc, *keys):
    return {k: v for k, v in doc.items() if k not in keys}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: b"\xe9" + doc, ":1: not UTF-8"),
        (lambda doc: doc.replace(b"{", b'{"pad": ' + b"9" * 5000 + b",", 1), ": invalid model JSON"),
        (lambda doc: json.dumps(_without(json.loads(doc), "scaler")).encode(), ": no scaler"),
    ],
    ids=["not-utf8", "long-integer", "no-scaler"],
)
def test_eval_unreadable_model_file_exits_2(tmp_path, synth_dir, trained_dir, capsys, edit, message):
    model = tmp_path / "model.json"
    model.write_bytes(edit((trained_dir / "model.json").read_bytes()))
    argv = ["eval", "--features", str(synth_dir / "features.csv"), "--model", str(model)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert f"{model}{message}" in capsys.readouterr().err


def test_eval_outputs(tmp_path, synth_dir, trained_dir, capsys):
    out = tmp_path / "evald"
    rc = main(
        [
            "eval",
            "--features",
            str(synth_dir / "features.csv"),
            "--model",
            str(trained_dir / "model.json"),
            "--out",
            str(out),
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    for key in ("accuracy", "recall", "auc", "n_test_rows", "test_patients"):
        assert key in metrics, key
    assert metrics["n_test_rows"] > 0
    assert (out / "roc.csv").is_file()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["inputs"]) == {"features.csv", "model.json"}
    assert "eval[model.json]" in capsys.readouterr().out


def test_eval_contaminated_split_exits_3(tmp_path, synth_dir, trained_dir):
    cfg = tmp_path / "leaky.json"
    cfg.write_text(
        json.dumps(
            {
                "train_patients": ["P01", "P02"],
                "val_patients": [],
                "test_patients": ["P02", "P03"],
            }
        ),
        encoding="utf-8",
    )
    rc = main(
        [
            "eval",
            "--features",
            str(synth_dir / "features.csv"),
            "--model",
            str(trained_dir / "model.json"),
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 3


def test_eval_refuses_test_patients_the_model_was_fitted_on(tmp_path, synth_dir, capsys):
    features = str(synth_dir / "features.csv")
    train = tmp_path / "train"
    assert main(["train", "--features", features, "--seed", "1", "--out", str(train)]) == 0
    # Seed 1 fits on P01, P02, P03, P05 and P06; seed 0 tests on P02.
    argv = ["eval", "--features", features, "--model", str(train / "model.json"), "--seed", "0"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    assert "['P02'] helped fit the model" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- cv


def test_cv_outputs(tmp_path, synth_dir, capsys):
    cfg = tmp_path / "cv.json"
    cfg.write_text(
        json.dumps({"model": "logreg", "model_params": {"max_iters": 40}}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    rc = main(
        [
            "cv",
            "--features",
            str(synth_dir / "features.csv"),
            "--config",
            str(cfg),
            "--k",
            "3",
            "--out",
            str(out),
            "--seed",
            "1",
        ]
    )
    assert rc == 0

    folds = []
    for i in range(3):
        doc = json.loads((out / f"fold_{i}.json").read_text(encoding="utf-8"))
        assert doc["fold"] == i
        assert "accuracy" in doc and "test_patients" in doc
        folds.append(doc)
    tested = sorted(p for doc in folds for p in doc["test_patients"])
    assert tested == [f"P0{i}" for i in range(1, 7)]

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["k"] == 3
    assert summary["seed"] == 1
    mean_acc = float(np.mean([doc["accuracy"] for doc in folds]))
    assert summary["metrics"]["accuracy"]["mean"] == pytest.approx(mean_acc, abs=1e-12)
    assert re.fullmatch(r"\d+\.\d{2}% \(±\d+\.\d{2}%\)", summary["formatted"]["accuracy"])
    assert re.fullmatch(r"\d\.\d{4} \(±\d\.\d{4}\)", summary["formatted"]["auc"])

    csv_lines = (out / "folds.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "fold,accuracy,precision,recall,f1,auc"
    assert len(csv_lines) == 4
    assert float(csv_lines[1].split(",")[1]) == folds[0]["accuracy"]

    assert "cv[logreg, k=3]" in capsys.readouterr().out


def test_cv_rejects_leaky_flag(tmp_path, synth_dir, capsys):
    rc = main(
        [
            "cv",
            "--features",
            str(synth_dir / "features.csv"),
            "--model",
            "logreg",
            "--allow-leaky-split",
            "--k",
            "3",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 1


@pytest.mark.parametrize("k", ["1", "0", "-3"])
def test_cv_bad_k_exits_1_before_the_csv_is_read(tmp_path, capsys, k):
    missing = tmp_path / "missing.csv"
    rc = main(["cv", "--k", k, "--features", str(missing), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"cv parameter k must be an int >= 2, got {k}" in err


# ---------------------------------------------------------------- predict


def test_predict_outputs(tmp_path, synth_dir, trained_dir, capsys):
    out = tmp_path / "pred"
    rc = main(
        [
            "predict",
            "--features",
            str(synth_dir / "features.csv"),
            "--model",
            str(trained_dir / "model.json"),
            "--scaler",
            str(trained_dir / "scaler.json"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = (out / "predictions.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "patient,file,start_s,score,class"
    assert len(lines) == 1 + 720
    for line in lines[1:6]:
        patient, fname, start, score, cls = line.split(",")
        assert patient.startswith("P0")
        assert 0.0 <= float(score) <= 1.0
        assert cls in ("0", "1")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["inputs"]) == {"features.csv", "model.json", "scaler.json"}
    assert "predict: 720 rows" in capsys.readouterr().out


def test_predict_threshold_flag(tmp_path, synth_dir, trained_dir):
    def classes_at(threshold, name):
        out = tmp_path / name
        rc = main(
            [
                "predict",
                "--features",
                str(synth_dir / "features.csv"),
                "--model",
                str(trained_dir / "model.json"),
                "--threshold",
                str(threshold),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = (out / "predictions.csv").read_text(encoding="utf-8").splitlines()
        return [int(line.rsplit(",", 1)[1]) for line in lines[1:]]

    assert set(classes_at(0.0, "low")) == {1}
    assert set(classes_at(1.01, "high")) == {0}


def _predict(synth_dir, trained_dir, out, *flags):
    return main([
        "predict", "--features", str(synth_dir / "features.csv"),
        "--model", str(trained_dir / "model.json"), *flags, "--out", str(out),
    ])


def test_predict_applies_the_model_files_scaler(tmp_path, synth_dir, trained_dir):
    assert _predict(synth_dir, trained_dir, tmp_path / "bare") == 0
    given = ["--scaler", str(trained_dir / "scaler.json")]
    assert _predict(synth_dir, trained_dir, tmp_path / "given", *given) == 0
    bare = (tmp_path / "bare" / "predictions.csv").read_bytes()
    assert bare == (tmp_path / "given" / "predictions.csv").read_bytes()


def test_predict_refuses_a_scaler_other_than_the_model_files(
    tmp_path, synth_dir, trained_dir, capsys
):
    doc = json.loads((trained_dir / "scaler.json").read_text(encoding="utf-8"))
    doc["mean"][0] += 1.0
    other = tmp_path / "scaler.json"
    other.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert _predict(synth_dir, trained_dir, tmp_path / "out", "--scaler", str(other)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "drop --scaler" in err
    assert not (tmp_path / "out").exists()


_FINITE = st.floats(-1e6, 1e6)
_GOOD = st.lists(st.floats(0, 1e6), min_size=12, max_size=12)  # the synth CSV is 12 wide


def _scaler(mean, std):
    return {"mean": mean, "std": std}


def _with_entry(field, key, i, value):
    entries = list(field[key])
    entries[i % len(entries)] = value
    return {**field, key: entries}


_KEY = st.sampled_from(["mean", "std"])
# Each case is the `scaler` field of a model file (None: the field is missing).
MALFORMED_SCALERS = st.one_of(
    st.none(),
    st.one_of(st.integers(), st.text(max_size=5), st.lists(_FINITE, max_size=3)),
    st.builds(
        lambda field, key, value: {**field, key: value},
        st.builds(_scaler, _GOOD, _GOOD),
        _KEY,
        st.one_of(
            st.none(), _FINITE, st.text(max_size=5), st.dictionaries(st.text(max_size=2), _FINITE)
        ),
    ),
    st.builds(_scaler, _GOOD, st.lists(st.floats(0, 1e6), max_size=11)),
    st.integers(0, 20).filter(lambda n: n != 12).flatmap(
        lambda n: st.builds(_scaler, *[st.lists(st.floats(0, 1e6), min_size=n, max_size=n)] * 2)
    ),
    st.builds(
        lambda field, i, value: _with_entry(field, "std", i, value),
        st.builds(_scaler, _GOOD, _GOOD), st.integers(0, 11), st.floats(-1e6, -1e-9),
    ),
    st.builds(
        lambda field, key, i: _with_entry(field, key, i, float("nan")),
        st.builds(_scaler, _GOOD, _GOOD), _KEY, st.integers(0, 11),
    ),
)


@pytest.fixture(scope="module")
def scaler_cases(tmp_path_factory):
    return tmp_path_factory.mktemp("scalers")


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(field=MALFORMED_SCALERS)
def test_a_malformed_embedded_scaler_is_a_data_error(
    scaler_cases, synth_dir, trained_dir, capsys, field
):
    doc = _without(json.loads((trained_dir / "model.json").read_text(encoding="utf-8")), "scaler")
    if field is not None:
        doc["scaler"] = field
    (scaler_cases / "model.json").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert _predict(synth_dir, scaler_cases, scaler_cases / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "scaler" in err


def test_predict_lstm_window_offset(tmp_path, synth_dir):
    model_path = tmp_path / "lstm.json"
    identity = Scaler(mean=np.zeros(12), std=np.ones(12))
    save_model(init_params(12, hidden_dim=4, seed=0), identity, [], model_path)
    cfg = tmp_path / "pred.json"
    cfg.write_text(json.dumps({"sequence_length": 5}), encoding="utf-8")
    out = tmp_path / "pred"
    rc = main(
        [
            "predict",
            "--features",
            str(synth_dir / "features.csv"),
            "--model",
            str(model_path),
            "--config",
            str(cfg),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = (out / "predictions.csv").read_text(encoding="utf-8").splitlines()
    # each of the 6 single-file patients yields 120 - 5 + 1 windows
    assert len(lines) == 1 + 6 * 116
    first = lines[1].split(",")
    assert first[0] == "P01"
    assert float(first[2]) == pytest.approx(8.0)  # window ends at the 5th epoch


@pytest.fixture(scope="module")
def lstm_at_5(tmp_path_factory, synth_dir):
    """An lstm trained on synth_dir with windows of T = 5."""
    root = tmp_path_factory.mktemp("lstm5")
    cfg = root / "train.json"
    cfg.write_text(json.dumps({
        "model": "lstm", "sequence_length": 5, "model_params": {"hidden_dim": 4, "epochs": 1},
    }), encoding="utf-8")
    argv = ["train", "--features", str(synth_dir / "features.csv"), "--config", str(cfg)]
    assert main([*argv, "--out", str(root / "train")]) == 0
    return root / "train"


def test_lstm_model_file_records_its_window_length(lstm_at_5):
    doc = json.loads((lstm_at_5 / "model.json").read_text(encoding="utf-8"))
    assert doc["config"] == {"sequence_length": 5}


def _score_lstm(command, model, synth_dir, out, config=None):
    argv = [command, "--features", str(synth_dir / "features.csv"), "--model", str(model)]
    if config is not None:
        path = out.parent / f"{out.name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    return main([*argv, "--out", str(out)])


@pytest.mark.parametrize("config", [None, {"sequence_length": 5}])
def test_predict_and_eval_use_the_recorded_window_length(lstm_at_5, synth_dir, tmp_path, config):
    model = lstm_at_5 / "model.json"
    assert _score_lstm("predict", model, synth_dir, tmp_path / "pred", config) == 0
    lines = (tmp_path / "pred" / "predictions.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 6 * (120 - 5 + 1)
    assert _score_lstm("eval", model, synth_dir, tmp_path / "eval", config) == 0
    metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text(encoding="utf-8"))
    report = json.loads((lstm_at_5 / "report.json").read_text(encoding="utf-8"))
    assert metrics["n_test_rows"] == report["n_test_sequences"]
    for key in ("tp", "fp", "tn", "fn", "auc"):
        assert metrics[key] == report[key], key


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_a_window_length_other_than_the_recorded_one_exits_1(
    lstm_at_5, synth_dir, tmp_path, capsys, command
):
    config = {"sequence_length": 10}
    assert _score_lstm(command, lstm_at_5 / "model.json", synth_dir, tmp_path / "o", config) == 1
    assert "sequence_length 10 differs from the 5" in capsys.readouterr().err


def test_an_lstm_file_without_a_window_length_scores_at_10(lstm_at_5, synth_dir, tmp_path):
    doc = json.loads((lstm_at_5 / "model.json").read_text(encoding="utf-8"))
    del doc["config"]["sequence_length"]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert _score_lstm("predict", model, synth_dir, tmp_path / "pred") == 0
    lines = (tmp_path / "pred" / "predictions.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 6 * (120 - 10 + 1)


@pytest.mark.parametrize(
    "config",
    [{"sequence_length": v} for v in (0, -1, 2.5, "5", True)] + [[]],
)
def test_a_malformed_recorded_window_length_exits_2(lstm_at_5, synth_dir, tmp_path, capsys, config):
    doc = json.loads((lstm_at_5 / "model.json").read_text(encoding="utf-8"))
    doc["config"] = config
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert _score_lstm("predict", model, synth_dir, tmp_path / "pred") == 2
    assert "malformed lstm model document" in capsys.readouterr().err


MISMATCH_PARAMS = {
    "knn": {"k": 3},
    "logreg": {"max_iters": 30},
    "rf": {"n_trees": 3, "max_depth": 3},
    "svm": {"max_passes": 3},
    "lstm": {"hidden_dim": 4, "epochs": 2},
}


@pytest.fixture(scope="module")
def two_channel_run(tmp_path_factory, synth_dir):
    """Models trained on synth_dir's 3-channel features, plus a 2-channel
    feature file to score them on."""
    root = tmp_path_factory.mktemp("mismatch")
    assert main([
        "synth", "--patients", "4", "--epochs-per-patient", "40", "--channels", "2",
        "--seed", "0", "--out", str(root / "two"),
    ]) == 0
    for name, params in MISMATCH_PARAMS.items():
        cfg = root / f"{name}.json"
        cfg.write_text(json.dumps({"model": name, "model_params": params}), encoding="utf-8")
        assert main([
            "train", "--features", str(synth_dir / "features.csv"), "--config", str(cfg),
            "--out", str(root / name),
        ]) == 0
    return root


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("name", list(MISMATCH_PARAMS))
def test_feature_count_mismatch_exits_2(two_channel_run, tmp_path, capsys, name, command):
    rc = main([
        command, "--features", str(two_channel_run / "two" / "features.csv"),
        "--model", str(two_channel_run / name / "model.json"), "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("data error:")


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_a_knn_file_with_a_non_finite_training_value_exits_2(
    two_channel_run, synth_dir, tmp_path, capsys, command, value
):
    # The knn model was fitted on synth_dir's features, so only the edit fails it.
    doc = json.loads((two_channel_run / "knn" / "model.json").read_text(encoding="utf-8"))
    doc["params"]["train_X"][3][1] = value
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")  # json writes NaN and Infinity
    rc = main([
        command, "--features", str(synth_dir / "features.csv"),
        "--model", str(model), "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert f"{model}: knn train_X contains non-finite values" in capsys.readouterr().err


# ---------------------------------------------------------------- ingest / featurize


@pytest.fixture(scope="module")
def edf_store(tmp_path_factory):
    src = tmp_path_factory.mktemp("edfsrc")
    (src / "a.edf").write_bytes(make_edf_bytes("chb01", 60, seed=1))
    (src / "b.edf").write_bytes(make_edf_bytes("chb02", 60, seed=2))
    summary = src / "summary.txt"
    summary.write_text(
        "File Name: a.edf\n"
        "Number of Seizures in File: 1\n"
        "Seizure Start Time: 10 seconds\n"
        "Seizure End Time: 20 seconds\n"
        "\n"
        "File Name: b.edf\n"
        "Number of Seizures in File: 0\n",
        encoding="utf-8",
    )
    store = tmp_path_factory.mktemp("store")
    rc = main(
        [
            "ingest",
            "--edf-dir",
            str(src),
            "--summary",
            str(summary),
            "--out",
            str(store),
        ]
    )
    assert rc == 0
    return src, store


def test_ingest_store_contents(edf_store, capsys):
    _, store = edf_store
    stack = np.load(store / "epochs.npy")
    assert stack.shape == (60, 2, 16)

    meta = (store / "meta.csv").read_text(encoding="utf-8").splitlines()
    assert meta[0] == "patient,file,start_s,label"
    assert len(meta) == 61
    labels = {}
    for line in meta[1:]:
        patient, fname, start, label = line.split(",")
        labels[(fname, float(start))] = int(label)
    positives = sorted(start for (fname, start), v in labels.items() if v == 1)
    assert positives == [10.0, 12.0, 14.0, 16.0, 18.0]
    assert all(fname == "a.edf" for (fname, s), v in labels.items() if v == 1)
    assert {p for p, *_ in (line.split(",") for line in meta[1:])} == {"chb01", "chb02"}

    info = json.loads((store / "store_info.json").read_text(encoding="utf-8"))
    assert info == {
        "epoch_len_s": 2.0,
        "task": "detection",
        "horizon_s": 300.0,
        "n_channels": 2,
        "window": 16,
        "spec_version": "1.0",
    }

    manifest = json.loads((store / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["inputs"]) == {"a.edf", "b.edf", "summary.txt"}


def test_ingest_missing_referenced_file_warns_and_continues(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.edf").write_bytes(make_edf_bytes("chb01", 10))
    summary = tmp_path / "summary.txt"
    summary.write_text(
        "File Name: ghost.edf\n"
        "Number of Seizures in File: 1\n"
        "Seizure Start Time: 1 seconds\n"
        "Seizure End Time: 2 seconds\n",
        encoding="utf-8",
    )
    out = tmp_path / "store"
    rc = main(
        ["ingest", "--edf-dir", str(src), "--summary", str(summary), "--out", str(out)]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "ghost.edf" in captured.err
    assert "warning" in captured.err
    meta = (out / "meta.csv").read_text(encoding="utf-8").splitlines()
    assert len(meta) == 6  # header + 5 epochs, none positive
    assert all(line.endswith(",0") for line in meta[1:])


def test_ingest_malformed_summary_time_exits_2(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.edf").write_bytes(make_edf_bytes("chb01", 10))
    summary = tmp_path / "summary.txt"
    summary.write_text(
        "File Name: a.edf\n"
        "Number of Seizures in File: 1\n"
        "Seizure Start Time: 1.2.3 seconds\n"
        "Seizure End Time: 4 seconds\n",
        encoding="utf-8",
    )
    out = tmp_path / "store"
    rc = main(
        ["ingest", "--edf-dir", str(src), "--summary", str(summary), "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "a.edf" in err and "1.2.3" in err
    assert not (out / "meta.csv").exists()


def test_ingest_skips_edf_with_zero_record_duration(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.edf").write_bytes(make_edf_bytes("chb01", 10))
    bad = bytearray(make_edf_bytes("chb01", 10, seed=1))
    bad[244:252] = b"0".ljust(8)
    (src / "b.edf").write_bytes(bytes(bad))
    out = tmp_path / "store"
    rc = main(
        ["ingest", "--edf-dir", str(src), "--highpass", "0.5", "--out", str(out)]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "b.edf" in err and "record_duration" in err
    meta = (out / "meta.csv").read_text(encoding="utf-8").splitlines()
    assert len(meta) == 6  # header + 5 epochs of a.edf
    assert all(",a.edf," in line for line in meta[1:])
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["inputs"]) == {"a.edf"}


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--highpass", "nan"], None),
        (["--highpass", "inf"], None),
        (["--highpass", "0"], None),
        ([], {"highpass_hz": "0.5"}),
    ],
)
def test_ingest_bad_highpass_exits_1(tmp_path, capsys, flags, config):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.edf").write_bytes(make_edf_bytes("chb01", 10))
    out = tmp_path / "store"
    argv = ["ingest", "--edf-dir", str(src), "--out", str(out), *flags]
    if config is not None:
        cfg = tmp_path / "ingest.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    assert "highpass" in capsys.readouterr().err
    assert not (out / "epochs.npy").exists()


def test_ingest_empty_dir_exits_2(tmp_path, capsys):
    src = tmp_path / "empty"
    src.mkdir()
    rc = main(["ingest", "--edf-dir", str(src), "--out", str(tmp_path / "store")])
    assert rc == 2
    assert "no EDF files" in capsys.readouterr().err


def test_ingest_missing_dir_exits_2(tmp_path):
    rc = main(
        ["ingest", "--edf-dir", str(tmp_path / "nowhere"), "--out", str(tmp_path / "s")]
    )
    assert rc == 2


def test_ingest_prediction_task(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.edf").write_bytes(make_edf_bytes("chb01", 60, seed=3))
    summary = tmp_path / "summary.txt"
    summary.write_text(
        "File Name: a.edf\n"
        "Number of Seizures in File: 1\n"
        "Seizure Start Time: 10 seconds\n"
        "Seizure End Time: 20 seconds\n",
        encoding="utf-8",
    )
    out = tmp_path / "store"
    rc = main(
        [
            "ingest",
            "--edf-dir",
            str(src),
            "--summary",
            str(summary),
            "--task",
            "prediction",
            "--horizon",
            "6",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    meta = (out / "meta.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in meta[1:]]
    starts = sorted(float(r[2]) for r in rows)
    # ictal epochs [10, 20) are dropped entirely
    assert len(rows) == 25
    assert not any(10.0 <= s < 20.0 for s in starts)
    positives = sorted(float(r[2]) for r in rows if r[3] == "1")
    assert positives == [4.0, 6.0, 8.0]

    info = json.loads((out / "store_info.json").read_text(encoding="utf-8"))
    assert info["task"] == "prediction"
    assert info["horizon_s"] == 6.0


def test_ingest_demographics(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.edf").write_bytes(make_edf_bytes("chb01", 4))
    info = tmp_path / "subjects.csv"
    info.write_text(
        "patient,age,gender\nchb01,24,F\nchb02,31,F\nchb03,9,M\nchb04,38,F\n",
        encoding="utf-8",
    )
    out = tmp_path / "store"
    rc = main(
        ["ingest", "--edf-dir", str(src), "--demographics", str(info), "--out", str(out)]
    )
    assert rc == 0
    rows = (out / "demographics.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "kind,key,count"
    assert "gender,F,3" in rows
    assert "gender,M,1" in rows
    assert "age,0-9,1" in rows
    assert "age,20-29,1" in rows
    assert "age,30-39,2" in rows


def test_ingest_manifest_hashes_every_input_file(tmp_path):
    # Two summaries share a file name, so each is keyed by its whole path;
    # the names that stay distinct keep their file-name keys.
    src = tmp_path / "src"
    src.mkdir()
    (src / "x.edf").write_bytes(make_edf_bytes("chb01", 10))
    summaries = []
    for sub, seizures in (("a", 0), ("b", 1)):
        (tmp_path / sub).mkdir()
        summary = tmp_path / sub / "summary.txt"
        summary.write_text(
            f"File Name: x.edf\nNumber of Seizures in File: {seizures}\n"
            + "Seizure Start Time: 4 seconds\nSeizure End Time: 6 seconds\n" * seizures,
            encoding="utf-8",
        )
        summaries += ["--summary", str(summary)]
    demographics = tmp_path / "demo.csv"
    demographics.write_text("patient,age,gender\nchb01,11,F\n", encoding="utf-8")
    out = tmp_path / "store"
    argv = ["ingest", "--edf-dir", str(src), *summaries, "--demographics", str(demographics)]
    assert main([*argv, "--out", str(out)]) == 0

    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"] == {
        "x.edf": sha(src / "x.edf"),
        str(tmp_path / "a" / "summary.txt"): sha(tmp_path / "a" / "summary.txt"),
        str(tmp_path / "b" / "summary.txt"): sha(tmp_path / "b" / "summary.txt"),
        "demo.csv": sha(demographics),
    }
    meta = (out / "meta.csv").read_text(encoding="utf-8").splitlines()
    assert [line.rsplit(",", 1)[1] for line in meta[1:]] == ["0", "0", "1", "0", "0"]


def test_ingest_bad_demographics_header_exits_2(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.edf").write_bytes(make_edf_bytes("chb01", 4))
    info = tmp_path / "subjects.csv"
    info.write_text("name,years,sex\nchb01,24,F\n", encoding="utf-8")
    rc = main(
        [
            "ingest",
            "--edf-dir",
            str(src),
            "--demographics",
            str(info),
            "--out",
            str(tmp_path / "store"),
        ]
    )
    assert rc == 2
    assert "patient,age,gender" in capsys.readouterr().err
    for name in ("epochs.npy", "meta.csv", "store_info.json"):
        assert not (tmp_path / "store" / name).exists(), name


@pytest.mark.parametrize("age", ["nan", "inf", "-3"])
def test_ingest_age_that_is_not_a_finite_nonnegative_number_exits_2(tmp_path, capsys, age):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.edf").write_bytes(make_edf_bytes("chb01", 4))
    info = tmp_path / "subjects.csv"
    info.write_text(f"patient,age,gender\nchb01,24,F\nchb02,{age},M\n", encoding="utf-8")
    out = tmp_path / "store"
    rc = main(["ingest", "--edf-dir", str(src), "--demographics", str(info), "--out", str(out)])
    assert rc == 2
    assert f"{info}:3: age '{age}' must be a finite number >= 0" in capsys.readouterr().err
    assert not (out / "epochs.npy").exists()


def test_ingest_blank_patient_header_uses_file_prefix(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "chb05_17.edf").write_bytes(make_edf_bytes("", 4))
    out = tmp_path / "store"
    rc = main(["ingest", "--edf-dir", str(src), "--out", str(out)])
    assert rc == 0
    meta = (out / "meta.csv").read_text(encoding="utf-8").splitlines()
    assert all(line.startswith("chb05,chb05_17.edf,") for line in meta[1:])


def test_ingest_patient_name_with_comma_exits_2(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.edf").write_bytes(make_edf_bytes("Smith, J", 4))
    out = tmp_path / "store"
    rc = main(["ingest", "--edf-dir", str(src), "--out", str(out)])
    assert rc == 2
    assert "'Smith, J' holds a comma" in capsys.readouterr().err
    assert not (out / "meta.csv").exists()
    assert not (out / "epochs.npy").exists()
    # out exists by then; main writes the manifest only after the command returns.
    assert out.is_dir() and not (out / "manifest.json").exists()


def test_ingest_config_file_only(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.edf").write_bytes(make_edf_bytes("chb01", 8))
    cfg = tmp_path / "ingest.json"
    cfg.write_text(json.dumps({"edf_dir": str(src), "epoch_len_s": 4.0}), encoding="utf-8")
    out = tmp_path / "store"
    rc = main(["ingest", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    info = json.loads((out / "store_info.json").read_text(encoding="utf-8"))
    assert info["epoch_len_s"] == 4.0
    assert np.load(out / "epochs.npy").shape == (2, 2, 32)


def test_featurize_outputs(edf_store, tmp_path):
    _, store = edf_store
    out = tmp_path / "feat"
    rc = main(["featurize", "--store", str(store), "--out", str(out)])
    assert rc == 0
    fm, labels = read_feature_csv(out / "features.csv")
    assert fm.n_rows == 60
    assert fm.n_dims == 8  # 4 stats x 2 channels
    assert int(labels.sum()) == 5

    pooled = tmp_path / "pooled"
    rc = main(["featurize", "--store", str(store), "--pool-channels", "--out", str(pooled)])
    assert rc == 0
    fm2, _ = read_feature_csv(pooled / "features.csv")
    assert fm2.n_dims == 4


def test_featurize_missing_store_exits_2(tmp_path, capsys):
    rc = main(
        ["featurize", "--store", str(tmp_path / "nostore"), "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    assert "missing store file" in capsys.readouterr().err


def test_featurize_trains_end_to_end(edf_store, tmp_path):
    # full flow: ingest -> featurize -> train on the tiny real-EDF dataset
    _, store = edf_store
    feat = tmp_path / "feat"
    assert main(["featurize", "--store", str(store), "--out", str(feat)]) == 0
    cfg = tmp_path / "train.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "constant",
                "train_patients": ["chb01"],
                "test_patients": ["chb02"],
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    rc = main(
        [
            "train",
            "--features",
            str(feat / "features.csv"),
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["recall"] == 0.0


def test_ingest_summary_that_is_not_utf8_exits_2(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.edf").write_bytes(make_edf_bytes("chb01", 10))
    summary = tmp_path / "summary.txt"
    summary.write_bytes(b"Data Sampling Rate: 8 Hz\nPatient: Jos\xe9\nFile Name: a.edf\n")
    out = tmp_path / "store"
    rc = main(["ingest", "--edf-dir", str(src), "--summary", str(summary), "--out", str(out)])
    assert rc == 2
    assert f"{summary}:2: not UTF-8" in capsys.readouterr().err
    assert not (out / "meta.csv").exists()


def test_ingest_demographics_that_are_not_utf8_exit_2(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.edf").write_bytes(make_edf_bytes("chb01", 4))
    info = tmp_path / "subjects.csv"
    info.write_bytes(b"patient,age,gender\nchb01,24,F\xe9\n")
    rc = main(["ingest", "--edf-dir", str(src), "--demographics", str(info), "--out", str(tmp_path / "s")])
    assert rc == 2
    assert f"{info}:2: not UTF-8" in capsys.readouterr().err


def _store_copy(edf_store, tmp_path, edit_meta):
    _, store = edf_store
    copy = tmp_path / "store"
    copy.mkdir()
    for name in ("epochs.npy", "store_info.json"):
        (copy / name).write_bytes((store / name).read_bytes())
    lines = (store / "meta.csv").read_bytes().split(b"\n")
    (copy / "meta.csv").write_bytes(b"\n".join(edit_meta(lines)))
    return copy


@pytest.mark.parametrize(
    "row, message",
    [
        (b"chb\xe9,a.edf,2.0,0", ":3: not UTF-8"),
        (b"chb01,a.edf,2.0", ":3: expected 4 fields"),
        (b"chb01,a.edf,x,0", ":3: could not convert"),
        (b"chb01,a.edf,2.0,1.0", ":3: label '1.0'"),
        (b"chb01,a.edf,2.0,7", ":3: label '7'"),
    ],
)
def test_featurize_malformed_meta_row_exits_2(edf_store, tmp_path, capsys, row, message):
    store = _store_copy(edf_store, tmp_path, lambda lines: lines[:2] + [row] + lines[3:])
    rc = main(["featurize", "--store", str(store), "--out", str(tmp_path / "feat")])
    assert rc == 2
    assert f"{store / 'meta.csv'}{message}" in capsys.readouterr().err


def test_featurize_meta_with_feature_columns_exits_2(edf_store, tmp_path, capsys):
    store = _store_copy(
        edf_store, tmp_path, lambda lines: [lines[0] + b",f0"] + [l + b",0.5" for l in lines[1:] if l]
    )
    rc = main(["featurize", "--store", str(store), "--out", str(tmp_path / "feat")])
    assert rc == 2
    assert f"{store / 'meta.csv'}: unexpected feature columns" in capsys.readouterr().err


def _npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda good: b"not a numpy file\n" * 8, "not a readable .npy array"),
        (lambda good: _npy_bytes(np.array([None] * 60)), "not a readable .npy array"),
        (lambda good: good[:-40], "not a readable .npy array"),
        (lambda good: _npy_bytes(np.zeros((60, 8))), "expected a 3-d numeric array"),
    ],
    ids=["garbage", "object-dtype", "truncated", "two-d"],
)
def test_featurize_unreadable_epochs_file_exits_2(edf_store, tmp_path, capsys, corrupt, message):
    store = _store_copy(edf_store, tmp_path, lambda lines: lines)
    epochs = store / "epochs.npy"
    epochs.write_bytes(corrupt(epochs.read_bytes()))
    rc = main(["featurize", "--store", str(store), "--out", str(tmp_path / "feat")])
    assert rc == 2
    assert f"{epochs}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "feat" / "features.csv").exists()


@pytest.mark.parametrize(
    "info, message",
    [
        (b'{"epoch_len_s": 2.0,\n "task": "d\xe9tection"}', ":2: not UTF-8"),
        (b'{"epoch_len_s": 2.0,', ": invalid JSON"),
        (b'{"task": "detection"}', ": epoch_len_s must be a positive finite number, got None"),
        (b"[2.0]", ": epoch_len_s must be a positive finite number, got None"),
        (b'{"epoch_len_s": 0}', ": epoch_len_s must be a positive finite number, got 0.0"),
        (b'{"epoch_len_s": -2.0}', ": epoch_len_s must be a positive finite number, got -2.0"),
        (b'{"epoch_len_s": NaN}', ": epoch_len_s must be a positive finite number, got nan"),
        (b'{"epoch_len_s": Infinity}', ": epoch_len_s must be a positive finite number, got inf"),
        (b'{"epoch_len_s": 1' + b"0" * 400 + b"}", ": epoch_len_s must be a positive finite number, got inf"),
        (b'{"epoch_len_s": "2.0"}', ": epoch_len_s must be a positive finite number, got '2.0'"),
        (b'{"epoch_len_s": true}', ": epoch_len_s must be a positive finite number, got True"),
    ],
    ids=[
        "not-utf8", "not-json", "no-key", "not-an-object", "zero", "negative", "nan",
        "infinity", "huge-integer", "string", "bool",
    ],
)
def test_featurize_malformed_store_info_exits_2(edf_store, tmp_path, capsys, info, message):
    store = _store_copy(edf_store, tmp_path, lambda lines: lines)
    (store / "store_info.json").write_bytes(info)
    rc = main(["featurize", "--store", str(store), "--out", str(tmp_path / "feat")])
    assert rc == 2
    assert f"{store / 'store_info.json'}{message}" in capsys.readouterr().err


def test_featurize_reads_an_integer_epoch_length(edf_store, tmp_path):
    store = _store_copy(edf_store, tmp_path, lambda lines: lines)
    info = json.loads((store / "store_info.json").read_text(encoding="utf-8"))
    (store / "store_info.json").write_text(json.dumps({**info, "epoch_len_s": 2}), encoding="utf-8")
    assert main(["featurize", "--store", str(store), "--out", str(tmp_path / "int")]) == 0
    assert main(["featurize", "--store", str(edf_store[1]), "--out", str(tmp_path / "float")]) == 0
    features = [(tmp_path / d / "features.csv").read_bytes() for d in ("int", "float")]
    assert features[0] == features[1]


def test_featurize_empty_meta_exits_2(edf_store, tmp_path, capsys):
    store = _store_copy(edf_store, tmp_path, lambda lines: [b""])
    rc = main(["featurize", "--store", str(store), "--out", str(tmp_path / "feat")])
    assert rc == 2
    assert "empty feature file" in capsys.readouterr().err


# Ways to end the lines of one features file; each reads as the same rows.
_LINE_ENDS = {
    "lf": lambda data: data,
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "trailing_blank_lines": lambda data: data + b"\n\n\n",
    "no_final_newline": lambda data: data.rstrip(b"\n"),
}


@pytest.mark.parametrize("ending", _LINE_ENDS)
def test_manifests_hold_the_digest_of_every_byte_of_the_inputs(tmp_path, synth_dir, ending):
    # The model commands hash features.csv and model.json as they read them.
    features = tmp_path / "features.csv"
    features.write_bytes(_LINE_ENDS[ending]((synth_dir / "features.csv").read_bytes()))
    cfg = tmp_path / "rf.json"
    cfg.write_text(json.dumps({"model": "rf", "model_params": {"n_trees": 2, "max_depth": 2}}), encoding="utf-8")
    f = ["--features", str(features)]
    model = ["--model", str(tmp_path / "train" / "model.json")]
    runs = {
        "train": ["train", *f, "--config", str(cfg)],
        "cv": ["cv", *f, "--config", str(cfg), "--k", "2"],
        "eval": ["eval", *f, *model],
        "predict": ["predict", *f, *model],
    }
    for command, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / command)]) == 0
    model_sha = hashlib.sha256((tmp_path / "train" / "model.json").read_bytes()).hexdigest()
    for command in runs:
        inputs = json.loads((tmp_path / command / "manifest.json").read_text(encoding="utf-8"))["inputs"]
        assert inputs["features.csv"] == hashlib.sha256(features.read_bytes()).hexdigest(), command
        if command in ("eval", "predict"):
            assert inputs["model.json"] == model_sha, command


def test_a_features_file_rejected_mid_read_leaves_no_manifest(tmp_path, synth_dir, trained_dir, capsys):
    lines = (synth_dir / "features.csv").read_bytes().split(b"\n")
    lines[len(lines) // 2] = lines[len(lines) // 2].replace(b",", b",x,", 1)
    features = tmp_path / "features.csv"
    features.write_bytes(b"\n".join(lines))
    f = ["--features", str(features)]
    model = ["--model", str(trained_dir / "model.json")]
    for argv in (["train", *f], ["cv", *f], ["eval", *f, *model], ["predict", *f, *model]):
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out)]) == 2
        assert f"{features}:{len(lines) // 2 + 1}: expected" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


# ---------------------------------------------------------------- JSON nested too deep to parse

_DEEP = 100_000


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def test_a_config_nested_too_deep_exits_1(tmp_path, synth_dir, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text(_nested(_DEEP), encoding="utf-8")
    argv = ["train", "--features", str(synth_dir / "features.csv"), "--config", str(cfg)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}: invalid JSON")


def test_a_store_info_nested_too_deep_exits_2(edf_store, tmp_path, capsys):
    store = _store_copy(edf_store, tmp_path, lambda lines: lines)
    info = store / "store_info.json"
    info.write_text('{"epoch_len_s": ' + _nested(_DEEP) + "}", encoding="utf-8")
    assert main(["featurize", "--store", str(store), "--out", str(tmp_path / "feat")]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {info}: invalid JSON")


@pytest.mark.parametrize("key", ["weights", "bias"])
@pytest.mark.parametrize("depth", [900, _DEEP])
def test_a_model_file_nested_too_deep_exits_2(tmp_path, synth_dir, trained_dir, capsys, depth, key):
    doc = json.loads((trained_dir / "model.json").read_text(encoding="utf-8"))
    doc["params"][key] = "@"
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc).replace('"@"', _nested(depth)), encoding="utf-8")
    for command in ("eval", "predict"):
        argv = [command, "--features", str(synth_dir / "features.csv"), "--model", str(model)]
        assert main([*argv, "--out", str(tmp_path / command)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {model}: ")
