"""Options and values that used to be ignored or accepted and now fail
with a ConfigError (exit 1), a DataError (exit 2) or a ValueError."""

import datetime
import json

import numpy as np
import pytest

from seizurekit import Recording
from seizurekit.cli import main
from seizurekit.models import MODELS

from tests.test_edf import make_channel


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A small feature CSV plus one model of each type trained on it."""
    root = tmp_path_factory.mktemp("runs")
    assert main([
        "synth", "--patients", "6", "--epochs-per-patient", "60", "--channels", "2",
        "--seed", "0", "--out", str(root / "data"),
    ]) == 0
    features = root / "data" / "features.csv"
    for name, params in (
        ("rf", {"n_trees": 3, "max_depth": 3}),
        ("logreg", {"max_iters": 30}),
        ("svm", {"max_passes": 5}),
        ("knn", {"k": 3}),
        ("lstm", {"hidden_dim": 2, "epochs": 1}),
        ("constant", {}),
    ):
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


# ---------------------------------------------------------------- parameter domains


def _train_raw(runs, tmp_path, config_text, features=None):
    """train with a config file holding config_text verbatim (JSON reads 1e400 as inf)."""
    cfg = tmp_path / "raw.json"
    cfg.write_text(config_text, encoding="utf-8")
    argv = [
        "train", "--features", str(features or runs[1]), "--config", str(cfg),
        "--out", str(tmp_path / "out"),
    ]
    return main(argv)


@pytest.mark.parametrize(
    "config_text, named",
    [
        ('{"model": "logreg", "model_params": {"tolerance": 1e400}}', "tolerance"),
        ('{"model": "logreg", "model_params": {"threshold": 1e400}}', "threshold"),
        ('{"model": "logreg", "model_params": {"threshold": -1e400}}', "threshold"),
        ('{"model": "rf", "model_params": {"max_features": 1e400}}', "max_features"),
        ('{"model": "rf", "model_params": {"max_depth": 2.5}}', "max_depth"),
        ('{"model": "rf", "model_params": {"max_features": 2.5}}', "max_features"),
        ('{"model": "svm", "model_params": {"C": 1e400}}', "C"),
        ('{"model": "logreg", "model_params": {"learning_rate": 1e400}}', "learning_rate"),
        ('{"model": "lstm", "model_params": {"learning_rate": 1e400}}', "learning_rate"),
        ('{"split_ratios": [NaN, 0.5, 0.5]}', "split_ratios"),
        ('{"split_ratios": [Infinity, 0.5, 0.5]}', "split_ratios"),
    ],
)
def test_a_parameter_outside_its_domain_exits_1(runs, tmp_path, capsys, config_text, named):
    assert _train_raw(runs, tmp_path, config_text) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "model, params",
    [
        ("knn", '{"k": 0}'),
        ("logreg", '{"tolerance": 1e400}'),
        ("rf", '{"max_depth": 2.5}'),
        ("svm", '{"gamma": NaN}'),
        ("lstm", '{"patience": 0}'),
        ("constant", '{"class": 2}'),
    ],
)
def test_the_domain_check_runs_before_any_data_is_read(runs, tmp_path, capsys, model, params):
    text = '{"model": "%s", "model_params": %s}' % (model, params)
    # Reading the missing features file would exit 2.
    assert _train_raw(runs, tmp_path, text, features=tmp_path / "missing.csv") == 1
    assert f"error: {model} parameter" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["nan", "1e400", "-inf"])
def test_predict_threshold_must_be_finite(runs, tmp_path, capsys, threshold):
    root, features = runs
    argv = [
        "predict", "--features", str(features), "--model", str(root / "logreg" / "model.json"),
        f"--threshold={threshold}", "--out", str(tmp_path / "p"),
    ]
    assert main(argv) == 1
    assert "threshold must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_refuses_a_patient_effect_that_is_not_finite(tmp_path, capsys, value):
    argv = ["synth", "--patients", "3", "--patient-effect", value, "--out", str(tmp_path / "s")]
    assert main(argv) == 1
    assert "patient_effect_scale must be a finite number >= 0" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--epoch-len", "nan"], "epoch_len_s"),
        (["--epoch-len", "inf"], "epoch_len_s"),
        (["--task", "prediction", "--horizon", "nan"], "horizon_s"),
    ],
)
def test_ingest_checks_its_lengths_before_reading_any_file(tmp_path, capsys, flags, named):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.edf").write_bytes(b"not an EDF file")
    assert main(["ingest", "--edf-dir", str(src), *flags, "--out", str(tmp_path / "s")]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("logreg", "tolerance", float("inf")),
        ("rf", "max_depth", 2.5),
        ("svm", "gamma", -1.0),
        ("svm", "C", 0),
        ("knn", "k", 0),
        ("knn", "k", 2.5),
        ("knn", "k", True),
    ],
)
def test_a_model_file_outside_the_domain_is_a_data_error(runs, tmp_path, capsys, name, key, value):
    root, features = runs
    doc = json.loads((root / name / "model.json").read_text(encoding="utf-8"))
    doc["config"][key] = value
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    argv = [
        "eval", "--features", str(features), "--model", str(model), "--out", str(tmp_path / "e"),
    ]
    assert main(argv) == 2
    assert f"malformed {name} model document" in capsys.readouterr().err


def _assert_edited_model_is_a_data_error(runs, tmp_path, capsys, name, edit):
    """eval and predict of the name model file, changed in place by edit,
    each exit 2 with a data error that names the file."""
    root, features = runs
    doc = json.loads((root / name / "model.json").read_text(encoding="utf-8"))
    edit(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("eval", "predict"):
        argv = [
            command, "--features", str(features), "--model", str(model),
            "--out", str(tmp_path / command),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {model}: malformed {name} model document")
        assert not (tmp_path / command).exists()


@pytest.mark.parametrize("name", ["knn", "logreg", "rf", "svm", "lstm", "constant"])
def test_an_unknown_config_key_in_a_model_file_is_a_data_error(runs, tmp_path, capsys, name):
    def edit(doc):
        doc["config"]["colour"] = 1

    _assert_edited_model_is_a_data_error(runs, tmp_path, capsys, name, edit)


@pytest.mark.parametrize("name", ["knn", "rf", "svm", "constant"])
def test_a_threshold_in_a_model_file_without_one_is_a_data_error(runs, tmp_path, capsys, name):
    def edit(doc):
        doc["config"]["threshold"] = 0.3

    _assert_edited_model_is_a_data_error(runs, tmp_path, capsys, name, edit)


@pytest.mark.parametrize("name", ["knn", "logreg", "rf", "svm", "constant"])
def test_a_sequence_length_in_a_row_models_file_is_a_data_error(runs, tmp_path, capsys, name):
    def edit(doc):
        doc["config"]["sequence_length"] = 5

    _assert_edited_model_is_a_data_error(runs, tmp_path, capsys, name, edit)


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("svm", "tol", 0.5),
        ("svm", "max_passes", 1),
        ("lstm", "epochs", 99),
        ("lstm", "learning_rate", 0.5),
        ("lstm", "hidden_dim", 2),
        ("constant", "class", 1),
        ("svm", "seed", 0),
        ("lstm", "seed", 0),
        ("knn", "seed", 0),
        ("constant", "seed", 0),
    ],
)
def test_a_training_key_the_model_file_does_not_write_is_a_data_error(
    runs, tmp_path, capsys, name, key, value
):
    """A model file's config holds only what its type's to_doc writes, plus
    the carried threshold and sequence_length; a training parameter it
    would silently ignore is refused."""
    def edit(doc):
        doc["config"][key] = value

    _assert_edited_model_is_a_data_error(runs, tmp_path, capsys, name, edit)


@pytest.mark.parametrize("name", ["logreg", "rf"])
def test_logreg_and_rf_files_keep_their_seed_and_training_keys(runs, tmp_path, name):
    root, features = runs
    model = root / name / "model.json"
    doc = json.loads(model.read_text(encoding="utf-8"))
    assert set(doc["config"]) == {*MODELS[name].defaults, "seed"} - {"threshold"}
    argv = ["predict", "--features", str(features), "--model", str(model), "--out", str(tmp_path / "p")]
    assert main(argv) == 0


@pytest.mark.parametrize(
    "name, section, key, edit",
    [
        pytest.param("lstm", "weights", "b_i", lambda v: v + [0.0], id="lstm-b_i-longer"),
        pytest.param("lstm", "weights", "w_out", lambda v: v[:-1], id="lstm-w_out-shorter"),
        pytest.param("svm", "params", "alphas", lambda v: v[:-1], id="svm-alphas-shorter"),
        pytest.param("knn", "params", "train_y", lambda v: v[:-1], id="knn-train_y-shorter"),
        pytest.param("knn", "config", "k", lambda v: 10**6, id="knn-k-above-the-rows"),
        pytest.param(
            "rf", "params", "trees", lambda v: [{**v[0], "feature": 99}, *v[1:]], id="rf-feature-99"
        ),
        pytest.param(
            "rf", "params", "trees", lambda v: [{**v[0], "feature": -1}, *v[1:]], id="rf-feature-negative"
        ),
        pytest.param("constant", "params", "class", lambda v: 0.7, id="constant-class-0.7"),
        pytest.param("constant", "params", "class", lambda v: True, id="constant-class-true"),
    ],
)
def test_a_model_file_whose_fields_disagree_is_a_data_error(
    runs, tmp_path, capsys, name, section, key, edit
):
    def change(doc):
        doc[section][key] = edit(doc[section][key])

    _assert_edited_model_is_a_data_error(runs, tmp_path, capsys, name, change)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda v: [], id="no-trees"),
        pytest.param(lambda v: v[:-1], id="one-tree-fewer"),
        pytest.param(lambda v: v + v[:1], id="one-tree-more"),
    ],
)
def test_an_rf_file_whose_tree_count_is_not_n_trees_is_a_data_error(runs, tmp_path, capsys, edit):
    def change(doc):
        doc["params"]["trees"] = edit(doc["params"]["trees"])

    _assert_edited_model_is_a_data_error(runs, tmp_path, capsys, "rf", change)


@pytest.mark.parametrize("label", [7, -1, 0.5, 1.0, True, None, "1"])
def test_a_knn_file_with_a_label_other_than_0_or_1_is_a_data_error(runs, tmp_path, capsys, label):
    def change(doc):
        doc["params"]["train_y"][0] = label

    _assert_edited_model_is_a_data_error(runs, tmp_path, capsys, "knn", change)


def _rf_node(doc, leaf: bool) -> dict:
    """The first leaf (or split) of an rf document's trees, depth first."""
    stack = doc["params"]["trees"][::-1]
    while stack:
        node = stack.pop()
        if ("counts" in node) == leaf:
            return node
        stack += [node["right"], node["left"]]
    raise AssertionError("the forest has no such node")


def _set(section, key, value):
    """An edit that sets doc[section][key] to value(the old value)."""
    return lambda doc: doc[section].update({key: value(doc[section][key])})


@pytest.mark.parametrize(
    "name, edit",
    [
        pytest.param("logreg", _set("params", "weights", lambda v: 0.5), id="logreg-weights-a-scalar"),
        pytest.param("logreg", _set("params", "weights", lambda v: list(map(str, v))), id="logreg-weights-strings"),
        pytest.param("logreg", _set("params", "weights", lambda v: [[w] for w in v]), id="logreg-weights-rank-2"),
        pytest.param("logreg", _set("params", "weights", lambda v: [True, *v[1:]]), id="logreg-weights-a-bool"),
        pytest.param("svm", _set("params", "support_vectors", lambda v: [[r] for r in v]), id="svm-sv-rank-3"),
        pytest.param("logreg", _set("params", "n_iters", lambda v: 2.7), id="logreg-n_iters-2.7"),
        pytest.param("svm", _set("params", "n_iters", lambda v: 2.7), id="svm-n_iters-2.7"),
        pytest.param("logreg", _set("params", "converged", lambda v: "no"), id="logreg-converged-no"),
        pytest.param("svm", _set("params", "converged", lambda v: "no"), id="svm-converged-no"),
        pytest.param("svm", _set("params", "bias", lambda v: "0.5"), id="svm-bias-a-string"),
        pytest.param("knn", _set("params", "train_X", lambda v: [v[0][:-1], *v[1:]]), id="knn-train_X-ragged"),
        pytest.param("lstm", _set("weights", "b_out", lambda v: [v]), id="lstm-b_out-a-list"),
        pytest.param("lstm", _set("weights", "W_i", lambda v: v[:-1]), id="lstm-W_i-fewer-rows"),
        pytest.param("lstm", _set("dims", "input_dim", lambda v: v + 1), id="lstm-input_dim-disagrees"),
        pytest.param("lstm", _set("dims", "hidden_dim", lambda v: float(v)), id="lstm-hidden_dim-a-float"),
        pytest.param("svm", _set("config", "gamma", lambda v: None), id="svm-gamma-null"),
        pytest.param("svm", lambda doc: doc["params"].update(colour=1), id="svm-unknown-params-key"),
        pytest.param("lstm", lambda doc: doc["dims"].pop("input_dim"), id="lstm-no-input_dim"),
        pytest.param("rf", lambda doc: _rf_node(doc, leaf=True).update(counts=[-3, 1]), id="rf-count-negative"),
        pytest.param("rf", lambda doc: _rf_node(doc, leaf=True).update(counts=[1.5, 0]), id="rf-count-a-float"),
        pytest.param("rf", lambda doc: _rf_node(doc, leaf=True).update(counts=[True, 0]), id="rf-count-a-bool"),
        pytest.param("rf", lambda doc: _rf_node(doc, leaf=True).update(counts=[1, 2, 3]), id="rf-three-counts"),
        pytest.param("rf", lambda doc: _rf_node(doc, leaf=False).update(feature=True), id="rf-feature-true"),
        pytest.param("rf", lambda doc: _rf_node(doc, leaf=False).update(feature=1.0), id="rf-feature-1.0"),
        pytest.param("rf", lambda doc: _rf_node(doc, leaf=False).update(threshold="0.5"), id="rf-threshold-string"),
    ],
)
def test_a_model_file_outside_its_layout_is_a_data_error(runs, tmp_path, capsys, name, edit):
    """Every model type's file is read by one rule: arrays hold JSON numbers
    of their kind, of their rank, with one length per named axis; scalars
    lie in their domains; rf trees hold counts, features and thresholds."""
    _assert_edited_model_is_a_data_error(runs, tmp_path, capsys, name, edit)

