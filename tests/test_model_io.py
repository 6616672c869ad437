"""JSON serialization round-trips for every model family."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seizurekit import DataError, SPEC_VERSION, Scaler
from seizurekit.models import (
    MODELS,
    ConstantModel,
    KnnModel,
    LogRegConfig,
    RFConfig,
    init_params,
    load_model,
    logreg_fit,
    logreg_predict_proba,
    lstm_predict,
    model_from_dict,
    model_to_dict,
    rf_fit,
    rf_scores,
    save_model,
    spec_for,
    svm_decision,
    svm_fit_smo,
)

# save_model needs a scaler; these tests score the models directly, so any will do.
SCALER = Scaler(mean=np.zeros(2), std=np.ones(2))


def test_logreg_round_trip_preserves_predictions(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 4))
    y = (X[:, 0] > 0).astype(int)
    model = logreg_fit(X, y, LogRegConfig(max_iters=100, class_weights={0: 1.0, 1: 2.0}))
    path = tmp_path / "model.json"
    save_model(model, SCALER, [], path)
    back, _, _ = load_model(path)
    q = rng.normal(size=(10, 4))
    assert np.array_equal(logreg_predict_proba(model, q), logreg_predict_proba(back, q))
    assert back.config.class_weights == {0: 1.0, 1: 2.0}
    assert back.n_iters == model.n_iters
    assert back.converged == model.converged


def test_rf_round_trip_preserves_trees(tmp_path):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, size=40)
    model = rf_fit(X, y, RFConfig(n_trees=5, max_depth=3, seed=7))
    path = tmp_path / "rf.json"
    save_model(model, SCALER, [], path)
    back, _, _ = load_model(path)
    q = rng.normal(size=(15, 3))
    assert np.array_equal(rf_scores(model, q), rf_scores(back, q))
    assert back.config == model.config
    assert back.n_features == 3


def test_svm_round_trip_preserves_decision(tmp_path):
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    model = svm_fit_smo(X, y, C=10.0, gamma=2.0, seed=1)
    path = tmp_path / "svm.json"
    save_model(model, SCALER, [], path)
    back, _, _ = load_model(path)
    assert np.array_equal(svm_decision(model, X), svm_decision(back, X))
    assert back.gamma == model.gamma and back.C == model.C
    assert back.converged == model.converged


def test_knn_round_trip_preserves_votes(tmp_path):
    rng = np.random.default_rng(3)
    model = KnnModel(
        train_X=rng.normal(size=(20, 2)),
        train_y=rng.integers(0, 2, size=20),
        k=3,
        class_weights={0: 1.0, 1: 2.0},
    )
    path = tmp_path / "knn.json"
    save_model(model, SCALER, [], path)
    back, _, _ = load_model(path)
    q = rng.normal(size=(8, 2))
    score = spec_for(model).score
    assert np.array_equal(score(model, q)[0], score(back, q)[0])
    assert back.class_weights == {0: 1.0, 1: 2.0}  # JSON keys restored to ints
    assert back.k == 3


def test_lstm_round_trip_preserves_probabilities(tmp_path):
    params = init_params(4, hidden_dim=6, seed=5)
    path = tmp_path / "lstm.json"
    save_model(params, SCALER, [], path)
    back, _, _ = load_model(path)
    seqs = np.random.default_rng(6).normal(size=(5, 7, 4))
    assert np.array_equal(lstm_predict(params, seqs)[1], lstm_predict(back, seqs)[1])
    doc = json.loads(path.read_text())
    assert doc["model_type"] == "lstm"
    assert doc["dims"] == {"input_dim": 4, "hidden_dim": 6}
    assert set(doc["weights"]) == {
        "W_i", "W_f", "W_o", "W_g", "b_i", "b_f", "b_o", "b_g", "w_out", "b_out"
    }


def test_constant_round_trip(tmp_path):
    path = tmp_path / "c.json"
    save_model(ConstantModel(constant_class=1), SCALER, [], path)
    back, _, _ = load_model(path)
    assert back.constant_class == 1


def test_documents_carry_type_and_version(tmp_path):
    model = ConstantModel(constant_class=0)
    doc = model_to_dict(model)
    assert doc["model_type"] == "constant"
    assert doc["spec_version"] == SPEC_VERSION
    path = tmp_path / "m.json"
    save_model(model, SCALER, [], path)
    raw = path.read_text()
    assert raw.endswith("\n")
    assert json.loads(raw)["spec_version"] == SPEC_VERSION


def test_bad_documents_rejected(tmp_path):
    with pytest.raises(DataError):
        model_from_dict({"params": {}})
    with pytest.raises(DataError):
        model_from_dict({"model_type": "perceptron"})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataError):
        load_model(bad)


def test_unsupported_object_rejected():
    with pytest.raises(DataError):
        model_to_dict(object())


# ---------------------------------------------------------------- numbers a model file may not hold


def _numbers(value, path=()):
    """The path of every number (not bool) in a parsed JSON value, and whether it is a float."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        if isinstance(item, (int, float)) and not isinstance(item, bool):
            yield (*path, key), isinstance(item, float)
        yield from _numbers(item, (*path, key))


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Each model type -> (the document of a small fitted model, the path of
    each number under its fitted sections with whether it is a float, a
    file to write edited copies to)."""
    rng = np.random.default_rng(8)
    X = rng.normal(size=(24, 2))
    y = (X[:, 0] > 0).astype(int)
    models = [
        KnnModel(train_X=X, train_y=y, k=3, class_weights=None),
        replace(logreg_fit(X, y, LogRegConfig(max_iters=5)), threshold=0.3),
        rf_fit(X, y, RFConfig(n_trees=2, max_depth=2, seed=0)),
        svm_fit_smo(X, y, C=1.0, gamma=0.5, max_passes=2, seed=0),
        init_params(2, hidden_dim=2, seed=0),
        ConstantModel(constant_class=1),
    ]
    root = tmp_path_factory.mktemp("numbers")
    out = {}
    for model in models:
        name = spec_for(model).name
        save_model(model, SCALER, ["P01"], root / f"{name}.json")
        doc = json.loads((root / f"{name}.json").read_text(encoding="utf-8"))
        numbers = [
            ((section, *path), is_float)
            for section in ("params", "weights") if section in doc
            for path, is_float in _numbers(doc[section])
        ]
        out[name] = doc, numbers, root / f"edited_{name}.json"
    return out


def _write_with(doc, where, literal, to):
    """Write doc to the file to, with the number at the path where spelled as literal."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = "@"
    to.write_text(json.dumps(doc).replace('"@"', literal), encoding="utf-8")


_NOT_FINITE = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(MODELS)), literal=st.sampled_from(_NOT_FINITE))
def test_a_number_in_a_model_file_that_is_not_a_finite_float_is_a_data_error(
    saved, data, name, literal
):
    doc, numbers, path = saved[name]
    where, _ = data.draw(st.sampled_from(numbers))
    _write_with(doc, where, literal, path)
    with pytest.raises(DataError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: {name} {where[1]} contains non-finite values"


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(sorted(set(MODELS) - {"constant"})),  # a constant model holds no float
    value=st.floats(allow_nan=False, allow_infinity=False),
)
def test_a_finite_float_in_place_of_a_fitted_float_still_loads(saved, data, name, value):
    doc, numbers, path = saved[name]
    where = data.draw(st.sampled_from([w for w, is_float in numbers if is_float]))
    _write_with(doc, where, repr(value), path)
    model, _, fit_patients = load_model(path)
    assert spec_for(model).name == name and fit_patients == ["P01"]
