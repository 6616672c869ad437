"""JSON serialization round-trips for every model family."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seizurekit import DataError, SPEC_VERSION, Scaler
from seizurekit.errors import json_text, write_json
from seizurekit.models import (
    MODELS,
    ConstantModel,
    KnnModel,
    LogRegConfig,
    LogRegModel,
    RFConfig,
    RFModel,
    SVMModel,
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
from seizurekit.models.forest import TreeNode

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


# Lists of ints and floats take write_json's fast path; st.floats() draws NaN
# and ±Infinity, st.text() non-ASCII characters.
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.lists(st.floats()) | st.lists(st.integers() | st.floats())
)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner)
    | st.dictionaries(st.integers(), inner),
    max_leaves=20,
)


@settings(deadline=None)
@given(doc=_JSON_DOCS)
@example(doc={"é": [], "t": (True, None), "n": {10: {}, 2: [[1.5, -0.0], [float("nan")], [-float("inf"), 3]]}})
def test_written_json_is_json_dumps_text(tmp_path_factory, doc):
    want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert json_text(doc) == want
    path = tmp_path_factory.getbasetemp() / "doc.json"
    write_json(path, doc)
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("array", [
    np.zeros((0, 3)), np.zeros((3, 0)), np.arange(6.0).reshape(2, 3) / 7, np.arange(24).reshape(2, 3, 4),
    np.array([-0.0, 1e-310, 2.5]), np.float64(0.1), np.array([[1.5, np.nan], [np.inf, 3.0]]),
])
def test_numpy_arrays_and_iterators_are_written_as_their_lists(tmp_path, array):
    """write_json writes an array of rows a row at a time and an iterator
    an item at a time: the text is json.dumps' for the array's tolist()."""
    doc = {"a": array, "it": map(np.asarray, array.tolist()) if array.ndim else iter(()), "e": iter([])}
    plain = {"a": array.tolist(), "it": array.tolist() if array.ndim else [], "e": []}
    path = tmp_path / "doc.json"
    write_json(path, doc)
    assert path.read_text(encoding="utf-8") == json.dumps(plain, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------- the bytes of every model file


def _golden_models():
    """One small model of each type, built from fixed arrays (lstm's drawn
    by init_params), so no BLAS product touches a number."""
    leaf = TreeNode
    return [
        KnnModel(
            train_X=np.array([[0.5, -1.25], [2.0, 0.1], [-3.0, 1e-3]]),
            train_y=np.array([0, 1, 1]),
            k=2,
            class_weights={0: 1.0, 1: 2.5},
        ),
        LogRegModel(
            weights=np.array([0.1, -2.5]),
            bias=0.3,
            config=LogRegConfig(max_iters=7, class_weights={0: 1.0, 1: 3.0}, seed=4),
            n_iters=7,
            threshold=0.25,
        ),
        RFModel(
            trees=(
                TreeNode(feature=1, threshold=0.5, left=leaf(counts=(3, 0)), right=leaf(counts=(1, 2))),
                leaf(counts=(2, 2)),
            ),
            config=RFConfig(n_trees=2, max_depth=3, seed=9),
            n_features=2,
        ),
        SVMModel(
            support_vectors=np.array([[0.0, 1.0], [1.5, -0.5]]),
            alphas=np.array([0.7, 0.7]),
            labels=np.array([1.0, -1.0]),
            bias=-0.125,
            gamma=0.5,
            C=2.0,
            n_iters=11,
        ),
        replace(init_params(2, hidden_dim=3, seed=1), sequence_length=4, threshold=0.4),
        ConstantModel(constant_class=1),
    ]


# The sha256 of each file below as the codec wrote it before every model
# type came to share one file layout table; any change to a model file's
# bytes shows here.
GOLDEN_SHA256 = {
    "constant": "4e2d4d1d5b7f4f2a5262b5672e208bdc4a921977f8d61076226319cc663083cb",
    "knn": "00b38684d6cab504090dfab1b125bfdf93c7e3117194e7a2617e699245f70536",
    "logreg": "f0e09ff01d23d8340f050d963f6d70212c7a406983db46c1e4a6f594a01f84fc",
    "lstm": "76e939e99390615de36140724dddb2949e1604f56c676b7e8daa5ef46ab1e124",
    "rf": "76b98ec75b27e3234fd20b8adcaa0309912fe2d88d6582cf493cd49f20e08843",
    "svm": "59a676dffac0518444a132f0c6b887dd706cc05b387e477ff3b8f39b28fd43eb",
}


def test_every_model_file_keeps_its_bytes(tmp_path):
    scaler = Scaler(mean=np.array([0.25, -1.0]), std=np.array([1.5, 0.0]))
    got = {}
    for model in _golden_models():
        path = tmp_path / "model.json"
        save_model(model, scaler, ["P02", "P01"], path)
        got[spec_for(model).name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == GOLDEN_SHA256


def test_a_model_document_nested_too_deep_to_walk_is_a_data_error():
    """Nesting that parses but is too deep to walk is a malformed document, not a RecursionError."""
    doc = model_to_dict(ConstantModel(constant_class=1))
    for _ in range(20_000):
        doc["params"]["class"] = [doc["params"]["class"]]
    with pytest.raises(DataError, match="malformed constant model document"):
        model_from_dict(doc)
    doc = model_to_dict(_golden_models()[2])
    tree = {"counts": [1, 0]}
    for _ in range(20_000):
        tree = {"feature": 0, "threshold": 0.5, "left": tree, "right": {"counts": [0, 1]}}
    doc["params"]["trees"] = [tree, tree]
    with pytest.raises(DataError, match="malformed rf model document"):
        model_from_dict(doc)
