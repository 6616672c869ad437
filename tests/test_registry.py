"""The model registry: one definition per model and one scoring path."""

import argparse
import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seizurekit import ConfigError, DataError
from seizurekit.cli import build_parser
from seizurekit.models import (
    MODELS,
    KnnModel,
    RFConfig,
    knn_vote,
    load_model,
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
from seizurekit.pipeline import PipelineConfig, run_holdout, score_features
from seizurekit.synthetic import SynthConfig, generate_synthetic


def classify(model, X):
    """The classes that the model's registry entry gives X."""
    return spec_for(model).score(model, X)[0]


# Small settings so that every model trains in well under a second.
SMALL_PARAMS = {
    "knn": {"k": 3, "class_weights": "balanced"},
    "logreg": {"max_iters": 50, "class_weights": {"0": 1.0, "1": 3.0}},
    "rf": {"n_trees": 4, "max_depth": 3},
    "svm": {"max_passes": 3},
    "lstm": {"hidden_dim": 4, "epochs": 2},
    "constant": {"class": 1},
}


@pytest.fixture(scope="module")
def data():
    return generate_synthetic(
        SynthConfig(n_patients=6, epochs_per_patient=60, n_channels=2, seed=0)
    )


@pytest.mark.parametrize("name", list(MODELS))
def test_every_model_scores_the_same_after_save_and_load(name, data, tmp_path):
    fm, labels = data
    cfg = PipelineConfig(model=name, model_params=SMALL_PARAMS.get(name, {}), seed=1)
    result = run_holdout(fm, labels, cfg)
    path = tmp_path / "model.json"
    save_model(result.model, result.scaler, result.fit_patients, path)
    back, scaler, fit_patients = load_model(path)
    assert np.array_equal(scaler.mean, result.scaler.mean)
    assert np.array_equal(scaler.std, result.scaler.std)
    assert fit_patients == result.fit_patients

    inputs, classes, scores, _ = score_features(result.model, result.scaler, fm, labels)
    _, classes_back, scores_back, _ = score_features(back, scaler, fm, labels)
    assert np.array_equal(classes, classes_back)
    assert np.array_equal(scores, scores_back)
    assert classes.dtype == np.int64
    assert len(classes) == len(scores) == len(inputs) > 0

    assert json.loads(path.read_text(encoding="utf-8"))["model_type"] == name
    again = tmp_path / "again.json"
    save_model(back, scaler, fit_patients, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("name", list(MODELS))
def test_config_keys_are_the_keys_of_the_config_to_doc_writes(name, data):
    fm, labels = data
    cfg = PipelineConfig(model=name, model_params=SMALL_PARAMS.get(name, {}), seed=1)
    model = run_holdout(fm, labels, cfg).model
    assert set(MODELS[name].to_doc(model)["config"]) == set(MODELS[name].config_keys)


@pytest.mark.parametrize("name", ["logreg", "lstm"])
def test_a_model_scores_at_the_threshold_it_carries(name, data, tmp_path):
    fm, labels = data
    params = {**SMALL_PARAMS[name], "threshold": 0.1}
    result = run_holdout(fm, labels, PipelineConfig(model=name, model_params=params, seed=0))
    path = tmp_path / "model.json"
    save_model(result.model, result.scaler, result.fit_patients, path)
    back, scaler, _ = load_model(path)
    for model in (result.model, back):
        assert model.threshold == 0.1
        inputs, classes, scores, _ = score_features(model, scaler, fm, labels)
        assert np.array_equal(classes, (scores >= 0.1).astype(np.int64))
        assert np.array_equal(spec_for(model).score(model, inputs.inputs)[0], classes)
        if name == "lstm":
            assert np.array_equal(lstm_predict(model, inputs.inputs)[0], classes)
        assert ((scores >= 0.1) & (scores < 0.5)).any()  # 0.1 and 0.5 give other classes


@pytest.mark.parametrize("name", list(MODELS))
def test_score_takes_only_the_model_and_its_inputs(name):
    params = inspect.signature(MODELS[name].score).parameters.values()
    assert [p.default for p in params] == [inspect.Parameter.empty] * 2


def test_model_choices_are_the_registry_names():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("train", "cv"):
        option = next(a for a in commands.choices[command]._actions if a.dest == "model")
        assert tuple(option.choices) == tuple(MODELS)


@pytest.mark.parametrize("name", list(MODELS))
def test_defaults_are_the_allowed_params(name):
    spec = MODELS[name]
    assert PipelineConfig(model=name, model_params=dict(spec.defaults)).params == spec.defaults
    with pytest.raises(ConfigError, match="allowed"):
        PipelineConfig(model=name, model_params={"no_such_param": 1})


def test_sequence_model_rejects_row_options():
    sequential = [name for name, spec in MODELS.items() if spec.sequential]
    assert sequential == ["lstm"]
    with pytest.raises(ConfigError, match="smote"):
        PipelineConfig(model="lstm", use_smote=True)
    with pytest.raises(ConfigError, match="max_train_rows"):
        PipelineConfig(model="lstm", max_train_rows=50)


def test_scores_match_the_model_functions():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(np.int64)
    q = rng.normal(size=(25, 3))

    rf = rf_fit(X, y, RFConfig(n_trees=4, max_depth=2, seed=0))
    classes, scores = spec_for(rf).score(rf, q)
    assert np.array_equal(classes, (rf_scores(rf, q) > 0.5).astype(np.int64))
    assert np.array_equal(scores, rf_scores(rf, q))
    # An even forest ties on some rows; a tie goes to class 0.
    votes = np.rint(scores * 4).astype(int)
    assert np.array_equal(classes, (votes * 2 > 4).astype(np.int64))

    svm = svm_fit_smo(X, y, C=1.0, gamma=0.5, seed=0)
    classes, scores = spec_for(svm).score(svm, q)
    assert np.array_equal(classes, (svm_decision(svm, q) >= 0).astype(np.int64))
    assert np.array_equal(scores, svm_decision(svm, q))


def test_unregistered_and_malformed_models_are_data_errors():
    with pytest.raises(DataError):
        spec_for(object())
    doc = model_to_dict(rf_fit(np.array([[0.0], [1.0]]), np.array([0, 1]), RFConfig(n_trees=1)))
    del doc["params"]["n_features"]
    with pytest.raises(DataError, match="malformed rf"):
        model_from_dict(doc)
    with pytest.raises(DataError):
        model_from_dict({"model_type": ["rf"]})


# ---------------------------------------------------------------- one-pass kNN


def _reference_scores(train_X, train_y, X, k, class_weights):
    """Weighted share of class 1 among the k nearest rows; distance ties
    rank the lower row index first."""
    out = []
    for q in X:
        dist = np.sqrt(((train_X - q) ** 2).sum(axis=1))
        nearest = sorted(range(len(train_X)), key=lambda i: (dist[i], i))[:k]
        w = [1.0 if class_weights is None else class_weights[int(train_y[i])] for i in nearest]
        pos = sum(wi for wi, i in zip(w, nearest) if train_y[i] == 1)
        out.append(pos / sum(w))
    return out


@st.composite
def knn_cases(draw):
    d = draw(st.integers(1, 3))
    coord = st.integers(-2, 2).map(float)
    row = st.lists(coord, min_size=d, max_size=d)
    distinct = draw(st.lists(row, min_size=1, max_size=6))
    # Rows drawn with repeats from a few integer points: exact distance ties.
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=14))
    train_X = np.array([distinct[i] for i in picks])
    train_y = np.array(draw(st.lists(st.integers(0, 1), min_size=len(picks), max_size=len(picks))))
    queries = np.array(draw(st.lists(row, min_size=1, max_size=6)))
    k = draw(st.integers(1, len(picks)))  # even k gives vote ties
    weight = st.sampled_from([0.5, 1.0, 2.0, 3.0])  # sums stay exact; 1 vs 2 ties votes
    class_weights = draw(st.none() | st.fixed_dictionaries({0: weight, 1: weight}))
    return train_X, train_y, queries, k, class_weights


@settings(max_examples=300, deadline=None)
@given(knn_cases())
def test_one_pass_knn_matches_per_row_reference(case):
    train_X, train_y, queries, k, class_weights = case
    classes, scores = knn_vote(train_X, train_y, queries, k, class_weights)
    assert classes.tolist() == [
        int(knn_vote(train_X, train_y, [q], k, class_weights)[0][0]) for q in queries
    ]
    assert scores.tolist() == _reference_scores(train_X, train_y, queries, k, class_weights)
    model = KnnModel(train_X, train_y, k, class_weights)
    registry_classes, registry_scores = spec_for(model).score(model, queries)
    assert np.array_equal(registry_classes, classes)
    assert np.array_equal(registry_scores, scores)
