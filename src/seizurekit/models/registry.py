"""The model registry: every model the toolkit trains, defined once.

Each `ModelSpec` entry is the only definition of a model. The keys of its
`defaults` are the model's allowed `model_params` and `domains` the values
each may take; `fit` trains it on scaled inputs, `score(model, X)` gives
(classes, ranking scores) in one pass and is the only rule that turns a
model's scores into classes, and `to_doc`/`from_doc` convert it to and
from its JSON document. Config validation, the pipeline, model persistence and
the CLI's `--model` choices all read `MODELS`.

A model whose `defaults` name a `threshold` carries the one it was fitted
with as its `threshold` attribute, and `score` classifies at it; an lstm
carries its window length as `sequence_length`. Only models/io.py writes
and reads both. It allows in a file's `config` only `config_keys` and
those two, and checks each against `domains` (`seed` against its own), so
`from_doc` sees neither. A `from_doc` raises ValueError on fields of
unequal shapes and on a field that disagrees with `config` or holds a
value the model cannot use (an rf tree count other than `n_trees`, a knn
label other than 0 or 1).

Entries call model functions through their module at call time (for
example `forest.rf_scores`), never through a reference captured at import,
so a wrapper installed on a module attribute sees every call.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable

import numpy as np

from ..domains import Domain, check_params, defaults_of, domains_of
from ..errors import DataError
from . import baseline, forest, knn, logistic, lstm, svm

# SMO cost grows quadratically with rows, so SVM training is capped to a
# seeded stratified subsample unless the caller sets an explicit limit.
DEFAULT_SVM_TRAIN_CAP = 3000

# Parameters that more than one model takes.
CLASS_WEIGHTS = Domain(dict, 0, lo_open=True, auto=True)
# A threshold above every score labels every row 0, one at or below every
# score labels every row 1; both are legal.
THRESHOLD = Domain(float)


@dataclass(frozen=True)
class ModelSpec:
    name: str
    cls: type  # type of the trained model object
    defaults: dict  # allowed model_params and their default values
    domains: dict  # model_params -> the Domain of its values
    fit: Callable  # (X, y, params, seed, val) -> (model, extra report fields)
    score: Callable  # (model, X) -> (classes, ranking scores)
    to_doc: Callable  # model -> JSON document fields besides model_type/spec_version
    from_doc: Callable  # JSON document -> model
    config_keys: tuple = ()  # the keys of the `config` that to_doc writes
    sequential: bool = False  # inputs are build_sequences windows, not rows
    train_cap: int | None = None  # max_train_rows when the config sets none


def resolve_class_weights(spec, y) -> dict | None:
    """None, an explicit {class: weight} dict, or 'balanced' (inverse frequency)."""
    check_params("model", {"class_weights": spec}, {"class_weights": CLASS_WEIGHTS})
    if spec is None:
        return None
    if spec == "balanced":
        y = np.asarray(y)
        n = len(y)
        out = {}
        for c in (0, 1):
            n_c = int((y == c).sum())
            out[c] = n / (2.0 * n_c) if n_c else 1.0
        return out
    return {int(k): float(v) for k, v in spec.items()}


def _with_convergence(model):
    """A fit's result for a model with iterations: the model, and its
    iteration count and convergence flag for the run report."""
    return model, {"n_iters": model.n_iters, "converged": model.converged}


def _typed(p: dict, domains: dict) -> dict:
    """The entries of p named in domains, each as its domain's int or float (None stays)."""
    return {k: None if p[k] is None else domains[k].kind(p[k]) for k in domains}


# ---------------------------------------------------------------- knn


def _fit_knn(X, y, p, seed, val):
    model = knn.KnnModel(
        train_X=np.asarray(X, dtype=np.float64),
        train_y=np.asarray(y, dtype=np.int64),
        k=int(p["k"]),
        class_weights=resolve_class_weights(p["class_weights"], y),
    )
    return model, {}


def _knn_from_doc(doc):
    if not all(y in baseline.DOMAINS["class"] for y in doc["params"]["train_y"]):
        raise ValueError("train_y holds a label other than 0 or 1")
    model = knn.KnnModel(
        train_X=np.array(doc["params"]["train_X"], dtype=np.float64),
        train_y=np.array(doc["params"]["train_y"], dtype=np.int64),
        k=doc["config"]["k"],
        # JSON turned the int class keys into strings.
        class_weights=resolve_class_weights(doc["config"].get("class_weights"), None),
    )
    if model.train_X.ndim != 2 or model.train_y.shape != model.train_X.shape[:1]:
        raise ValueError(f"train_X of shape {model.train_X.shape}, train_y {model.train_y.shape}")
    if model.k > len(model.train_y):
        raise ValueError(f"k={model.k} exceeds the {len(model.train_y)} training rows")
    return model


_KNN = ModelSpec(
    name="knn",
    cls=knn.KnnModel,
    defaults={"k": 2, "class_weights": None},
    domains={**knn.DOMAINS, "class_weights": CLASS_WEIGHTS},
    fit=_fit_knn,
    score=lambda m, X: knn.knn_vote(m.train_X, m.train_y, X, m.k, m.class_weights),
    to_doc=lambda m: {
        "params": {"train_X": m.train_X.tolist(), "train_y": m.train_y.tolist()},
        "config": {"k": m.k, "class_weights": m.class_weights},
    },
    from_doc=_knn_from_doc,
    config_keys=("k", "class_weights"),
)


# ---------------------------------------------------------------- logreg


def _fit_logreg(X, y, p, seed, val):
    cfg = logistic.LogRegConfig(
        **_typed(p, domains_of(logistic.LogRegConfig)),
        class_weights=resolve_class_weights(p["class_weights"], y),
        seed=seed,
    )
    model = logistic.logreg_fit(X, y, cfg)
    return _with_convergence(replace(model, threshold=float(p["threshold"])))


def _score_logreg(m, X):
    proba = logistic.logreg_predict_proba(m, X)
    return (proba >= m.threshold).astype(np.int64), proba


def _logreg_from_doc(doc):
    params, config = doc["params"], doc["config"]
    return logistic.LogRegModel(
        weights=np.array(params["weights"], dtype=np.float64),
        bias=float(params["bias"]),
        # JSON turned the int class keys into strings.
        config=logistic.LogRegConfig(
            **{**config, "class_weights": resolve_class_weights(config["class_weights"], None)}
        ),
        n_iters=int(params.get("n_iters", 0)),
        converged=bool(params.get("converged", False)),
    )


_LOGREG = ModelSpec(
    name="logreg",
    cls=logistic.LogRegModel,
    defaults={**defaults_of(logistic.LogRegConfig), "class_weights": None, "threshold": 0.5},
    domains={
        **domains_of(logistic.LogRegConfig),
        "class_weights": CLASS_WEIGHTS,
        "threshold": THRESHOLD,
    },
    fit=_fit_logreg,
    score=_score_logreg,
    to_doc=lambda m: {
        "params": {
            "weights": m.weights.tolist(),
            "bias": m.bias,
            "n_iters": m.n_iters,
            "converged": m.converged,
        },
        "config": asdict(m.config),
    },
    from_doc=_logreg_from_doc,
    config_keys=tuple(f.name for f in fields(logistic.LogRegConfig)),
)


# ---------------------------------------------------------------- rf


def _fit_rf(X, y, p, seed, val):
    cfg = forest.RFConfig(**_typed(p, domains_of(forest.RFConfig)), seed=seed)
    return forest.rf_fit(X, y, cfg), {}


def _score_rf(m, X):
    # Class 1 on a majority of trees; a share of exactly 0.5 goes to class 0.
    # share > 0.5 is exactly votes > n_trees / 2 for any n_trees < 2**52.
    scores = forest.rf_scores(m, X)
    return (scores > 0.5).astype(np.int64), scores


def _tree_to_dict(node: forest.TreeNode) -> dict:
    if node.is_leaf:
        return {"counts": list(node.counts)}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _tree_to_dict(node.left),
        "right": _tree_to_dict(node.right),
    }


def _tree_from_dict(doc: dict, n_features: int) -> forest.TreeNode:
    if "counts" in doc:
        return forest.TreeNode(counts=(int(doc["counts"][0]), int(doc["counts"][1])))
    if doc["feature"] not in range(n_features):
        raise ValueError(f"split feature {doc['feature']!r} of a model on {n_features} features")
    return forest.TreeNode(
        feature=int(doc["feature"]),
        threshold=float(doc["threshold"]),
        left=_tree_from_dict(doc["left"], n_features),
        right=_tree_from_dict(doc["right"], n_features),
    )


def _rf_from_doc(doc):
    model = forest.RFModel(
        trees=tuple(_tree_from_dict(t, doc["params"]["n_features"]) for t in doc["params"]["trees"]),
        config=forest.RFConfig(**doc["config"]),
        n_features=int(doc["params"]["n_features"]),
    )
    if len(model.trees) != model.config.n_trees:
        raise ValueError(f"{len(model.trees)} trees for n_trees={model.config.n_trees}")
    return model


_RF = ModelSpec(
    name="rf",
    cls=forest.RFModel,
    defaults=defaults_of(forest.RFConfig),
    domains=domains_of(forest.RFConfig),
    fit=_fit_rf,
    score=_score_rf,
    to_doc=lambda m: {
        "params": {"trees": [_tree_to_dict(t) for t in m.trees], "n_features": m.n_features},
        "config": asdict(m.config),
    },
    from_doc=_rf_from_doc,
    config_keys=tuple(f.name for f in fields(forest.RFConfig)),
)


# ---------------------------------------------------------------- svm


def _fit_svm(X, y, p, seed, val):
    return _with_convergence(svm.svm_fit_smo(X, y, **_typed(p, svm.DOMAINS)))


def _score_svm(m, X):
    # Class 1 for a margin >= 0.
    margins = svm.svm_decision(m, X)
    return (margins >= 0).astype(np.int64), margins


def _svm_from_doc(doc):
    params, config = doc["params"], doc["config"]
    model = svm.SVMModel(
        support_vectors=np.array(params["support_vectors"], dtype=np.float64).reshape(
            len(params["support_vectors"]), -1
        ),
        alphas=np.array(params["alphas"], dtype=np.float64),
        labels=np.array(params["labels"], dtype=np.float64),
        bias=float(params["bias"]),
        gamma=float(config["gamma"]),
        C=float(config["C"]),
        converged=bool(params.get("converged", True)),
        n_iters=int(params.get("n_iters", 0)),
    )
    if not model.alphas.shape == model.labels.shape == model.support_vectors.shape[:1]:
        raise ValueError(
            f"{len(model.support_vectors)} support vectors, alphas of shape "
            f"{model.alphas.shape}, labels {model.labels.shape}"
        )
    return model


_SVM = ModelSpec(
    name="svm",
    cls=svm.SVMModel,
    defaults={k: inspect.signature(svm.svm_fit_smo).parameters[k].default for k in svm.DOMAINS},
    domains=svm.DOMAINS,
    fit=_fit_svm,
    score=_score_svm,
    to_doc=lambda m: {
        "params": {
            "support_vectors": m.support_vectors.tolist(),
            "alphas": m.alphas.tolist(),
            "labels": m.labels.tolist(),
            "bias": m.bias,
            "n_iters": m.n_iters,
            "converged": m.converged,
        },
        "config": {"C": m.C, "gamma": m.gamma},
    },
    from_doc=_svm_from_doc,
    config_keys=("C", "gamma"),
    train_cap=DEFAULT_SVM_TRAIN_CAP,
)


# ---------------------------------------------------------------- lstm


def _fit_lstm(X, y, p, seed, val):
    params = lstm.init_params(X.shape[2], hidden_dim=int(p["hidden_dim"]), seed=seed)
    train_cfg = lstm.LstmTrainConfig(**_typed(p, domains_of(lstm.LstmTrainConfig)), seed=seed)
    best, history = lstm.lstm_train((X, y), val, train_cfg, params=params)
    report = {"epochs_run": len(history["train_loss"]), **history}
    return replace(best, sequence_length=X.shape[1], threshold=float(p["threshold"])), report


def _lstm_from_doc(doc):
    dims = doc["dims"]
    weights = {name: np.array(doc["weights"][name], dtype=np.float64) for name in lstm._FIELDS}
    for name, shape in lstm.field_shapes(dims["input_dim"], dims["hidden_dim"]).items():
        if weights[name].shape != shape:
            raise ValueError(f"{name} of shape {weights[name].shape} for dims {dims}")
    return lstm.LstmParams(**{**weights, "b_out": float(weights["b_out"])})


_LSTM = ModelSpec(
    name="lstm",
    cls=lstm.LstmParams,
    defaults={"hidden_dim": 64, **defaults_of(lstm.LstmTrainConfig), "threshold": 0.5},
    domains={**domains_of(lstm.LstmTrainConfig), **lstm.INIT_DOMAINS, "threshold": THRESHOLD},
    fit=_fit_lstm,
    score=lambda m, X: lstm.lstm_predict(m, X),
    to_doc=lambda m: {
        "dims": {"input_dim": m.input_dim, "hidden_dim": m.hidden_dim},
        "weights": {name: np.asarray(getattr(m, name)).tolist() for name in lstm._FIELDS},
        "config": {},
    },
    from_doc=_lstm_from_doc,
    sequential=True,
)


# ---------------------------------------------------------------- constant


_CONSTANT = ModelSpec(
    name="constant",
    cls=baseline.ConstantModel,
    defaults={"class": 0},
    domains=baseline.DOMAINS,
    fit=lambda X, y, p, seed, val: (baseline.ConstantModel(constant_class=int(p["class"])), {}),
    score=lambda m, X: (
        np.full(len(X), m.constant_class, dtype=np.int64),
        np.full(len(X), float(m.constant_class)),
    ),
    to_doc=lambda m: {"params": {"class": m.constant_class}, "config": {}},
    from_doc=lambda doc: baseline.ConstantModel(constant_class=doc["params"]["class"]),
)


MODELS: dict[str, ModelSpec] = {
    spec.name: spec for spec in (_KNN, _LOGREG, _RF, _SVM, _LSTM, _CONSTANT)
}
DEFAULT_MODEL = _LOGREG.name
_BY_TYPE = {spec.cls: spec for spec in MODELS.values()}


def spec_for(model) -> ModelSpec:
    """The registry entry of a trained model object."""
    spec = _BY_TYPE.get(type(model))
    if spec is None:
        raise DataError(f"{type(model).__name__} is not a registered model type")
    return spec
