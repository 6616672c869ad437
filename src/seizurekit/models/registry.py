"""The model registry: every model the toolkit trains, each defined once.

`MODELS` maps each model name to its `ModelSpec`, which the module that
defines the model declares at its end as `SPEC`. It is a read-only
mapping: listing its names, or asking whether a name is one, imports
nothing, and looking a name up imports that model's module on first use.
So the CLI's `--model` choices cost no import, and a command loads only
the model it runs. `spec_for` finds a trained model's entry through the
module that defines its class. Config validation, the pipeline, model
persistence and the CLI's `--model` choices all read `MODELS`.

The keys of a spec's `defaults` are the model's allowed `model_params` and
`domains` the values each may take; `fit` trains it on scaled inputs,
`score(model, X)` gives (classes, ranking scores) in one pass and is the
only rule that turns a model's scores into classes, and
`to_doc`/`from_doc` convert it to and from its JSON document.

A model whose `defaults` name a `threshold` carries the one it was fitted
with as its `threshold` attribute, and `score` classifies at it; an lstm
carries its window length as `sequence_length`. Only models/io.py writes
and reads both. It allows in a file's `config` only `config_keys` and
those two, and checks each against `domains` (`seed` against its own), so
`from_doc` sees neither. A `from_doc` raises ValueError on fields of
unequal shapes and on a field that disagrees with `config` or holds a
value the model cannot use (an rf tree count other than `n_trees`, a knn
label other than 0 or 1).

A spec's functions call the model's functions by their module-level name
when they run (for example `rf_scores`), never through a reference
captured when the spec was built, so a wrapper installed on a module
attribute sees every call.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..domains import Domain, check_params
from ..errors import DataError

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


def with_convergence(model):
    """A fit's result for a model with iterations: the model, and its
    iteration count and convergence flag for the run report."""
    return model, {"n_iters": model.n_iters, "converged": model.converged}


def typed(p: dict, domains: dict) -> dict:
    """The entries of p named in domains, each as its domain's int or float (None stays)."""
    return {k: None if p[k] is None else domains[k].kind(p[k]) for k in domains}


class _Registry(Mapping):
    """Model name -> ModelSpec, read from the SPEC of the module, in this
    package, that homes maps the name to. Only a lookup imports it."""

    def __init__(self, homes: dict[str, str]):
        self._homes = homes

    def __getitem__(self, name: str) -> ModelSpec:
        return importlib.import_module(f"{__package__}.{self._homes[name]}").SPEC

    def __contains__(self, name) -> bool:
        return name in self._homes

    def __iter__(self):
        return iter(self._homes)

    def __len__(self) -> int:
        return len(self._homes)


MODELS: Mapping[str, ModelSpec] = _Registry({
    "knn": "knn", "logreg": "logistic", "rf": "forest", "svm": "svm", "lstm": "lstm", "constant": "baseline",
})
DEFAULT_MODEL = "logreg"


def spec_for(model) -> ModelSpec:
    """The registry entry of a trained model object."""
    spec = getattr(sys.modules.get(type(model).__module__), "SPEC", None)
    if not (isinstance(spec, ModelSpec) and spec.cls is type(model)):
        raise DataError(f"{type(model).__name__} is not a registered model type")
    return spec
