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
`domains` the values each may take; `fit` trains it on scaled inputs, and
`score(model, X)` gives (classes, ranking scores) in one pass and is the
only rule that turns a model's scores into classes. A model whose
`defaults` name a `threshold` carries the one it was fitted with as its
`threshold` attribute, and `score` classifies at it; an lstm carries its
window length as `sequence_length`.

A spec's `layout` is its model file: each section maps each key to the
kind of value that it and the model attribute of its name hold, or is the
model's config dataclass. `encode` and `decode` serve every layout and the
scaler's; `decode` refuses a key or value its layout does not allow.

A spec's functions call the model's functions by their module-level name
when they run (for example `rf_scores`), never through a reference
captured when the spec was built, so a wrapper installed on a module
attribute sees every call.
"""

from __future__ import annotations

import importlib
import sys
from collections import namedtuple
from collections.abc import Iterator, Mapping
from dataclasses import asdict, dataclass, fields, is_dataclass
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


# The kinds of value that a layout key holds:
# - Array: a float64 or int64 array (kind float or int) of JSON numbers, with
#   one name per axis, such as ("n", "d"); a name has one length in a
#   document, and every entry lies in entries (default: any number of kind).
# - Scalar: one value in domain, no larger than the length of the axis
#   at_most, held by the model attribute attr (default: the key).
# - Derived: a model property, written from the model; on read it lies in
#   domain and equals the model's.
# - Converted: a value with its own converters: write(attribute) -> JSON
#   value, or an iterator of a JSON list's items, and read(JSON value, the
#   attributes read before it) -> attribute.
Array = namedtuple("Array", "kind axes entries", defaults=[None])
Scalar = namedtuple("Scalar", "domain at_most attr", defaults=[None, None])
Converted = namedtuple("Converted", "write read")


class Derived(Scalar):
    """A Scalar that a model property gives (see above)."""


def _types(key: str, value, rank: int) -> set:
    """The types of the entries of value, a list nested rank deep ([] has one axis only)."""
    if type(value) is not list or rank > 1 and not value:
        raise ValueError(f"{key} is not an array of {rank} axes")
    return set(map(type, value)) if rank == 1 else set().union(*(_types(key, v, rank - 1) for v in value))


def _array(key: str, value, kind: Array, axes: dict) -> np.ndarray:
    """value read as kind; axes gains the length of each axis it names first."""
    entries = kind.entries or Domain(kind.kind)
    if not _types(key, value, len(kind.axes)) <= {int, kind.kind}:
        raise ValueError(f"{key} holds an entry that is not {entries}")
    array = np.array(value, dtype=np.float64 if kind.kind is float else np.int64)
    if array.size and not (array.min().item() in entries and array.max().item() in entries):
        raise ValueError(f"{key} holds an entry that is not {entries}")
    for name, length in zip(kind.axes, array.shape):
        if axes.setdefault(name, length) != length:
            raise ValueError(f"{key} has {length} along axis {name}, other arrays {axes[name]}")
    return array


def encode(layout: dict, obj) -> dict:
    """The sections of obj's document that layout describes. An Array is
    left a numpy array, and a Converted value as its writer gives it, an
    iterator of a list's items perhaps: errors.write_json writes either a
    row or an item at a time, and plain makes them JSON lists."""
    doc = {}
    for section, keys in layout.items():
        if is_dataclass(keys):
            doc[section] = asdict(obj.config)
            continue
        doc[section] = {}
        for key, kind in keys.items():
            v = getattr(obj, getattr(kind, "attr", None) or key)
            if isinstance(kind, Converted):
                doc[section][key] = kind.write(v)
            else:
                doc[section][key] = np.asarray(v) if isinstance(kind, Array) else np.asarray(v).tolist()
    return doc


def plain(doc: dict) -> dict:
    """doc with each array and iterator that encode left in its sections made a JSON list."""
    def listed(v):
        return v.tolist() if isinstance(v, np.ndarray) else list(v) if isinstance(v, Iterator) else v

    return {s: {k: listed(v) for k, v in keys.items()} if isinstance(keys, dict) else keys for s, keys in doc.items()}


def decode(layout: dict, doc: dict, cls: type, domains: dict | None = None):
    """The cls object of the sections of doc that layout describes. A config
    dataclass is read as a section of Scalars, each field in its domain."""
    attrs, axes, items = {}, {}, []
    for section, keys in layout.items():
        got = doc[section]
        if is_dataclass(keys):
            scalars = {f.name: Scalar(domains[f.name]) for f in fields(keys)}
            attrs["config"] = decode({section: scalars}, doc, keys)
        elif not isinstance(got, dict) or not set(got) <= set(keys):
            raise ValueError(f"{section} holds keys other than {sorted(keys)}")
        else:
            items += [(k, kind, got[k]) for k, kind in keys.items() if k in got or isinstance(kind, Derived)]
    # Arrays first, so that every axis has its length, and converters last.
    for key, kind, value in sorted(items, key=lambda i: (type(i[1]) is not Array, type(i[1]) is Converted)):
        if isinstance(kind, Array):
            attrs[key] = _array(key, value, kind, axes)
        elif isinstance(kind, Converted):
            attrs[key] = kind.read(value, attrs)
        elif value not in kind.domain:
            raise ValueError(f"{key} must be {kind.domain}, got {value!r}")
        elif kind.at_most and value > axes[kind.at_most]:
            raise ValueError(f"{key}={value} exceeds the {axes[kind.at_most]} along axis {kind.at_most}")
        elif not isinstance(kind, Derived):  # class weights get back the int keys JSON made strings
            attrs[kind.attr or key] = resolve_class_weights(value, None) if kind.domain.kind is dict else value
    obj = cls(**attrs)
    for key, kind, value in items:
        if isinstance(kind, Derived) and value != getattr(obj, key):
            raise ValueError(f"{key} {value!r} for a model of {key} {getattr(obj, key)}")
    return obj


@dataclass(frozen=True)
class ModelSpec:
    name: str
    cls: type  # type of the trained model object
    defaults: dict  # allowed model_params and their default values
    domains: dict  # model_params -> the Domain of its values
    fit: Callable  # (X, y, params, seed, val) -> (model, extra report fields)
    score: Callable  # (model, X) -> (classes, ranking scores)
    layout: dict  # the model file: section -> {key: kind}, or the config dataclass
    sequential: bool = False  # inputs are build_sequences windows, not rows
    train_cap: int | None = None  # max_train_rows when the config sets none

    @property
    def config_keys(self) -> tuple:  # the keys of the `config` that to_doc writes
        config = self.layout["config"]
        return tuple(f.name for f in fields(config)) if is_dataclass(config) else tuple(config)

    def to_doc(self, model) -> dict:
        """The model's document, besides model_type, spec_version and the carried config keys."""
        return plain(encode(self.layout, model))


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


# The params of a model fitted by iterations, which with_convergence reports.
CONVERGENCE = {"n_iters": Scalar(Domain(int, 0)), "converged": Scalar(Domain(bool))}


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
