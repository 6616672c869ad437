"""Versioned JSON serialization for every registered model type.

A model file is the whole trained artefact: every document carries
`model_type`, `spec_version`, the `scaler` fitted on the training rows and
`fit_patients`, the sorted patients of the training and validation rows.
Its other sections are the model's registry `layout`, which the one codec
in models/registry.py writes and reads, as it does the scaler. Only this
module writes and reads `threshold` (`logreg`, `lstm`) and
`sequence_length` (`lstm`) in `config`, each when it differs from the
model class's default. A number under `params` or `weights` that is not a
finite float is a DataError naming its key, whatever else is wrong there.
Floats are written with full round-trip precision, so save -> load
reproduces parameters exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import fields, replace

from ..domains import Domain, check_params
from ..epochs import SEQUENCE_LENGTH
from ..errors import DataError, read_json, write_json
from ..features import Scaler
from ..version import SPEC_VERSION
from .registry import MODELS, THRESHOLD, Array, decode, encode, plain, spec_for

# Attributes a model class may carry in `config` beside its layout's, and their domains.
_CARRIED = {"threshold": THRESHOLD, "sequence_length": SEQUENCE_LENGTH}
_SCALER = {"scaler": {"mean": Array(float, ("d",)), "std": Array(float, ("d",), Domain(float, 0))}}
# What the codec raises on a document it refuses.
_MALFORMED = (AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError)


def model_to_dict(model) -> dict:
    """Serialize any registered model to its JSON document."""
    return plain(_document(model))


def _document(model) -> dict:
    """model_to_dict's document, with the arrays and iterators registry.encode leaves."""
    spec = spec_for(model)
    doc = {"model_type": spec.name, **encode(spec.layout, model), "spec_version": SPEC_VERSION}
    for f in fields(spec.cls):
        if f.name in _CARRIED and getattr(model, f.name) != f.default:
            doc["config"][f.name] = getattr(model, f.name)
    return doc


def _finite(value) -> bool:
    """Whether every number in a parsed JSON value is finite as a float;
    strings and nulls are the codec's to judge."""
    if isinstance(value, (dict, list)):
        items = [*value.values()] if isinstance(value, dict) else value
        try:
            return all(map(math.isfinite, items))  # a list of numbers, fast
        except (OverflowError, TypeError):  # a huge int, a string, a null, a list or an object
            return all(map(_finite, items))
    return not isinstance(value, (int, float)) or abs(value) <= sys.float_info.max


def model_from_dict(doc: dict):
    """Rebuild a model object from its JSON document."""
    if not isinstance(doc, dict) or "model_type" not in doc:
        raise DataError("model document missing model_type")
    mtype = doc["model_type"]
    spec = MODELS.get(mtype) if isinstance(mtype, str) else None
    if spec is None:
        raise DataError(f"unknown model_type {mtype!r}")
    try:
        for key, value in {**doc.get("params", {}), **doc.get("weights", {})}.items():
            if not _finite(value):
                raise DataError(f"{mtype} {key} contains non-finite values")
        config = {**doc["config"]}
        carried = {f.name: _CARRIED[f.name] for f in fields(spec.cls) if f.name in _CARRIED}
        values = {k: config.pop(k) for k in carried if k in config}
        check_params(mtype, values, carried)
        domains = {**spec.domains, "seed": Domain(int)}
        model = decode(spec.layout, {**doc, "config": config}, spec.cls, domains)
        return replace(model, **{k: carried[k].kind(v) for k, v in values.items()})
    except _MALFORMED as exc:
        raise DataError(f"malformed {mtype} model document: {exc!r}") from None


def save_model(model, scaler: Scaler, fit_patients, path) -> None:
    """Write model, the scaler its inputs need and the patients it was
    fitted on. Its arrays are written a row at a time, and an rf's trees a
    tree at a time."""
    doc = {
        **_document(model),
        **encode(_SCALER, scaler),
        "fit_patients": sorted(map(str, fit_patients)),
    }
    write_json(path, doc)


def load_model(path, sha256=None):
    """(model, scaler, fit_patients) from a file save_model wrote; DataError
    names the file. A hashlib object given as sha256 is fed the file's bytes
    as they are read."""
    doc = read_json(path, DataError, sha256, what="model JSON")
    try:
        model = model_from_dict(doc)
        if not isinstance(doc.get("scaler"), dict):
            raise DataError("no scaler object; a file saved before models carried one needs retraining")
        scaler = decode(_SCALER, doc, Scaler)
        patients = doc.get("fit_patients")
        if not (isinstance(patients, list) and all(isinstance(p, str) for p in patients)):
            raise DataError("fit_patients must be a list of patient names")
        return model, scaler, patients
    except _MALFORMED as exc:  # the scaler's
        raise DataError(f"{path}: malformed scaler: {exc!r}") from None
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
