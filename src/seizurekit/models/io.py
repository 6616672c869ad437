"""Versioned JSON serialization for every registered model type.

A model file is the whole trained artefact: every document carries
`model_type`, `spec_version`, the `scaler` fitted on the training rows and
`fit_patients`, the sorted patients of the training and validation rows.
The other fields come from the model's registry entry (`params` and
`config` for the tabular models, `dims`, `weights` and `config` for the
LSTM). Only this module writes and reads `threshold` (`logreg`, `lstm`)
and `sequence_length` (`lstm`) in `config`, each when it differs from the
model class's default. A `config` key that neither the model type's
`to_doc` writes (its registry entry's `config_keys`) nor the model
carries, or an entry outside its registry domain (or `seed`'s), makes the
document malformed. A number under `params` or `weights` that is not a
finite float is a DataError. Floats are written with full round-trip
precision, so save -> load reproduces parameters exactly.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import fields, replace

import numpy as np

from ..domains import Domain, check_params
from ..epochs import SEQUENCE_LENGTH
from ..errors import DataError, read_utf8, write_json
from ..features import Scaler
from ..version import SPEC_VERSION
from .registry import MODELS, THRESHOLD, spec_for

# Attributes a model class may carry in `config` beside to_doc's, and their domains.
_CARRIED = {"threshold": THRESHOLD, "sequence_length": SEQUENCE_LENGTH}


def model_to_dict(model) -> dict:
    """Serialize any registered model to its JSON document."""
    spec = spec_for(model)
    doc = {"model_type": spec.name, **spec.to_doc(model), "spec_version": SPEC_VERSION}
    for f in fields(spec.cls):
        if f.name in _CARRIED and getattr(model, f.name) != f.default:
            doc["config"][f.name] = getattr(model, f.name)
    return doc


def _finite(value) -> bool:
    """Whether every number in a parsed JSON value is finite as a float;
    strings and nulls are from_doc's to judge."""
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
        domains = {**spec.domains, "seed": Domain(int)}
        check_params(mtype, config, {**{k: domains[k] for k in spec.config_keys}, **carried})
        values = {k: domain.kind(config.pop(k)) for k, domain in carried.items() if k in config}
        return replace(spec.from_doc({**doc, "config": config}), **values)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {mtype} model document: {exc!r}") from None


def _scaler_from_doc(field) -> Scaler:
    if not isinstance(field, dict):
        raise DataError("no scaler object; a file saved before models carried one needs retraining")
    for key, domain in (("mean", Domain(float)), ("std", Domain(float, 0))):
        if not (isinstance(field.get(key), list) and all(v in domain for v in field[key])):
            raise DataError(f"scaler {key} must be a list, each entry {domain}")
    return Scaler(*(np.array(field[key], dtype=np.float64) for key in ("mean", "std")))


def save_model(model, scaler: Scaler, fit_patients, path) -> None:
    """Write model, the scaler its inputs need and the patients it was fitted on."""
    doc = {
        **model_to_dict(model),
        "scaler": {"mean": scaler.mean.tolist(), "std": scaler.std.tolist()},
        "fit_patients": sorted(map(str, fit_patients)),
    }
    write_json(path, doc)


def load_model(path, sha256=None):
    """(model, scaler, fit_patients) from a file save_model wrote; DataError
    names the file. A hashlib object given as sha256 is fed the file's bytes
    as they are read."""
    try:
        doc = json.loads(read_utf8(path, sha256))
    except ValueError as exc:  # JSONDecodeError, or an integer too long for int()
        raise DataError(f"{path}: invalid model JSON: {exc}") from None
    try:
        model = model_from_dict(doc)
        patients = doc.get("fit_patients")
        if not (isinstance(patients, list) and all(isinstance(p, str) for p in patients)):
            raise DataError("fit_patients must be a list of patient names")
        return model, _scaler_from_doc(doc.get("scaler")), patients
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
