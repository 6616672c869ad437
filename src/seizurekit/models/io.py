"""Versioned JSON serialization for every registered model type.

Documents carry `model_type` and `spec_version`; the other fields come
from the model's registry entry (`params` and `config` for the tabular
models, `dims`, `weights` and `config` for the LSTM). Floats are written
with full round-trip precision, so save -> load reproduces parameters
exactly.
"""

from __future__ import annotations

import json

from ..errors import DataError, read_utf8
from ..version import SPEC_VERSION
from .registry import MODELS, spec_for


def model_to_dict(model) -> dict:
    """Serialize any registered model to its JSON document."""
    spec = spec_for(model)
    return {"model_type": spec.name, **spec.to_doc(model), "spec_version": SPEC_VERSION}


def model_from_dict(doc: dict):
    """Rebuild a model object from its JSON document."""
    if not isinstance(doc, dict) or "model_type" not in doc:
        raise DataError("model document missing model_type")
    mtype = doc["model_type"]
    spec = MODELS.get(mtype) if isinstance(mtype, str) else None
    if spec is None:
        raise DataError(f"unknown model_type {mtype!r}")
    try:
        return spec.from_doc(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {mtype} model document: {exc!r}") from None


def save_model(model, path) -> None:
    doc = model_to_dict(model)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path):
    try:
        doc = json.loads(read_utf8(path))
    except ValueError as exc:  # JSONDecodeError, or an integer too long for int()
        raise DataError(f"{path}: invalid model JSON: {exc}") from None
    return model_from_dict(doc)
