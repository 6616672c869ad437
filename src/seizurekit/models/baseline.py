"""Trivial baseline predictors, mainly the always-negative majority model.

On rare-event data the constant negative predictor posts high accuracy with
zero recall; it exists so that pathology can be measured and compared
against rather than stumbled into.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..domains import Domain, check_params
from .registry import ModelSpec, Scalar

DOMAINS = {"class": Domain(int, 0, 1)}


@dataclass(frozen=True)
class ConstantModel:
    """Predicts one fixed class for every input row."""

    constant_class: int = 0

    def __post_init__(self):
        check_params("constant", {"class": self.constant_class}, DOMAINS)


# ---------------------------------------------------------------- registry entry


SPEC = ModelSpec(
    name="constant",
    cls=ConstantModel,
    defaults={"class": 0},
    domains=DOMAINS,
    fit=lambda X, y, p, seed, val: (ConstantModel(constant_class=int(p["class"])), {}),
    score=lambda m, X: (
        np.full(len(X), m.constant_class, dtype=np.int64),
        np.full(len(X), float(m.constant_class)),
    ),
    layout={"params": {"class": Scalar(DOMAINS["class"], attr="constant_class")}, "config": {}},
)
