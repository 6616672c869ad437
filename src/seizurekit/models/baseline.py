"""Trivial baseline predictors, mainly the always-negative majority model.

On rare-event data the constant negative predictor posts high accuracy with
zero recall; it exists so that pathology can be measured and compared
against rather than stumbled into.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..domains import Domain, check_params

DOMAINS = {"class": Domain(int, 0, 1)}


@dataclass(frozen=True)
class ConstantModel:
    """Predicts one fixed class for every input row."""

    constant_class: int = 0

    def __post_init__(self):
        check_params("constant", {"class": self.constant_class}, DOMAINS)
