"""Parameter domains: the values each configuration parameter may take.

A `Domain` is a kind, two bounds that may each be open, and whether None
("choose automatically") passes; it holds finite numbers only. `check_params`
raises ConfigError naming the first parameter outside its domain.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError


def has_type(value, kind) -> bool:
    """isinstance, except that an int passes for a float it fits in and a bool is not a number."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float and isinstance(value, numbers.Integral):
        return abs(value) <= sys.float_info.max
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(kind, kind))


@dataclass(frozen=True)
class Domain:
    """The values one parameter may take; `value in domain` tests one."""

    kind: type  # int, float, or dict: 'balanced' or {class 0 or 1: a weight in the bounds}
    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False
    auto: bool = False  # None passes, meaning "choose automatically"

    def __contains__(self, value) -> bool:
        if value is None:
            return self.auto
        if self.kind is dict:
            weight = replace(self, kind=float, auto=False)
            return value == "balanced" or isinstance(value, dict) and all(
                str(k) in ("0", "1") and w in weight for k, w in value.items()
            )
        if not has_type(value, self.kind):
            return False
        return (
            (self.kind is int or math.isfinite(value))
            and (self.lo < value if self.lo_open else self.lo <= value)
            and (value < self.hi if self.hi_open else value <= self.hi)
        )

    def __str__(self) -> str:
        what = "an int" if self.kind is int else "a finite number"
        if self.hi < math.inf:
            left, right = "(" if self.lo_open else "[", ")" if self.hi_open else "]"
            what += f" in {left}{self.lo:g}, {self.hi:g}{right}"
        elif self.lo > -math.inf:
            what += f" {'>' if self.lo_open else '>='} {self.lo:g}"
        if self.kind is dict:
            return f"null, 'balanced' or a dict from class 0 or 1 to {what}"
        return f"{what} or null" if self.auto else what


def param(default, domain: Domain):
    """A config dataclass field: its default and the Domain of its values."""
    return field(default=default, metadata={"domain": domain})


def domains_of(config) -> dict:
    """The Domain of each field of a config dataclass declared with param()."""
    return {f.name: f.metadata["domain"] for f in fields(config) if "domain" in f.metadata}


def defaults_of(config) -> dict:
    """The default of each field of a config dataclass declared with param()."""
    return {f.name: f.default for f in fields(config) if "domain" in f.metadata}


def check_params(owner: str, values, domains: dict) -> None:
    """Raise ConfigError unless every value lies in its parameter's domain.

    values is a dict, in which a key with no domain is an unknown parameter,
    or a config dataclass, whose fields named in domains are checked.
    """
    if not isinstance(values, dict):
        values = {name: getattr(values, name) for name in domains}
    unknown = set(values) - set(domains)
    if unknown:
        raise ConfigError(
            f"unknown {owner} parameter(s) {sorted(unknown)}; allowed: {sorted(domains)}"
        )
    for name, value in values.items():
        if value not in domains[name]:
            raise ConfigError(f"{owner} parameter {name} must be {domains[name]}, got {value!r}")
