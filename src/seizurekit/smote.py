"""Minority oversampling by nearest-neighbor interpolation.

New minority rows are drawn on the segment between an existing minority row
and one of its k nearest minority neighbors: x_new = x + lam * (x_nn - x)
with lam uniform in [0, 1). Majority rows pass through untouched. Applied
to training data only; the returned mask marks which output rows are
synthetic so downstream checks can assert none reach a test set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .domains import Domain, check_params, domains_of, param
from .errors import DataError
from .features import FeatureMatrix


@dataclass(frozen=True)
class SmoteConfig:
    k_neighbors: int = param(5, Domain(int, 1))
    # Minority-to-majority ratio after oversampling.
    target_ratio: float = param(1.0, Domain(float, 0, 1, lo_open=True))
    seed: int = 0

    def __post_init__(self):
        check_params("smote", self, domains_of(self))


def smote(
    X, y, cfg: SmoteConfig, fixed_lambda: float | None = None
):
    """Oversample the minority class until its count is floor(target_ratio * majority).

    X may be a plain (n, d) array or a FeatureMatrix; the output has the
    same type, original rows first and bit-identical, synthetic rows
    appended. Returns (X_out, y_out, synthetic_mask). FeatureMatrix
    metadata for a synthetic row is copied from its source row.

    fixed_lambda pins every interpolation coefficient (testing hook);
    normally lam is drawn uniformly from [0, 1) per synthetic row.
    """
    matrix = isinstance(X, FeatureMatrix)
    values = X.values if matrix else np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if len(y) != len(values):
        raise DataError(f"{len(y)} labels for {len(values)} rows")
    fill = oversampler(values, y, cfg, fixed_lambda)
    n = len(values)
    out_values = np.empty((n + n_synthetic(y, cfg.target_ratio), values.shape[1]), dtype=np.float64)
    out_values[:n] = values
    out_y, source_rows = fill(out_values)
    mask = np.zeros(len(out_y), dtype=bool)
    mask[n:] = True

    if matrix:
        out = FeatureMatrix(
            values=out_values,
            patients=np.concatenate([X.patients, X.patients[source_rows]]),
            files=np.concatenate([X.files, X.files[source_rows]]),
            starts=np.concatenate([X.starts, X.starts[source_rows]]),
        )
        return out, out_y, mask
    return out_values, out_y, mask


def n_synthetic(y, target_ratio: float) -> int:
    """The number of rows smote adds to rows labelled y: 0 unless y holds two classes."""
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) != 2:
        return 0
    return max(0, math.floor(target_ratio * counts.max()) - int(counts.min()))


def oversampler(values: np.ndarray, y: np.ndarray, cfg: SmoteConfig, fixed_lambda: float | None = None):
    """smote's checks and neighbour search on the rows values, labelled y.

    Returns fill(out): out's first len(y) rows are those rows, and fill
    writes the n_synthetic synthetic rows into the rows after them. It
    returns the labels of all of out's rows and each synthetic row's
    source row.
    """
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) != 2:
        raise DataError(f"need exactly 2 classes, got {list(classes)}")
    minority_class = classes[np.argmin(counts)]
    minority_idx = np.flatnonzero(y == minority_class)
    n_min = counts.min()
    if n_min < 2:
        raise DataError(
            f"minority class has {n_min} sample(s); need >= 2 to interpolate"
        )

    k = cfg.k_neighbors
    if k >= n_min:
        warnings.warn(
            f"k_neighbors={k} >= minority count {n_min}; clamping to {n_min - 1}",
            stacklevel=3,
        )
        k = n_min - 1

    from .models.knn import nearest  # here, so that a run without SMOTE loads no kNN code

    minority = values[minority_idx]
    neighbors = nearest(minority, minority, k, exclude_self=True)

    def fill(out: np.ndarray):
        rng = np.random.default_rng(cfg.seed)
        n, n_synth = len(y), len(out) - len(y)
        source_rows = np.empty(n_synth, dtype=np.int64)
        for s in range(n_synth):
            i = int(rng.integers(n_min))
            j = neighbors[i, int(rng.integers(k))]
            lam = rng.random() if fixed_lambda is None else fixed_lambda
            out[n + s] = minority[i] + lam * (minority[j] - minority[i])
            source_rows[s] = minority_idx[i]
        return np.concatenate([y, np.full(n_synth, minority_class, dtype=y.dtype)]), source_rows

    return fill
