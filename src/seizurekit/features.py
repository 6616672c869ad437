"""Per-epoch statistical features, train-only scaling, and CSV serialization.

Each epoch yields four statistics per channel (mean, max, min, population
standard deviation), concatenated in channel order. The z-score scaler is
fitted on training rows only and applied unchanged everywhere else; columns
with zero training variance scale to 0 rather than NaN.
"""

from __future__ import annotations

import io
import itertools
import re
from dataclasses import dataclass

import numpy as np

from .epochs import Epochs
from .errors import DataError, read_utf8, write_csv
from .version import SPEC_VERSION


@dataclass(frozen=True)
class FeatureMatrix:
    """Feature rows plus per-row provenance (patient, file, epoch start)."""

    values: np.ndarray  # (n_rows, n_dims) float64
    patients: np.ndarray  # (n_rows,) str
    files: np.ndarray  # (n_rows,) str
    starts: np.ndarray  # (n_rows,) float64

    def __post_init__(self):
        if self.values.ndim != 2:
            raise DataError("feature values must be a 2-D array")
        n = len(self.values)
        if not (len(self.patients) == len(self.files) == len(self.starts) == n):
            raise DataError("feature metadata length mismatch")
        if n and not np.isfinite(self.values).all():
            raise DataError("feature matrix contains non-finite values")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_dims(self) -> int:
        return self.values.shape[1]

    def take(self, index) -> "FeatureMatrix":
        """Row subset (boolean mask or index array), metadata kept aligned."""
        return FeatureMatrix(
            values=self.values[index],
            patients=self.patients[index],
            files=self.files[index],
            starts=self.starts[index],
        )


@dataclass(frozen=True)
class Scaler:
    """Per-column mean and population std, fitted from training rows only."""

    mean: np.ndarray
    std: np.ndarray


def scaler_doc(s: Scaler) -> dict:
    """The document of scaler.json: `mean`, `std` and `spec_version`."""
    return {"mean": s.mean.tolist(), "std": s.std.tolist(), "spec_version": SPEC_VERSION}


# Epochs go through extract_features in blocks of about this many bytes, so
# std's temporary copy stays small and in cache whatever the number of epochs.
_BLOCK_BYTES = 1 << 20


def extract_features(epochs: Epochs, pool_channels: bool = False) -> FeatureMatrix:
    """Compute (mean, max, min, population std) per channel for each epoch.

    Row layout: channel 0's four statistics, then channel 1's, and so on,
    giving 4 x n_channels columns. With pool_channels=True the statistics
    are computed over all channels' samples together, giving 4 columns.
    Every epoch needs at least 2 samples per channel.
    """
    n, channels, window = epochs.samples.shape
    values = np.zeros((0, 0))
    if n:
        if window < 2:
            raise DataError(
                f"epoch at {epochs.starts[0]}s in {epochs.files[0]!r} has "
                f"{window} samples per channel; need >= 2"
            )
        data = epochs.samples.reshape(n, 1, channels * window) if pool_channels else epochs.samples
        values = np.empty((n, 4 * data.shape[1]))
        step = max(1, _BLOCK_BYTES // max(1, data[0].nbytes))
        for i in range(0, n, step):
            block = data[i : i + step]
            stats = [
                block.mean(axis=2),
                block.max(axis=2),
                block.min(axis=2),
                block.std(axis=2),  # population convention (divide by n)
            ]
            values[i : i + step] = np.stack(stats, axis=2).reshape(len(block), -1)
    if not np.isfinite(values).all():
        raise DataError("non-finite feature value; check input samples")
    return FeatureMatrix(
        values=values, patients=epochs.patients, files=epochs.files, starts=epochs.starts
    )


def fit_scaler(train: FeatureMatrix) -> Scaler:
    """Per-column mean and population std of the training rows only."""
    return Scaler(*column_stats(train.values))


def column_stats(values: np.ndarray, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """values[rows].mean(axis=0) and values[rows].std(axis=0), bit for bit,
    of an index array of rows (every row if None), without copying the rows.

    numpy sums a C-contiguous float64 array of two or more columns row
    after row, column by column; so the rows go through in blocks, each
    block's sum carried into the next as its first row, and the sums are
    numpy's own. A single column numpy sums pairwise, so that case, and any
    other dtype or layout, takes numpy's call on the rows themselves.
    """
    n = len(values) if rows is None else len(rows)
    if n == 0:
        raise DataError("cannot fit a scaler on an empty training matrix")
    d = values.shape[1]
    if d < 2 or values.dtype != np.float64 or rows is None and not values.flags.c_contiguous:
        part = values if rows is None else values[rows]
        return part.mean(axis=0), part.std(axis=0)
    step = max(1, _BLOCK_BYTES // (8 * d))
    block = np.empty((1 + step, d))

    def column_sums(mean=None):
        for start in range(0, n, step):
            part = block[1 : 1 + min(step, n - start)]
            if rows is None:
                part[...] = values[start : start + step]
            else:
                _take_rows(values, rows[start : start + step], part)
            if mean is not None:
                part -= mean
                part *= part
            if start:
                block[0] = total
            total = np.add.reduce(block[0 if start else 1 : 1 + len(part)], axis=0)
        return total

    mean = column_sums() / n
    return mean, np.sqrt(column_sums(mean) / n)


def _take_rows(values: np.ndarray, rows, out: np.ndarray) -> None:
    """values[rows] written into out, row indices read as Python reads them
    from -n to n - 1. np.take's mode="wrap": its default, "raise", would
    fill a whole second copy of out first, to leave out unchanged on error."""
    np.take(values, rows, axis=0, out=out, mode="wrap")


def apply_scaler(s: Scaler, m: FeatureMatrix) -> FeatureMatrix:
    """z = (x - mean) / std per column; zero-std columns map to 0."""
    return FeatureMatrix(values=scaled_rows(s, m), patients=m.patients, files=m.files, starts=m.starts)


def scaled_rows(s: Scaler, m: FeatureMatrix, rows=None, spare: int = 0) -> np.ndarray:
    """apply_scaler's values for m's rows of the index array rows (every
    row if None), scaled in place in one new array that has spare more
    rows, left unset, after them."""
    if len(s.mean) != m.n_dims:
        raise DataError(
            f"scaler has {len(s.mean)} columns, matrix has {m.n_dims}"
        )
    n = m.n_rows if rows is None else len(rows)
    out = np.empty((n + spare, m.n_dims))
    z = out[:n]
    if rows is None:
        z[...] = m.values
    else:
        _take_rows(m.values, rows, z)
    z -= s.mean
    z /= np.where(s.std == 0, 1.0, s.std)
    z[:, s.std == 0] = 0.0
    return out


def csv_header(n_dims: int) -> str:
    return ",".join(["patient", "file", "start_s", "label", *(f"f{i}" for i in range(n_dims))])


def write_feature_csv(m: FeatureMatrix, labels: np.ndarray, path) -> None:
    """Write rows as `patient,file,start_s,label,f0..f{d-1}` with
    errors.write_csv: start_s and the features as floats, a label as an
    int. A patient or file name holding a comma or a line break is a
    DataError, raised before the file is opened.
    """
    labels = np.asarray(labels)
    if len(labels) != m.n_rows:
        raise DataError(f"{len(labels)} labels for {m.n_rows} rows")
    starts, values = (a.astype(np.float64, copy=False) for a in (m.starts, m.values))
    columns = [m.patients, m.files, starts, labels.astype(np.int64), values]
    write_csv(path, csv_header(m.n_dims), columns)


# np.loadtxt's message for a number it cannot parse; row counts from 0 over
# the lines it was given, column from 1 over the file's fields.
_NOT_A_NUMBER = re.compile(r"(could not convert string .*) at row (\d+), column (\d+)")


def read_feature_csv(path, sha256=None) -> tuple[FeatureMatrix, np.ndarray]:
    """Read the CSV written by write_feature_csv back into memory.

    The file is UTF-8 text; blank lines are skipped. A label is 0 or 1.
    start_s and the feature values are decimal floats: no digit separators
    (`1_0`), hexadecimal or non-ASCII digits, which float() would accept.
    A malformed line is a DataError naming path:line.

    After the header, one np.loadtxt pass over the open file reads every
    row into a structured array: patient, file and label as text, kept
    exactly, start_s and the features as floats. The labels are then
    checked at once. A file that this pass rejects is read again line by
    line, only to find the bad line and raise its message. A hashlib
    object given as sha256 is fed each byte of the file once, as the
    first pass reads it, so on return it holds the file's digest.
    """
    with open(path, "rb") as fh:
        hashed = _Hashed(fh, sha256)
        text = io.TextIOWrapper(io.BufferedReader(hashed, 1 << 20), encoding="utf-8")
        try:
            return _load_feature_rows(text, path)
        except ValueError:  # loadtxt's, a label's or UnicodeDecodeError
            while hashed.read(1 << 20):  # the rest of the bytes, should the line reader pass them
                pass
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse_feature_lines(fh, path)
    except UnicodeDecodeError:
        read_utf8(path)  # raises the DataError naming the line of the first bad byte
        raise


class _Hashed(io.RawIOBase):
    """The binary file fh, whose bytes feed sha256 (if not None) as they are read."""

    def __init__(self, fh, sha256):
        self.fh, self.sha256 = fh, sha256

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        n = self.fh.readinto(b)
        if self.sha256 is not None:
            self.sha256.update(memoryview(b)[:n])
        return n


def _read_header(fh, path) -> int:
    """The number of feature columns that the header line of fh names."""
    first = fh.readline()
    if not first:
        raise DataError(f"{path}: empty feature file")
    first = first.rstrip("\n")
    header = first.split(",")
    if header[:4] != ["patient", "file", "start_s", "label"]:
        raise DataError(f"{path}: unexpected header {first!r}")
    d = len(header) - 4
    if header[4:] != [f"f{i}" for i in range(d)]:
        raise DataError(f"{path}: unexpected feature column names")
    return d


def _load_feature_rows(fh, path) -> tuple[FeatureMatrix, np.ndarray]:
    """read_feature_csv's single pass; ValueError for a row it cannot read."""
    d = _read_header(fh, path)
    text, number = np.dtype(object), np.dtype(np.float64)
    dtype = np.dtype([("patient", text), ("file", text), ("start_s", number),
                      ("label", text), ("values", number, (d,))])
    table = np.zeros(0, dtype)
    for first in fh:
        if first != "\n":  # loadtxt warns on input without rows
            rows = itertools.chain([first], fh)
            table = np.loadtxt(rows, dtype, delimiter=",", comments=None, ndmin=1)
            break
    labels = table["label"]
    ones = labels == "1"
    if not (ones | (labels == "0")).all():
        raise ValueError("a label other than 0 or 1")
    m = FeatureMatrix(
        values=np.ascontiguousarray(table["values"]),
        patients=table["patient"].copy(),
        files=table["file"].copy(),
        starts=table["start_s"].copy(),
    )
    return m, ones.astype(np.int64)


def _parse_feature_lines(fh, path) -> tuple[FeatureMatrix, np.ndarray]:
    """read_feature_csv's line reader, which checks each line as it goes."""
    d = _read_header(fh, path)
    line_numbers, patients, files, labels = [], [], [], []

    def checked_rows():
        for ln, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.count(",") != 3 + d:
                raise DataError(f"{path}:{ln}: expected {4 + d} fields, got {line.count(',') + 1}")
            patient, file, _, label = line.split(",", 4)[:4]
            if label not in ("0", "1"):
                raise DataError(f"{path}:{ln}: label {label!r} is not 0 or 1")
            line_numbers.append(ln)
            patients.append(patient)
            files.append(file)
            labels.append(label == "1")
            yield line

    rows = checked_rows()
    row = next(rows, None)
    numbers = np.zeros((0, 1 + d))
    if row is not None:  # loadtxt warns on input without rows
        try:
            numbers = np.loadtxt(
                itertools.chain([row], rows),
                delimiter=",",
                comments=None,
                usecols=[2, *range(4, 4 + d)],
                ndmin=2,
            )
        except ValueError as exc:
            bad = _NOT_A_NUMBER.search(str(exc))
            if bad is None:
                raise
            raise DataError(
                f"{path}:{line_numbers[int(bad[2])]}: {bad[1]} in field {bad[3]}"
            ) from None
    m = FeatureMatrix(
        values=np.ascontiguousarray(numbers[:, 1:]),
        patients=np.array(patients, dtype=object),
        files=np.array(files, dtype=object),
        starts=numbers[:, 0].copy(),
    )
    return m, np.array(labels, dtype=np.int64)
