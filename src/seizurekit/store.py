"""The epoch store, the directory that `ingest` writes and `featurize` reads:
`epochs.npy` (every kept epoch as one (epochs, channels, window) float64
array in C order, in numpy's .npy format), `meta.csv` (a feature CSV with
no feature columns: each epoch's patient, file, start and label),
`store_info.json` and, when a demographics table is given,
`demographics.csv`. No other module knows these files.

Neither side holds a whole store, or a whole EDF file, in memory.
`write_store` checks every EDF file from its header and size, writes the
.npy header for the total count of kept epochs, then reads each EDF file
one chunk of data records at a time: a chunk's kept epochs, all channels
converted and high-passed, are one contiguous stretch of the epoch-major
file, appended in order. `read_store_blocks` reads `epochs.npy` a few
MB at a time with plain file reads.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .domains import Domain, check_params
from .edf import EdfHeader, parse_edf_header, parse_seizure_summary, read_edf_header
from .epochs import (
    _MIN_SCAN_BLOCKS, _SCAN_BLOCK, DOMAINS, TASKS, EpochPlan, Epochs, plan_epochs
)
from .errors import ConfigError, DataError, read_json, read_utf8, write_csv, write_json
from .features import FeatureMatrix, read_feature_csv, write_feature_csv
from .version import SPEC_VERSION

EPOCHS, META, INFO, DEMOGRAPHICS = "epochs.npy", "meta.csv", "store_info.json", "demographics.csv"

_AGE = Domain(float, 0)

# Bytes of epochs, over all channels, in one chunk of an EDF file that
# write_store reads, converts, filters and writes at a time (_chunk_bounds).
_WRITE_BLOCK = 4 << 20
# Bytes of epochs that read_store_blocks reads at a time.
_READ_BLOCK = 4 << 20


class _Source(NamedTuple):
    """One EDF file to ingest, checked from its header."""

    path: Path
    header: EdfHeader
    plan: EpochPlan
    patient: str


def write_store(
    out, edf_dir, summaries, *, task, epoch_len_s, horizon_s, highpass_hz, demographics, warn
) -> tuple[dict, dict, list]:
    """Write the store of every `.edf` file in edf_dir to the directory out.

    Each file's epochs are ``label_<task>(slice_epochs(denoise(parse_edf(raw),
    highpass_hz), epoch_len_s), seizures)``, its seizures taken from the
    summary files. A file that fails with a DataError is skipped and passed
    to warn, as is a summary entry for a file that edf_dir lacks. The task,
    the ingest parameters, edf_dir, the summaries, the demographics table
    and every file's epochs are all checked before out is created; a file
    is checked from its header and size, and its samples are read once,
    while its epochs are written.

    Returns (counts, failures, inputs): each file read's name -> (kept,
    positive) epochs, in file order; each failed file's name -> its error;
    and the paths of the files read (the EDF files read, the summaries and
    the demographics table).
    """
    if task not in TASKS:
        raise ConfigError(f"task must be {' or '.join(TASKS)}, got {task!r}")
    params = {"epoch_len_s": epoch_len_s, "horizon_s": horizon_s, "highpass_hz": highpass_hz}
    check_params("ingest", params, DOMAINS)
    if not Path(edf_dir).is_dir():
        raise DataError(f"EDF directory not found: {edf_dir}")
    edf_paths = sorted(p for p in Path(edf_dir).iterdir() if p.suffix.lower() == ".edf")
    if not edf_paths:
        raise DataError(f"no EDF files found in {edf_dir}")
    intervals = {p.name: [] for p in edf_paths}
    for spath in summaries:
        if not Path(spath).is_file():
            raise DataError(f"summary file not found: {spath}")
        for fname, ivs in parse_seizure_summary(read_utf8(spath)).items():
            if fname in intervals:
                intervals[fname].extend(ivs)
            else:
                warn(f"summary references missing file {fname!r}; intervals ignored")
    demographics_table = _demographics_table(Path(demographics)) if demographics else None

    sources = []  # the files that have epochs
    counts, failures = {}, {}
    for path in edf_paths:
        try:
            source = _source(path, intervals[path.name], task=task, **params)
        except DataError as exc:
            failures[path.name] = str(exc)
            warn(f"{path.name}: {exc}")
            continue
        if source.plan.n_kept:
            sources.append(source)
        counts[path.name] = (source.plan.n_kept, int(source.plan.labels.sum()))
    if not sources:
        raise DataError(
            "every EDF file failed to ingest: "
            + "; ".join(f"{k}: {v}" for k, v in sorted(failures.items()))
        )
    shapes = {(len(s.header.channels), s.plan.window) for s in sources}
    if len(shapes) > 1:
        raise DataError(
            f"recordings disagree on channel count or rate: epoch shapes {sorted(shapes)}"
        )

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    meta = FeatureMatrix(
        np.zeros((sum(s.plan.n_kept for s in sources), 0)),
        patients=np.concatenate([np.full(s.plan.n_kept, s.patient, dtype=object) for s in sources]),
        files=np.concatenate([np.full(s.plan.n_kept, s.path.name, dtype=object) for s in sources]),
        starts=np.concatenate([s.plan.starts[s.plan.kept] for s in sources]),
    )
    write_feature_csv(meta, np.concatenate([s.plan.labels for s in sources]), out / META)
    n_channels, window = shapes.pop()
    _write_epochs(out / EPOCHS, sources, n_channels, window)
    info = {
        "epoch_len_s": epoch_len_s,
        "task": task,
        "horizon_s": horizon_s,
        "n_channels": n_channels,
        "window": window,
        "spec_version": SPEC_VERSION,
    }
    write_json(out / INFO, info)
    if demographics_table is not None:
        write_csv(out / DEMOGRAPHICS, "kind,key,count", demographics_table)
    inputs = [p for p in edf_paths if p.name in counts] + [Path(s) for s in summaries]
    return counts, failures, inputs + ([Path(demographics)] if demographics else [])


def _source(path: Path, seizures, *, task, **params) -> _Source:
    """One EDF file, checked from its header and size as parse_edf would
    check its bytes, with the epochs it gives. A recording with a blank
    patient header takes the file-name prefix as its patient
    (`chb05_17.edf` -> `chb05`)."""
    header = read_edf_header(path)
    n_samples = header.num_records * header.channels[0].samples_per_record if header.channels else 0
    plan = plan_epochs(n_samples, header.sample_rate_hz, seizures, task, **params)
    patient = header.patient_id if header.patient_id.strip() else path.stem.split("_")[0] or path.stem
    return _Source(path, header, plan, patient)


def _demographics_table(path: Path) -> list[tuple]:
    """The kind, key and count columns of demographics.csv for a
    patient,age,gender table: the count of each gender, then of each decade
    of age."""
    lines = read_utf8(path).splitlines()
    if not lines or lines[0].strip().lower() != "patient,age,gender":
        raise DataError(f"{path}: expected header 'patient,age,gender'")
    genders, decades = Counter(), Counter()
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 3:
            raise DataError(f"{path}:{ln}: expected 3 fields")
        try:
            age = float(cells[1])
        except ValueError:
            raise DataError(f"{path}:{ln}: age {cells[1]!r} is not numeric") from None
        if age not in _AGE:
            raise DataError(f"{path}:{ln}: age {cells[1]!r} must be {_AGE}")
        genders[cells[2] or "unknown"] += 1
        decades[int(age // 10) * 10] += 1
    rows = [("gender", g, n) for g, n in sorted(genders.items())]
    rows += [("age", f"{lo}-{lo + 9}", n) for lo, n in sorted(decades.items())]
    return list(zip(*rows))


def _write_epochs(path: Path, sources, n_channels: int, window: int) -> None:
    """Write the file that np.save writes for the (epochs, channels, window)
    float64 array of every source's kept epochs in order, one source at a
    time."""
    total = sum(s.plan.n_kept for s in sources)
    descr = np.lib.format.dtype_to_descr(np.dtype(np.float64))
    header = {"descr": descr, "fortran_order": False, "shape": (total, n_channels, window)}
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for s in sources:
            _write_source(fh, s, n_channels, window)


def _write_source(out, s: _Source, n_channels: int, window: int) -> None:
    """Append one source's kept epochs to the open file out, as the next rows
    of an epoch-major float64 (epochs, n_channels, window) array, reading the
    EDF file one chunk of data records at a time (_chunk_bounds).

    Each channel of a chunk is converted (EdfHeader.signal) and filtered
    (EpochPlan.windows, which carries the channel's high-pass state from
    one chunk to the next) into a (kept, channels, window) buffer, so that
    every sample is the one the library path gives. The buffer is one
    contiguous stretch of the file, appended with one write. The file's
    header is read again and must still be s.header, and every chunk must
    be there in full, or the file changed while ingest read it.
    """
    changed = DataError(f"{s.path}: changed while ingest read it")
    rates, record_bytes = s.header.sample_rate_hz, s.header.record_bytes
    spr = s.header.channels[0].samples_per_record
    bounds = _chunk_bounds(s.header.num_records * spr, n_channels, window, spr)
    longest = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    raw = memoryview(bytearray(longest // spr * record_bytes))
    x = np.empty(longest)  # one channel of a chunk, converted
    buffer = np.empty(longest // window * n_channels * window)
    states = [None] * n_channels  # each channel's high-pass state
    with open(s.path, "rb") as fh:
        head = fh.read(s.header.data_offset)
        if parse_edf_header(head, os.fstat(fh.fileno()).st_size) != s.header:
            raise changed
        for lo, hi in zip(bounds, bounds[1:]):
            records = raw[: (hi - lo) // spr * record_bytes]
            if fh.readinto(records) != len(records):
                raise changed
            first = lo // window
            k = np.count_nonzero(s.plan.kept[first : hi // window])
            epochs = buffer[: k * n_channels * window].reshape(k, n_channels, window)
            for c, fs in enumerate(rates):
                signal = s.header.signal(records, c, out=x[: hi - lo])
                states[c] = s.plan.windows(signal, fs, epochs[:, c], first, states[c])
            if k:  # a chunk inside a seizure keeps no epoch for prediction
                out.write(epochs)


def _chunk_bounds(n: int, n_channels: int, window: int, spr: int) -> list[int]:
    """The samples [0, ..., n] at which _write_source cuts each channel of
    n samples, spr to a data record, into chunks.

    A chunk is a whole number of records, windows and high-pass scan
    blocks, and holds about _WRITE_BLOCK bytes of epochs over n_channels
    channels, but at least _MIN_SCAN_BLOCKS scan blocks, so that the scan
    carried from chunk to chunk gives the whole channel's samples
    (epochs._highpass_scan). The last chunk runs to sample n: it is the
    remainder if that holds _MIN_SCAN_BLOCKS blocks, else the remainder
    joined to the chunk before it. A channel shorter than one chunk is one
    chunk, so when lcm(_SCAN_BLOCK, window, spr) is longer than the file,
    memory is bounded by the file, not by _WRITE_BLOCK.
    """
    unit, least = math.lcm(_SCAN_BLOCK, window, spr), _MIN_SCAN_BLOCKS * _SCAN_BLOCK
    size = unit * max(-(-least // unit), _WRITE_BLOCK // (8 * n_channels * unit))
    starts = list(range(0, n, size)) or [0]
    if len(starts) > 1 and n - starts[-1] < least:
        starts.pop()
    return starts + [n]


def read_store(store_dir) -> tuple[Epochs, np.ndarray]:
    """The epochs and labels of the store in store_dir, read whole, after
    the checks read_store_blocks makes."""
    _, labels, blocks = read_store_blocks(store_dir, block_bytes=math.inf)
    return next(blocks), labels


def read_store_blocks(
    store_dir, block_bytes: float = _READ_BLOCK, sha256=None
) -> tuple[FeatureMatrix, np.ndarray, Iterator[Epochs]]:
    """The meta.csv rows (a FeatureMatrix with no columns), the labels and
    the epochs of the store in store_dir, the epochs as consecutive blocks
    of about block_bytes each, read as the iterator is consumed; a store
    of no epochs gives one empty block. The iterator keeps no block it has
    given out, so a caller that lets go of each block before it asks for
    the next holds one block at a time. A hashlib object given as sha256
    is fed epochs.npy's header and then each block as it is read, so once
    the iterator is spent it holds the digest of the bytes featurized.

    A missing or malformed file, or files that disagree on the number of
    epochs, is a DataError raised before any epoch is read. epochs.npy must
    be a 3-d numeric array in C order whose header agrees with the file's
    size.
    """
    epochs_path, meta_path, info_path = (Path(store_dir) / n for n in (EPOCHS, META, INFO))
    for p in (epochs_path, meta_path, info_path):
        if not p.is_file():
            raise DataError(f"missing store file: {p}")
    # Integers parse as floats, so a huge one reads as inf, not an int.
    info = read_json(info_path, DataError, parse_int=float)
    epoch_len_s = info.get("epoch_len_s") if isinstance(info, dict) else None
    if epoch_len_s not in DOMAINS["epoch_len_s"]:
        raise DataError(
            f"{info_path}: epoch_len_s must be a positive finite number, got {epoch_len_s!r}"
        )
    meta, labels = read_feature_csv(meta_path)
    if meta.n_dims:
        raise DataError(f"{meta_path}: unexpected feature columns in the header")
    shape, dtype, offset = _npy_layout(epochs_path)
    if shape[0] != meta.n_rows:
        raise DataError(f"store mismatch: {shape[0]} epochs vs {meta.n_rows} meta rows")

    n, row_bytes = shape[0], math.prod(shape[1:]) * dtype.itemsize
    rows = max(1, n if n * row_bytes <= block_bytes else block_bytes // row_bytes)

    def blocks():
        with open(epochs_path, "rb") as fh:
            header = fh.read(offset)
            if sha256 is not None:
                sha256.update(header)
            for start in range(0, max(n, 1), rows):
                stop = min(n, start + rows)
                samples = np.empty((stop - start, *shape[1:]), dtype)
                if fh.readinto(samples) != samples.nbytes:
                    raise DataError(f"{epochs_path}: changed while it was read")
                if sha256 is not None:
                    sha256.update(samples)
                part = meta.take(slice(start, stop))
                yield Epochs(samples, part.patients, part.files, part.starts, duration_s=epoch_len_s)
                del samples  # the caller's reference is now the block's only one

    return meta, labels, blocks()


def _npy_layout(path: Path) -> tuple[tuple, np.dtype, int]:
    """The shape, dtype and data offset of the .npy file at path, checked
    against its size; DataError unless it is a C-order 3-d numeric array."""
    fmt = np.lib.format
    with open(path, "rb") as fh:
        try:
            version = fmt.read_magic(fh)
            read_header = {(1, 0): fmt.read_array_header_1_0, (2, 0): fmt.read_array_header_2_0}
            if version not in read_header:
                raise ValueError(f"format version {version} is not read")
            shape, fortran_order, dtype = read_header[version](fh)
        except (ValueError, EOFError) as exc:
            raise DataError(f"{path}: not a readable .npy array: {exc}") from None
        offset, size = fh.tell(), os.fstat(fh.fileno()).st_size
    if dtype.hasobject:
        raise DataError(f"{path}: not a readable .npy array: it holds Python objects")
    if len(shape) != 3 or dtype.kind not in "fiu":
        raise DataError(f"{path}: expected a 3-d numeric array, got {dtype} {shape}")
    if fortran_order:
        raise DataError(f"{path}: a Fortran-order array is not read; ingest writes C order")
    need = math.prod(shape) * dtype.itemsize
    if min(shape) < 0 or size - offset != need:
        raise DataError(
            f"{path}: not a readable .npy array: {size - offset} data bytes, "
            f"but a {dtype} array of shape {shape} needs {need}"
        )
    return shape, dtype, offset
