"""The epoch store, the directory that `ingest` writes and `featurize` reads:
`epochs.npy` (every kept epoch as one (epochs, channels, window) float64
array), `meta.csv` (a feature CSV with no feature columns: each epoch's
patient, file, start and label), `store_info.json` and, when a demographics
table is given, `demographics.csv`. No other module knows these files.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np

from .domains import Domain, check_params
from .edf import parse_edf, parse_seizure_summary
from .epochs import DOMAINS, TASKS, Epochs, LabeledEpochSet, stream_labeled_epochs
from .errors import ConfigError, DataError, read_utf8, write_json
from .features import FeatureMatrix, read_feature_csv, write_feature_csv
from .version import SPEC_VERSION

EPOCHS, META, INFO, DEMOGRAPHICS = "epochs.npy", "meta.csv", "store_info.json", "demographics.csv"

_AGE = Domain(float, 0)

# Bytes of epochs that _save_epochs copies out of a strided view at a time.
_WRITE_BLOCK = 4 << 20


def write_store(
    out, edf_dir, summaries, *, task, epoch_len_s, horizon_s, highpass_hz, demographics, warn
) -> tuple[dict, dict, list]:
    """Write the store of every `.edf` file in edf_dir to the directory out.

    Each file's epochs are ``label_<task>(slice_epochs(denoise(parse_edf(raw),
    highpass_hz), epoch_len_s), seizures)``, its seizures taken from the
    summary files. A file that fails with a DataError is skipped and passed
    to warn, as is a summary entry for a file that edf_dir lacks. The task,
    the ingest parameters, edf_dir, the summaries, the demographics table
    and every file's epochs are all checked before out is created.

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
    demographics_rows = _demographics_rows(Path(demographics)) if demographics else None

    sets = []  # one LabeledEpochSet per file that has epochs
    counts, failures = {}, {}
    for path in edf_paths:
        try:
            labeled = _labeled_epochs(path, intervals[path.name], task=task, **params)
        except DataError as exc:
            failures[path.name] = str(exc)
            warn(f"{path.name}: {exc}")
            continue
        if len(labeled.epochs):
            sets.append(labeled)
        counts[path.name] = (len(labeled.epochs), int(labeled.labels.sum()))
    if not sets:
        raise DataError(
            "every EDF file failed to ingest: "
            + "; ".join(f"{k}: {v}" for k, v in sorted(failures.items()))
        )
    shapes = {s.epochs.samples.shape[1:] for s in sets}
    if len(shapes) > 1:
        raise DataError(
            f"recordings disagree on channel count or rate: epoch shapes {sorted(shapes)}"
        )

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    labels = np.concatenate([s.labels for s in sets])
    fields = ("patients", "files", "starts")
    meta = {f: np.concatenate([getattr(s.epochs, f) for s in sets]) for f in fields}
    write_feature_csv(FeatureMatrix(np.zeros((len(labels), 0)), **meta), labels, out / META)
    _save_epochs(out / EPOCHS, [s.epochs.samples for s in sets])
    n_channels, window = shapes.pop()
    info = {
        "epoch_len_s": epoch_len_s,
        "task": task,
        "horizon_s": horizon_s,
        "n_channels": n_channels,
        "window": window,
        "spec_version": SPEC_VERSION,
    }
    write_json(out / INFO, info)
    if demographics_rows:
        with open(out / DEMOGRAPHICS, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(demographics_rows) + "\n")
    inputs = [p for p in edf_paths if p.name in counts] + [Path(s) for s in summaries]
    return counts, failures, inputs + ([Path(demographics)] if demographics else [])


def _labeled_epochs(path: Path, seizures, **params) -> LabeledEpochSet:
    """One EDF file's labeled epochs. A recording with a blank patient
    header takes the file-name prefix as its patient (`chb05_17.edf` ->
    `chb05`)."""
    rec = parse_edf(path.read_bytes())
    signals, rates = list(rec.signals), rec.sample_rate_hz
    patient = rec.patient_id if rec.patient_id.strip() else path.stem.split("_")[0] or path.stem
    del rec  # signals now holds the only reference to each parsed channel
    return stream_labeled_epochs(
        signals, rates, seizures, patient=patient, file_name=path.name, **params
    )


def _demographics_rows(path: Path) -> list[str]:
    """The lines of demographics.csv for a patient,age,gender table: the
    count of each gender, then of each decade of age."""
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
    return (
        ["kind,key,count"]
        + [f"gender,{g},{genders[g]}" for g in sorted(genders)]
        + [f"age,{lo}-{lo + 9},{decades[lo]}" for lo in sorted(decades)]
    )


def _save_epochs(path: Path, parts) -> None:
    """Write the file that np.save(path, np.concatenate(parts)) writes, for
    float64 (n, channels, window) arrays that share their trailing shape,
    without the concatenated copy: one .npy header, then the C-order bytes
    of each part a few MB at a time."""
    shape = (sum(len(p) for p in parts), *parts[0].shape[1:])
    descr = np.lib.format.dtype_to_descr(np.dtype(np.float64))
    header = {"descr": descr, "fortran_order": False, "shape": shape}
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for part in parts:
            step = max(1, _WRITE_BLOCK // part[0].nbytes)
            for i in range(0, len(part), step):
                fh.write(np.ascontiguousarray(part[i : i + step], dtype=np.float64).data)


def read_store(store_dir) -> tuple[Epochs, np.ndarray]:
    """The epochs and labels of the store in store_dir. A missing or
    malformed file, or files that disagree on the number of epochs, is a
    DataError."""
    epochs_path, meta_path, info_path = (Path(store_dir) / n for n in (EPOCHS, META, INFO))
    for p in (epochs_path, meta_path, info_path):
        if not p.is_file():
            raise DataError(f"missing store file: {p}")
    try:
        # Integers parse as floats, so a huge one reads as inf, not an int.
        info = json.loads(read_utf8(info_path), parse_int=float)
    except ValueError as exc:
        raise DataError(f"{info_path}: invalid JSON: {exc}") from None
    epoch_len_s = info.get("epoch_len_s") if isinstance(info, dict) else None
    if epoch_len_s not in DOMAINS["epoch_len_s"]:
        raise DataError(
            f"{info_path}: epoch_len_s must be a positive finite number, got {epoch_len_s!r}"
        )
    meta, labels = read_feature_csv(meta_path)
    if meta.n_dims:
        raise DataError(f"{meta_path}: unexpected feature columns in the header")
    try:
        stack = np.load(epochs_path)
    except (ValueError, EOFError) as exc:
        raise DataError(f"{epochs_path}: not a readable .npy array: {exc}") from None
    if stack.ndim != 3 or stack.dtype.kind not in "fiu":
        raise DataError(
            f"{epochs_path}: expected a 3-d numeric array, got {stack.dtype} {stack.shape}"
        )
    if len(stack) != meta.n_rows:
        raise DataError(f"store mismatch: {len(stack)} epochs vs {meta.n_rows} meta rows")
    epochs = Epochs(stack, meta.patients, meta.files, meta.starts, duration_s=epoch_len_s)
    return epochs, labels
