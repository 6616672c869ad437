"""The benchmark's workloads: inputs built from a seed, the CLI commands
timed on them, and one output check per command.

Every workload drives the `seizurekit` CLI the way a user does. Set-up
builds the inputs with the program's own public functions; the commands
then see only those files. Paths handed to the CLI are relative to the
run's work directory, so a command's outputs (manifests included) are
byte-identical from one repetition to the next.

Run as a script, this file performs one set-up in a process of its own,
so that the benchmark process stays small (a command process started
from it inherits its peak RSS):

    python perfbench/workloads.py WORKLOAD SEED WORK_DIR [SPANS_JSON]

It prints the set-up time and the facts the checks need as one JSON line;
with SPANS_JSON it traces the set-up and writes the spans there.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Called through their modules, so that a traced run sees these calls.
from seizurekit import edf, features, synthetic
from seizurekit.synthetic import SynthConfig

# CHB-MIT shape (Shoeb, MIT thesis 2009): 23 channels at 256 Hz in 30-min
# files, cut into 2-s epochs.
EEG_RATE_HZ = 256
EEG_EPOCHS_PER_FILE = 900
EEG_EPOCH_S = 2.0
HORIZON_S = 300.0
# One whole recording plus a second one cut short, which must fail to
# parse. Each whole file costs about 7 s of ingest on a 2-core machine;
# one keeps a repetition short, so that a run holds several.
EEG_FILES = 2

# 23 patients x 92 feature dims as in the default synthetic set, with 300
# epochs per patient instead of 1800 so a run repeats its commands within
# the time budget; at this size the criterion-2 bounds hold for every seed
# tried (0-39).
FEATURE_EPOCHS = 300
SEQUENCE_LENGTH = 10  # the CLI default for lstm windows

# The model parameters acceptance criterion 2 uses, row caps included.
TRAIN_CONFIGS = {
    "logreg": {
        "model": "logreg",
        "model_params": {"learning_rate": 0.5, "max_iters": 300},
        "smote": True,
    },
    "rf": {"model": "rf", "model_params": {"n_trees": 20, "max_depth": 6}, "max_train_rows": 8000},
    "svm": {"model": "svm", "model_params": {"C": 0.1, "max_passes": 30}},
    "lstm": {"model": "lstm", "model_params": {"hidden_dim": 16, "epochs": 2, "batch_size": 64}},
    # Not in criterion 2; its reference set is capped so that scoring it
    # costs about as much as scoring the others.
    "knn": {"model": "knn", "model_params": {"k": 5}, "max_train_rows": 1000},
}
CV_CONFIG = {"model": "logreg", "model_params": {"max_iters": 100}}
CV_FOLDS = 5
# Models trained earlier in the same repetition that `eval` and `predict`
# load and score. knn is scored only inside `train`, on its test split,
# which is what `eval` would repeat.
EVAL_MODELS = ("logreg", "rf", "svm", "lstm")
PREDICT_MODELS = ("rf", "lstm")

METRIC_KEYS = (
    "tp", "fp", "tn", "fn", "accuracy", "precision", "recall", "f1",
    "weighted_precision", "weighted_recall", "auc",
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of what it wrote."""

    kind: str  # CLI subcommand
    label: str  # unique within the workload
    argv: tuple[str, ...]  # arguments after `python -m seizurekit`
    out: str  # output directory, relative to the work directory
    check: Callable[[Path, str], str | None]  # (work dir, stdout+stderr) -> problem or None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path], dict]  # (seed, work dir) -> facts the checks need
    commands: Callable[[dict], list[Command]]


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:] if line]


def _count_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 1


# ---------------------------------------------------------------- eeg_to_features


def _seizures(rng, duration_s: float) -> list[tuple[float, float]]:
    """One or two seizures of 20-90 s, one per half of the recording."""
    out = []
    for lo, hi in ((60, duration_s / 2 - 100), (duration_s / 2, duration_s - 100))[: rng.integers(1, 3)]:
        start = float(rng.integers(lo, hi))
        out.append((start, start + float(rng.integers(20, 91))))
    return out


def expected_prediction_counts(n_epochs: int, seizures) -> tuple[int, int]:
    """(kept, positive) epochs under prediction labelling, by plain arithmetic.

    Epochs overlapping a seizure are dropped; the rest are positive when
    they overlap the horizon before a seizure start.
    """
    kept = positive = 0
    for i in range(n_epochs):
        a, b = i * EEG_EPOCH_S, (i + 1) * EEG_EPOCH_S
        if any(a < end and start < b for start, end in seizures):
            continue
        kept += 1
        if any(a < start and start - HORIZON_S < b for start, _ in seizures):
            positive += 1
    return kept, positive


def setup_eeg(seed: int, work: Path) -> dict:
    cfg = SynthConfig(n_patients=EEG_FILES, epochs_per_patient=EEG_EPOCHS_PER_FILE, seed=seed)
    recordings = synthetic.generate_synthetic_recordings(cfg, sample_rate_hz=EEG_RATE_HZ, epoch_len_s=EEG_EPOCH_S)
    edf_dir = work / "in" / "edf"
    edf_dir.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    summary = [f"Data Sampling Rate: {EEG_RATE_HZ} Hz", ""]
    expected = {}
    for i, (name, rec) in enumerate(recordings):
        raw = edf.write_edf(rec)
        seizures = _seizures(rng, rec.duration_s)
        summary += [f"File Name: {name}", f"Number of Seizures in File: {len(seizures)}"]
        for k, (start, end) in enumerate(seizures, start=1):
            summary += [
                f"Seizure {k} Start Time: {start:g} seconds",
                f"Seizure {k} End Time: {end:g} seconds",
            ]
        summary.append("")
        if i == len(recordings) - 1:
            truncated = name
            raw = raw[: len(raw) * 2 // 5 + 3]
        else:
            expected[name] = expected_prediction_counts(rec.num_records, seizures)
        (edf_dir / name).write_bytes(raw)
    (work / "in" / "summary.txt").write_text("\n".join(summary), encoding="utf-8")
    return {
        "expected": expected,
        "truncated": truncated,
        "inputs": {
            "edf_files": len(recordings),
            "minutes_per_file": EEG_EPOCHS_PER_FILE * EEG_EPOCH_S / 60,
            "channels": cfg.n_channels,
            "rate_hz": EEG_RATE_HZ,
            "truncated_file": truncated,
        },
    }


def _check_ingest(facts: dict):
    expected = facts["expected"]

    def check(work: Path, log: str) -> str | None:
        store = work / "out" / "store"
        counts: dict[str, list[int]] = {}
        for _patient, fname, _start, label in _csv_rows(store / "meta.csv"):
            kept_pos = counts.setdefault(fname, [0, 0])
            kept_pos[0] += 1
            kept_pos[1] += int(label)
        got = {name: tuple(v) for name, v in counts.items()}
        if got != {name: tuple(v) for name, v in expected.items()}:
            return f"ingest (kept, positive) per file {got}, expected {expected}"
        shape = np.load(store / "epochs.npy", mmap_mode="r").shape
        if shape[0] != sum(k for k, _ in expected.values()):
            return f"epochs.npy holds {shape[0]} epochs"
        if "; 1 failure(s)" not in log or f"{facts['truncated']}: " not in log:
            return "ingest did not report the truncated file as its one failure"
        return None

    return check


def _check_featurize(facts: dict):
    def check(work: Path, log: str) -> str | None:
        store_rows = _count_rows(work / "out" / "store" / "meta.csv")
        rows = _count_rows(work / "out" / "features" / "features.csv")
        if rows != store_rows or store_rows != sum(k for k, _ in facts["expected"].values()):
            return f"featurize wrote {rows} rows for a store of {store_rows}"
        return None

    return check


def commands_eeg(facts: dict) -> list[Command]:
    return [
        Command(
            "ingest",
            "ingest",
            (
                "ingest", "--edf-dir", "in/edf", "--summary", "in/summary.txt",
                "--task", "prediction", "--highpass", "0.5", "--out", "out/store",
            ),
            "out/store",
            _check_ingest(facts),
        ),
        Command(
            "featurize",
            "featurize",
            ("featurize", "--store", "out/store", "--out", "out/features"),
            "out/features",
            _check_featurize(facts),
        ),
    ]


# ---------------------------------------------------------------- train_and_score


def setup_models(seed: int, work: Path) -> dict:
    """The feature CSV and one config file per `train` and `cv` command."""
    (work / "in").mkdir(parents=True)
    fm, labels = synthetic.generate_synthetic(SynthConfig(epochs_per_patient=FEATURE_EPOCHS, seed=seed))
    features.write_feature_csv(fm, labels, work / "in" / "features.csv")
    for name, cfg in TRAIN_CONFIGS.items():
        _write_json(work / "in" / f"{name}.json", cfg)
    _write_json(work / "in" / "cv.json", CV_CONFIG)
    windows = 0
    for key in dict.fromkeys(zip(fm.patients, fm.files)):
        n = int(((fm.patients == key[0]) & (fm.files == key[1])).sum())
        windows += max(0, n - SEQUENCE_LENGTH + 1)
    return {
        "rows": fm.n_rows,
        "windows": windows,
        "inputs": {
            "rows": fm.n_rows,
            "dims": fm.n_dims,
            "patients": len(set(fm.patients)),
            "positives": int(labels.sum()),
        },
    }


def _check_train(name: str):
    """Criterion 2's ordering: without SMOTE, rf and svm recall < 0.10 and
    below logreg+SMOTE's. Its absolute logreg bounds (recall >= 0.80,
    accuracy >= 0.85) are set for the 23 x 1800 set; at 23 x 300 they fail
    on about 1 seed in 70 (209: accuracy 0.829; 339: recall 0.755), so they
    are not checked here."""

    def check(work: Path, log: str) -> str | None:
        report = _read_json(work / "out" / name / "report.json")
        if "auc" not in report:
            return f"train {name}: report has no auc"
        if name in ("rf", "svm"):
            smote_recall = _read_json(work / "out" / "logreg" / "report.json")["recall"]
            if not report["recall"] < min(0.10, smote_recall):
                return f"train {name}: recall {report['recall']}, need < 0.10 and < logreg+smote's {smote_recall}"
        return None

    return check


def _check_cv(work: Path, log: str) -> str | None:
    out = work / "out" / "cv"
    missing = [f"fold_{i}.json" for i in range(CV_FOLDS) if not (out / f"fold_{i}.json").is_file()]
    if missing or _read_json(out / "summary.json")["k"] != CV_FOLDS:
        return f"cv: missing {missing} or wrong k in summary.json"
    return None


def commands_models(facts: dict) -> list[Command]:
    """Train every model, cross-validate, then score the saved models with
    `eval` and `predict`, in that order, as a user would."""
    cmds = [
        Command(
            "train",
            f"train-{name}",
            ("train", "--features", "in/features.csv", "--config", f"in/{name}.json", "--out", f"out/{name}"),
            f"out/{name}",
            _check_train(name),
        )
        for name in TRAIN_CONFIGS
    ]
    cmds.append(
        Command(
            "cv",
            "cv",
            ("cv", "--features", "in/features.csv", "--config", "in/cv.json", "--k", str(CV_FOLDS), "--out", "out/cv"),
            "out/cv",
            _check_cv,
        )
    )
    cmds += [
        Command(
            "eval",
            f"eval-{name}",
            ("eval", "--features", "in/features.csv", "--model", f"out/{name}/model.json", "--out", f"out/eval-{name}"),
            f"out/eval-{name}",
            _check_eval(name),
        )
        for name in EVAL_MODELS
    ]
    cmds += [
        Command(
            "predict",
            f"predict-{name}",
            (
                "predict", "--features", "in/features.csv", "--model", f"out/{name}/model.json",
                "--scaler", f"out/{name}/scaler.json", "--out", f"out/predict-{name}",
            ),
            f"out/predict-{name}",
            _check_predict(name, facts),
        )
        for name in PREDICT_MODELS
    ]
    return cmds


def _check_eval(name: str):
    def check(work: Path, log: str) -> str | None:
        got = _read_json(work / "out" / f"eval-{name}" / "metrics.json")
        want = _read_json(work / "out" / name / "report.json")
        diff = [k for k in METRIC_KEYS if got.get(k) != want.get(k)]
        if diff:
            return f"eval {name}: {diff} differ from the train report"
        return None

    return check


def _check_predict(name: str, facts: dict):
    want = facts["windows"] if name == "lstm" else facts["rows"]

    def check(work: Path, log: str) -> str | None:
        rows = _count_rows(work / "out" / f"predict-{name}" / "predictions.csv")
        if rows != want:
            return f"predict {name}: {rows} rows, expected {want}"
        return None

    return check


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eeg_to_features",
            "the only path from raw EEG to features: EDF parse, high-pass denoise, epoching, "
            "prediction labels, feature extraction and CSV write; no model or SMOTE code runs",
            setup_eeg,
            commands_eeg,
        ),
        Workload(
            "train_and_score",
            "fitting dominates: logreg+SMOTE, rf, svm, lstm and knn train, 5-fold logreg cv, "
            "then eval and predict load and score the saved models",
            setup_models,
            commands_models,
        ),
    )
}


def main(argv: list[str]) -> int:
    name, seed, work = argv[0], int(argv[1]), Path(argv[2])
    tracer = None
    if len(argv) > 3:
        import spans

        tracer = spans.Tracer("setup")
        spans.install(tracer, spans.SETUP_TARGETS)
    start = time.perf_counter()
    facts = WORKLOADS[name].setup(seed, work)
    seconds = time.perf_counter() - start
    if tracer:
        Path(argv[3]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps({"seconds": seconds, "facts": facts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
