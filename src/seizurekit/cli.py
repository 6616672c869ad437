"""Command-line experiment harness.

Subcommands cover the whole workflow: `synth` generates the validation
dataset, `ingest` reads EDF recordings plus seizure summaries into an
epoch store, `featurize` turns the store into a feature CSV, and
`train` / `eval` / `cv` / `predict` run models over feature CSVs under the
leakage-safe pipeline. Every run writes a manifest (config echo, seed,
SHA-256 of each input) so results can be reproduced byte for byte; no
output embeds a timestamp.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 leakage-gate abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .edf import parse_edf, parse_seizure_summary
from .epochs import (
    Epoch,
    check_highpass,
    denoise,
    label_detection,
    label_prediction,
    slice_epochs,
)
from .errors import ConfigError, DataError, LeakageError
from .evaluation import assert_patient_disjoint
from .features import (
    Scaler,
    apply_scaler,
    extract_features,
    fit_scaler,
    read_feature_csv,
    write_feature_csv,
)
from .models import MODELS, load_model, save_model, spec_for
from .models.registry import DEFAULT_MODEL
from .pipeline import (
    PipelineConfig,
    metrics_report,
    model_inputs,
    patient_split,
    predict_and_score,
    run_cv,
    run_holdout,
)
from .synthetic import SynthConfig, generate_synthetic
from .version import SPEC_VERSION


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract wants exit 1."""

    def error(self, message):
        raise ConfigError(message)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out: Path, command: str, config: dict, seed: int, inputs: dict) -> None:
    _write_json(
        out / "manifest.json",
        {
            "command": command,
            "config": config,
            "seed": seed,
            "inputs": {name: _sha256(Path(p)) for name, p in sorted(inputs.items())},
            "spec_version": SPEC_VERSION,
        },
    )


def _load_config_file(path: str | None, allowed: set) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(
            f"{path}: unknown config key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    return doc


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_roc_csv(path: Path, points) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("fpr,tpr\n")
        for fpr, tpr in points:
            fh.write(f"{repr(float(fpr))},{repr(float(tpr))}\n")


def _report_without_curve(report: dict) -> dict:
    out = {k: v for k, v in report.items() if k != "roc_points"}
    return out


# ---------------------------------------------------------------- synth

_SYNTH_KEYS = {
    "patients",
    "epochs_per_patient",
    "prevalence",
    "channels",
    "separation",
    "patient_effect",
}


def cmd_synth(args) -> int:
    file_cfg = _load_config_file(args.config, _SYNTH_KEYS)

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return file_cfg.get(key, default)

    cfg = SynthConfig(
        n_patients=int(pick(args.patients, "patients", 23)),
        epochs_per_patient=int(pick(args.epochs_per_patient, "epochs_per_patient", 1800)),
        seizure_prevalence=float(pick(args.prevalence, "prevalence", 0.06)),
        n_channels=int(pick(args.channels, "channels", 23)),
        class_separation=float(pick(args.separation, "separation", 0.35)),
        patient_effect_scale=float(pick(args.patient_effect, "patient_effect", 0.5)),
        seed=args.seed,
    )
    out = _out_dir(args)
    fm, labels = generate_synthetic(cfg)
    write_feature_csv(fm, labels, out / "features.csv")
    config_echo = {
        "patients": cfg.n_patients,
        "epochs_per_patient": cfg.epochs_per_patient,
        "prevalence": cfg.seizure_prevalence,
        "channels": cfg.n_channels,
        "separation": cfg.class_separation,
        "patient_effect": cfg.patient_effect_scale,
    }
    _write_manifest(out, "synth", config_echo, cfg.seed, {})
    print(
        f"synth: wrote {fm.n_rows} rows ({int(labels.sum())} positive, "
        f"{fm.n_dims} feature dims) to {out / 'features.csv'}"
    )
    return 0


# ---------------------------------------------------------------- ingest

_INGEST_KEYS = {
    "edf_dir",
    "summaries",
    "task",
    "epoch_len_s",
    "horizon_s",
    "highpass_hz",
    "demographics",
}


def _patient_for(rec_patient: str, file_name: str) -> str:
    """Recordings with a blank patient header fall back to the file prefix."""
    if rec_patient.strip():
        return rec_patient
    stem = Path(file_name).stem
    return stem.split("_")[0] or stem


def _load_intervals(summary_paths, known_files, warn) -> dict:
    intervals = {}
    for spath in summary_paths:
        p = Path(spath)
        if not p.is_file():
            raise DataError(f"summary file not found: {spath}")
        parsed = parse_seizure_summary(p.read_text(encoding="utf-8"))
        for fname, ivs in parsed.items():
            if fname not in known_files:
                warn(f"summary references missing file {fname!r}; intervals ignored")
                continue
            intervals.setdefault(fname, []).extend(ivs)
    return intervals


def _demographics_rows(info_path: Path) -> list[str]:
    lines = info_path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip().lower() != "patient,age,gender":
        raise DataError(f"{info_path}: expected header 'patient,age,gender'")
    gender_counts: dict[str, int] = {}
    age_bins: dict[str, int] = {}
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 3:
            raise DataError(f"{info_path}:{ln}: expected 3 fields")
        try:
            age = float(cells[1])
        except ValueError:
            raise DataError(f"{info_path}:{ln}: age {cells[1]!r} is not numeric") from None
        gender = cells[2] or "unknown"
        gender_counts[gender] = gender_counts.get(gender, 0) + 1
        lo = int(age // 10) * 10
        key = f"{lo}-{lo + 9}"
        age_bins[key] = age_bins.get(key, 0) + 1
    rows = ["kind,key,count"]
    for g in sorted(gender_counts):
        rows.append(f"gender,{g},{gender_counts[g]}")
    for b in sorted(age_bins, key=lambda s: int(s.split('-')[0])):
        rows.append(f"age,{b},{age_bins[b]}")
    return rows


def cmd_ingest(args) -> int:
    file_cfg = _load_config_file(args.config, _INGEST_KEYS)
    edf_dir = args.edf_dir or file_cfg.get("edf_dir")
    if not edf_dir:
        raise ConfigError("ingest needs --edf-dir (or edf_dir in the config file)")
    summaries = list(args.summary or []) or list(file_cfg.get("summaries", []))
    task = args.task or file_cfg.get("task", "detection")
    if task not in ("detection", "prediction"):
        raise ConfigError(f"task must be detection or prediction, got {task!r}")
    epoch_len = float(
        args.epoch_len if args.epoch_len is not None else file_cfg.get("epoch_len_s", 2.0)
    )
    horizon = float(
        args.horizon if args.horizon is not None else file_cfg.get("horizon_s", 300.0)
    )
    highpass = args.highpass if args.highpass is not None else file_cfg.get("highpass_hz")
    if highpass is not None:
        check_highpass(highpass)
    demographics = args.demographics or file_cfg.get("demographics")

    d = Path(edf_dir)
    if not d.is_dir():
        raise DataError(f"EDF directory not found: {edf_dir}")
    edf_paths = sorted(p for p in d.iterdir() if p.suffix.lower() == ".edf")
    if not edf_paths:
        raise DataError(f"no EDF files found in {edf_dir}")

    def warn(msg):
        print(f"warning: {msg}", file=sys.stderr)

    known = {p.name for p in edf_paths}
    intervals = _load_intervals(summaries, known, warn)

    out = _out_dir(args)
    all_epochs = []
    all_labels = []
    failures = {}
    for path in edf_paths:
        try:
            rec = parse_edf(path.read_bytes())
            rec = denoise(rec, highpass_hz=highpass)
            epochs = slice_epochs(rec, epoch_len_s=epoch_len, file_name=path.name)
            ivs = intervals.get(path.name, [])
            if task == "detection":
                labeled = label_detection(epochs, ivs)
            else:
                labeled = label_prediction(epochs, ivs, horizon_s=horizon)
        except DataError as exc:
            failures[path.name] = str(exc)
            warn(f"{path.name}: {exc}")
            continue
        patient = _patient_for(rec.patient_id, path.name)
        if patient != rec.patient_id:
            labeled = dataclasses.replace(
                labeled,
                epochs=tuple(
                    dataclasses.replace(e, patient_id=patient) for e in labeled.epochs
                ),
            )
        all_epochs.extend(labeled.epochs)
        all_labels.extend(int(v) for v in labeled.labels)
        print(
            f"{path.name}: {len(labeled.epochs)} epochs, "
            f"{int(labeled.labels.sum())} positive"
        )
    if not all_epochs:
        raise DataError(
            "every EDF file failed to ingest: "
            + "; ".join(f"{k}: {v}" for k, v in sorted(failures.items()))
        )

    shapes = {e.samples.shape for e in all_epochs}
    if len(shapes) > 1:
        raise DataError(
            f"recordings disagree on channel count or rate: epoch shapes {sorted(shapes)}"
        )

    stack = np.stack([e.samples for e in all_epochs])
    np.save(out / "epochs.npy", stack)
    with open(out / "meta.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("patient,file,start_s,label\n")
        for e, label in zip(all_epochs, all_labels):
            fh.write(f"{e.patient_id},{e.file_name},{repr(float(e.start_s))},{label}\n")
    _write_json(
        out / "store_info.json",
        {
            "epoch_len_s": epoch_len,
            "task": task,
            "horizon_s": horizon,
            "n_channels": int(stack.shape[1]),
            "window": int(stack.shape[2]),
            "spec_version": SPEC_VERSION,
        },
    )
    if demographics:
        rows = _demographics_rows(Path(demographics))
        with open(out / "demographics.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(rows) + "\n")

    inputs = {p.name: p for p in edf_paths if p.name not in failures}
    inputs.update({Path(s).name: s for s in summaries})
    config_echo = {
        "edf_dir": str(edf_dir),
        "summaries": [str(s) for s in summaries],
        "task": task,
        "epoch_len_s": epoch_len,
        "horizon_s": horizon,
        "highpass_hz": highpass,
    }
    _write_manifest(out, "ingest", config_echo, args.seed, inputs)
    print(
        f"ingest: {len(all_epochs)} epochs from {len(edf_paths) - len(failures)} file(s), "
        f"{sum(all_labels)} positive; {len(failures)} failure(s)"
    )
    return 0


# ---------------------------------------------------------------- featurize

_FEATURIZE_KEYS = {"store", "pool_channels"}


def cmd_featurize(args) -> int:
    file_cfg = _load_config_file(args.config, _FEATURIZE_KEYS)
    store = args.store or file_cfg.get("store")
    if not store:
        raise ConfigError("featurize needs --store (or store in the config file)")
    pool = args.pool_channels or bool(file_cfg.get("pool_channels", False))

    store_dir = Path(store)
    epochs_path = store_dir / "epochs.npy"
    meta_path = store_dir / "meta.csv"
    info_path = store_dir / "store_info.json"
    for p in (epochs_path, meta_path, info_path):
        if not p.is_file():
            raise DataError(f"missing store file: {p}")
    info = json.loads(info_path.read_text(encoding="utf-8"))
    stack = np.load(epochs_path)
    meta_lines = meta_path.read_text(encoding="utf-8").splitlines()
    if meta_lines[0] != "patient,file,start_s,label":
        raise DataError(f"{meta_path}: unexpected header {meta_lines[0]!r}")
    if len(meta_lines) - 1 != len(stack):
        raise DataError(
            f"store mismatch: {len(stack)} epochs vs {len(meta_lines) - 1} meta rows"
        )

    epochs = []
    labels = []
    for line in meta_lines[1:]:
        if not line:
            continue
        patient, fname, start_s, label = line.split(",")
        epochs.append((patient, fname, float(start_s)))
        labels.append(int(label))
    epoch_objs = [
        Epoch(
            patient_id=patient,
            file_name=fname,
            start_s=start,
            duration_s=float(info["epoch_len_s"]),
            samples=stack[i],
        )
        for i, (patient, fname, start) in enumerate(epochs)
    ]
    fm = extract_features(epoch_objs, pool_channels=pool)
    out = _out_dir(args)
    write_feature_csv(fm, np.array(labels, dtype=np.int64), out / "features.csv")
    _write_manifest(
        out,
        "featurize",
        {"store": str(store), "pool_channels": pool},
        args.seed,
        {"epochs.npy": epochs_path, "meta.csv": meta_path},
    )
    print(f"featurize: {fm.n_rows} rows x {fm.n_dims} dims -> {out / 'features.csv'}")
    return 0


# ---------------------------------------------------------------- train / eval / cv

_RUN_KEYS = {
    "model",
    "model_params",
    "smote",
    "smote_k",
    "smote_ratio",
    "split_ratios",
    "sequence_length",
    "max_train_rows",
    "train_patients",
    "val_patients",
    "test_patients",
    "k",
}


def _pipeline_config(args, file_cfg: dict) -> PipelineConfig:
    model = args.model or file_cfg.get("model", DEFAULT_MODEL)
    if args.smote and args.no_smote:
        raise ConfigError("--smote and --no-smote are mutually exclusive")
    if args.smote:
        use_smote = True
    elif args.no_smote:
        use_smote = False
    else:
        use_smote = bool(file_cfg.get("smote", False))
    ratios = file_cfg.get("split_ratios", [0.5, 0.25, 0.25])
    if not (isinstance(ratios, (list, tuple)) and len(ratios) == 3):
        raise ConfigError(f"split_ratios must be a list of 3 numbers, got {ratios!r}")
    return PipelineConfig(
        model=model,
        model_params=dict(file_cfg.get("model_params", {})),
        use_smote=use_smote,
        smote_k=int(file_cfg.get("smote_k", 5)),
        smote_ratio=float(file_cfg.get("smote_ratio", 1.0)),
        split_ratios=tuple(float(r) for r in ratios),
        sequence_length=int(file_cfg.get("sequence_length", 10)),
        max_train_rows=file_cfg.get("max_train_rows"),
        allow_leaky_split=bool(getattr(args, "allow_leaky_split", False)),
        seed=args.seed,
    )


def _explicit_split(file_cfg: dict):
    keys = ("train_patients", "val_patients", "test_patients")
    if not any(k in file_cfg for k in keys):
        return None
    return tuple(tuple(map(str, file_cfg.get(k, ()))) for k in keys)


def _config_echo(cfg: PipelineConfig, extra: dict | None = None) -> dict:
    echo = {
        "model": cfg.model,
        "model_params": cfg.model_params,
        "smote": cfg.use_smote,
        "smote_k": cfg.smote_k,
        "smote_ratio": cfg.smote_ratio,
        "split_ratios": list(cfg.split_ratios),
        "sequence_length": cfg.sequence_length,
        "max_train_rows": cfg.max_train_rows,
        "allow_leaky_split": cfg.allow_leaky_split,
    }
    if extra:
        echo.update(extra)
    return echo


def cmd_train(args) -> int:
    file_cfg = _load_config_file(args.config, _RUN_KEYS)
    cfg = _pipeline_config(args, file_cfg)
    fm, labels = read_feature_csv(args.features)
    result = run_holdout(fm, labels, cfg, _explicit_split(file_cfg))

    out = _out_dir(args)
    save_model(result.model, out / "model.json")
    _write_json(
        out / "scaler.json",
        {
            "mean": result.scaler.mean.tolist(),
            "std": result.scaler.std.tolist(),
            "spec_version": SPEC_VERSION,
        },
    )
    _write_json(out / "report.json", _report_without_curve(result.report))
    if "roc_points" in result.report:
        _write_roc_csv(out / "roc.csv", result.report["roc_points"])
    _write_manifest(
        out, "train", _config_echo(cfg), cfg.seed, {"features.csv": args.features}
    )
    acc = result.report.get("accuracy")
    rec = result.report.get("recall")
    print(
        f"train[{cfg.model}{'+smote' if cfg.use_smote else ''}]: "
        f"test accuracy {acc:.4f}, recall {rec:.4f} -> {out}"
    )
    return 0


def cmd_eval(args) -> int:
    file_cfg = _load_config_file(args.config, _RUN_KEYS)
    model = load_model(args.model_file)
    name = spec_for(model).name
    if file_cfg.get("model", name) != name:
        raise ConfigError(
            f"config model {file_cfg['model']!r} does not match the {name} model "
            f"in {args.model_file}"
        )
    cfg = _pipeline_config(args, {**file_cfg, "model": name})
    fm, labels = read_feature_csv(args.features)

    rows, split = patient_split(fm, cfg, _explicit_split(file_cfg))
    train_idx, test_idx = rows["train"], rows["test"]
    assert_patient_disjoint(fm.patients[train_idx], fm.patients[test_idx])
    if len(train_idx) == 0 or len(test_idx) == 0:
        raise DataError("evaluation split has an empty side")

    scaler = fit_scaler(fm.take(train_idx))
    test_fm = apply_scaler(scaler, fm.take(test_idx))
    inputs = model_inputs(cfg.spec, test_fm, labels[test_idx], cfg.sequence_length)
    y_pred, scores = predict_and_score(model, inputs.X, cfg.threshold)

    report = metrics_report(inputs.y, y_pred, scores)
    out = _out_dir(args)
    if "roc_points" in report:
        _write_roc_csv(out / "roc.csv", report.pop("roc_points"))
    report["n_test_rows"] = int(len(inputs))
    report["test_patients"] = split["test_patients"]
    _write_json(out / "metrics.json", report)
    _write_manifest(
        out,
        "eval",
        _config_echo(cfg),
        cfg.seed,
        {"features.csv": args.features, "model.json": args.model_file},
    )
    print(
        f"eval[{Path(args.model_file).name}]: accuracy {report['accuracy']:.4f}, "
        f"recall {report['recall']:.4f} -> {out}"
    )
    return 0


def cmd_cv(args) -> int:
    file_cfg = _load_config_file(args.config, _RUN_KEYS)
    cfg = _pipeline_config(args, file_cfg)
    k = int(args.k if args.k is not None else file_cfg.get("k", 5))
    fm, labels = read_feature_csv(args.features)
    result = run_cv(fm, labels, cfg, k=k)

    out = _out_dir(args)
    for report in result["folds"]:
        _write_json(out / f"fold_{report['fold']}.json", _report_without_curve(report))
    summary = {
        "k": k,
        "seed": cfg.seed,
        "metrics": result["summary"],
        "formatted": {
            name: (
                f"{stats['mean'] * 100:.2f}% (±{stats['std'] * 100:.2f}%)"
                if name != "auc"
                else f"{stats['mean']:.4f} (±{stats['std']:.4f})"
            )
            for name, stats in sorted(result["summary"].items())
        },
    }
    _write_json(out / "summary.json", summary)
    with open(out / "folds.csv", "w", encoding="utf-8", newline="\n") as fh:
        metric_names = ["accuracy", "precision", "recall", "f1", "auc"]
        fh.write("fold," + ",".join(metric_names) + "\n")
        for report in result["folds"]:
            cells = [str(report["fold"])]
            cells += [repr(float(report[m])) if m in report else "" for m in metric_names]
            fh.write(",".join(cells) + "\n")
    _write_manifest(
        out,
        "cv",
        _config_echo(cfg, {"k": k}),
        cfg.seed,
        {"features.csv": args.features},
    )
    acc = summary["formatted"].get("accuracy", "n/a")
    print(f"cv[{cfg.model}{'+smote' if cfg.use_smote else ''}, k={k}]: accuracy {acc} -> {out}")
    return 0


# ---------------------------------------------------------------- predict

_PREDICT_KEYS = {"threshold", "sequence_length"}


def cmd_predict(args) -> int:
    file_cfg = _load_config_file(args.config, _PREDICT_KEYS)
    threshold = args.threshold if args.threshold is not None else file_cfg.get("threshold")
    seq_len = int(file_cfg.get("sequence_length", 10))
    fm, _ = read_feature_csv(args.features)
    model = load_model(args.model_file)
    spec = spec_for(model)
    if threshold is None:
        threshold = spec.defaults.get("threshold", 0.5)
    elif "threshold" not in spec.defaults:
        raise ConfigError(f"{spec.name} models take no decision threshold")
    threshold = float(threshold)

    if args.scaler_file:
        doc = json.loads(Path(args.scaler_file).read_text(encoding="utf-8"))
        scaler = Scaler(
            mean=np.array(doc["mean"], dtype=np.float64),
            std=np.array(doc["std"], dtype=np.float64),
        )
        fm = apply_scaler(scaler, fm)

    inputs = model_inputs(spec, fm, np.zeros(fm.n_rows, dtype=np.int64), seq_len)
    classes, scores = predict_and_score(model, inputs.X, threshold)
    rows = zip(inputs.patients, inputs.files, inputs.starts, scores, classes)

    out = _out_dir(args)
    with open(out / "predictions.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("patient,file,start_s,score,class\n")
        for patient, fname, start, score, cls in rows:
            fh.write(
                f"{patient},{fname},{repr(float(start))},{repr(float(score))},{int(cls)}\n"
            )
    inputs = {"features.csv": args.features, "model.json": args.model_file}
    if args.scaler_file:
        inputs["scaler.json"] = args.scaler_file
    _write_manifest(
        out,
        "predict",
        {"threshold": threshold, "sequence_length": seq_len},
        args.seed,
        inputs,
    )
    print(f"predict: {len(classes)} rows -> {out / 'predictions.csv'}")
    return 0


# ---------------------------------------------------------------- parser

def _add_common(sp, out_required: bool = True):
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--seed", type=int, default=0, help="master random seed")
    sp.add_argument("--out", required=out_required, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seizurekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic validation dataset")
    _add_common(p)
    p.add_argument("--patients", type=int)
    p.add_argument("--epochs-per-patient", type=int, dest="epochs_per_patient")
    p.add_argument("--prevalence", type=float)
    p.add_argument("--channels", type=int)
    p.add_argument("--separation", type=float)
    p.add_argument("--patient-effect", type=float, dest="patient_effect")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="read EDF files + seizure summaries into an epoch store")
    _add_common(p)
    p.add_argument("--edf-dir", dest="edf_dir")
    p.add_argument("--summary", action="append", help="seizure summary file (repeatable)")
    p.add_argument("--task", choices=("detection", "prediction"))
    p.add_argument("--epoch-len", type=float, dest="epoch_len")
    p.add_argument("--horizon", type=float)
    p.add_argument("--highpass", type=float, help="optional high-pass cutoff in Hz")
    p.add_argument(
        "--demographics", help="patient,age,gender CSV; emits age/gender count summaries"
    )
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("featurize", help="turn an epoch store into a feature CSV")
    _add_common(p)
    p.add_argument("--store", help="directory written by ingest")
    p.add_argument("--pool-channels", action="store_true", dest="pool_channels")
    p.set_defaults(func=cmd_featurize)

    for name, fn, needs_model in (
        ("train", cmd_train, False),
        ("eval", cmd_eval, True),
        ("cv", cmd_cv, False),
    ):
        p = sub.add_parser(name, help=f"{name} on a feature CSV")
        _add_common(p)
        p.add_argument("--features", required=True, help="feature CSV path")
        if needs_model:
            p.add_argument("--model", required=True, dest="model_file", help="model JSON")
            p.set_defaults(model=None)
        else:
            p.add_argument("--model", choices=tuple(MODELS))
        p.add_argument("--smote", action="store_true")
        p.add_argument("--no-smote", action="store_true", dest="no_smote")
        p.add_argument(
            "--allow-leaky-split",
            action="store_true",
            dest="allow_leaky_split",
            help="row-level split that ignores patients (demo only)",
        )
        if name == "cv":
            p.add_argument("--k", type=int)
        p.set_defaults(func=fn)

    p = sub.add_parser("predict", help="apply a saved model to a feature CSV")
    _add_common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True, dest="model_file")
    p.add_argument("--scaler", dest="scaler_file", help="scaler JSON from train")
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LeakageError as exc:
        print(f"leakage: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
