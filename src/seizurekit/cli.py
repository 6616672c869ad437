"""Command-line experiment harness.

Subcommands cover the whole workflow: `synth` generates the validation
dataset, `ingest` reads EDF recordings plus seizure summaries into an
epoch store, `featurize` turns the store into a feature CSV, and
`train` / `eval` / `cv` / `predict` run models over feature CSVs under the
leakage-safe pipeline. Every run writes a manifest (the options it ran
with, seed, SHA-256 of each input) so results can be reproduced byte for
byte; no output embeds a timestamp. Each command's options, config keys
and flags alike, are defined once, in OPTIONS.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 leakage-gate abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import typing
from pathlib import Path

import numpy as np

from .domains import check_params, has_type
from .epochs import TASKS
from .errors import ConfigError, DataError, LeakageError, json_text, write_csv, write_json
from .features import extract_features, read_feature_csv, scaler_doc, write_feature_csv
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


def _write_manifest(
    out: Path, command: str, config: dict, seed: int, inputs: dict, hashed: dict
) -> None:
    """Write the manifest; inputs maps each input's name to its path, hashed
    to the SHA-256 of an input that was hashed as it was read."""
    digests = {name: _sha256(Path(p)) for name, p in inputs.items()} | hashed
    write_json(
        out / "manifest.json",
        {
            "command": command,
            "config": config,
            "seed": seed,
            "inputs": dict(sorted(digests.items())),
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
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(
            f"{path}: unknown config key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    return doc


# ---------------------------------------------------------------- options

# An option that only its flag sets; no config-file key reaches it.
FLAG_ONLY = "flag"
# The flag of a key spelled with dashes: --epochs-per-patient sets epochs_per_patient.
DASHED = "--"

# Every option of every command: config key -> (type, default, flag). A
# default of None also admits null. build_parser makes each flag, which
# overrides the config file: None for a key only the config file sets.
# Each command runs with the dict _options resolves from its entry, and
# its manifest records that dict as `config`. The entries of ingest and
# featurize are here; _synth_options and _model_options build the others
# on first use, so that a command imports only the modules it runs, and
# OPTIONS is all seven.
_DATA_OPTIONS = {
    "ingest": {
        "edf_dir": (str, None, DASHED),
        "summaries": (list[str], [], "--summary"),
        "task": (str, "detection", DASHED),
        "epoch_len_s": (float, 2.0, "--epoch-len"),
        "horizon_s": (float, 300.0, "--horizon"),
        "highpass_hz": (float, None, "--highpass"),
        "demographics": (str, None, DASHED),
    },
    "featurize": {"store": (str, None, DASHED), "pool_channels": (bool, False, DASHED)},
}


@functools.cache
def _synth_options() -> dict:
    """The OPTIONS entry of synth, whose defaults are SynthConfig's."""
    from .synthetic import SynthConfig

    return {
        "patients": (int, SynthConfig.n_patients, DASHED),
        "epochs_per_patient": (int, SynthConfig.epochs_per_patient, DASHED),
        "prevalence": (float, SynthConfig.seizure_prevalence, DASHED),
        "channels": (int, SynthConfig.n_channels, DASHED),
        "separation": (float, SynthConfig.class_separation, DASHED),
        "patient_effect": (float, SynthConfig.patient_effect_scale, DASHED),
    }


@functools.cache
def _model_options() -> tuple[dict, tuple]:
    """The OPTIONS entries of train, cv, eval and predict, and the values
    --model may take. They come from PipelineConfig and the model registry,
    so a command imports the model stack only when it needs these."""
    from .models import MODELS
    from .pipeline import PipelineConfig

    model = {"model": (str, PipelineConfig.model, DASHED), "model_params": (dict, {}, None),
             "sequence_length": (int, PipelineConfig.sequence_length, None)}
    training = {
        "smote": (bool, PipelineConfig.use_smote, DASHED),
        "smote_k": (int, PipelineConfig.smote_k, None),
        "smote_ratio": (float, PipelineConfig.smote_ratio, None),
        "max_train_rows": (int, PipelineConfig.max_train_rows, None),
    }
    split = {
        "split_ratios": (list[float], list(PipelineConfig.split_ratios), None),
        **{f"{side}_patients": (list[str], None, None) for side in ("train", "val", "test")},
    }
    tables = {
        "train": {
            **model, **training, **split, "allow_leaky_split": (FLAG_ONLY, False, DASHED)
        },
        "cv": {**model, **training, "k": (int, 5, DASHED)},
        # eval takes the model type from the model file; its --model names that file.
        "eval": {**model, "model": (str, None, None), **split},
        # None until the model file shows whether the model uses them.
        "predict": {"threshold": (float, None, DASHED), "sequence_length": (int, None, None)},
    }
    return tables, tuple(MODELS)


def _table(command: str) -> dict:
    """command's OPTIONS entry."""
    if command == "synth":
        return _synth_options()
    return _DATA_OPTIONS[command] if command in _DATA_OPTIONS else _model_options()[0][command]


def __getattr__(name: str):
    # OPTIONS is built, and then kept, when an importer first asks for it;
    # the CLI reads _table.
    if name == "OPTIONS":
        globals()["OPTIONS"] = {"synth": _synth_options(), **_DATA_OPTIONS, **_model_options()[0]}
        return OPTIONS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The values a flag may take where its type admits others (--model's are
# _model_options'), and the flags' help texts.
_CHOICES = {"task": TASKS}
_HELP = {
    "summaries": "seizure summary file (repeatable)",
    "highpass_hz": "optional high-pass cutoff in Hz",
    "demographics": "patient,age,gender CSV; emits age/gender count summaries",
    "store": "directory written by ingest",
    "allow_leaky_split": "row-level split that ignores patients (demo only)",
}


def _checked(key: str, value, kind, default):
    """A copy of value in its option's type (an int for a float becomes a float), or ConfigError."""
    if kind is FLAG_ONLY or (value is None and default is None):
        return value
    if typing.get_origin(kind) is list:
        (item,) = typing.get_args(kind)
        if isinstance(value, list) and all(has_type(v, item) for v in value):
            return [item(v) for v in value]
    elif has_type(value, kind):
        return kind(value)
    name = kind if typing.get_origin(kind) else kind.__name__
    raise ConfigError(
        f"{key} must be {name}{' or null' if default is None else ''}, got {value!r}"
    )


def _options(args) -> tuple[dict, set]:
    """The options args.command runs with: its OPTIONS defaults, then the
    config file's keys, then the flags given, each checked for its type;
    and the keys that the config file or a flag gave."""
    table = _table(args.command)
    settable = {key for key, (kind, *_) in table.items() if kind is not FLAG_ONLY}
    given = _load_config_file(args.config, settable)
    given.update((k, v) for k, v in vars(args).items() if k in table and v is not None)
    if getattr(args, "no_smote", False):
        if args.smote:
            raise ConfigError("--smote and --no-smote are mutually exclusive")
        given["smote"] = False
    values = {key: default for key, (_, default, _) in table.items()} | given
    return {key: _checked(key, v, *table[key][:2]) for key, v in values.items()}, set(given)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(path: Path, report: dict) -> None:
    """Write report to path, but its ROC points, if any, to roc.csv beside it."""
    if "roc_points" in report:
        write_csv(path.parent / "roc.csv", "fpr,tpr", list(zip(*report.pop("roc_points"))))
    write_json(path, report)


# ---------------------------------------------------------------- synth

def cmd_synth(args, opts: dict, given: set) -> tuple[dict, dict]:
    from .synthetic import SynthConfig, generate_synthetic

    cfg = SynthConfig(
        n_patients=opts["patients"],
        epochs_per_patient=opts["epochs_per_patient"],
        seizure_prevalence=opts["prevalence"],
        n_channels=opts["channels"],
        class_separation=opts["separation"],
        patient_effect_scale=opts["patient_effect"],
        seed=args.seed,
    )
    out = _out_dir(args)
    fm, labels = generate_synthetic(cfg)
    write_feature_csv(fm, labels, out / "features.csv")
    print(
        f"synth: wrote {fm.n_rows} rows ({int(labels.sum())} positive, "
        f"{fm.n_dims} feature dims) to {out / 'features.csv'}"
    )
    return {}, {}


# ---------------------------------------------------------------- ingest / featurize

def _keyed_by_name(paths) -> dict:
    """Each distinct path under its file name, or under the whole path when
    distinct paths share a file name."""
    paths = set(map(Path, paths))
    names = [p.name for p in paths]
    return {p.name if names.count(p.name) == 1 else str(p): p for p in paths}


def cmd_ingest(args, opts: dict, given: set) -> tuple[dict, dict]:
    from . import store

    if not opts["edf_dir"]:
        raise ConfigError("ingest needs --edf-dir (or edf_dir in the config file)")
    if "horizon_s" in given and opts["task"] == "detection":
        raise ConfigError("horizon_s given but task is detection; only prediction uses it")
    counts, failures, inputs = store.write_store(
        args.out, **opts, warn=lambda msg: print(f"warning: {msg}", file=sys.stderr)
    )
    for name, (kept, positive) in counts.items():
        print(f"{name}: {kept} epochs, {positive} positive")
    print(
        f"ingest: {sum(k for k, _ in counts.values())} epochs from {len(counts)} file(s), "
        f"{sum(p for _, p in counts.values())} positive; {len(failures)} failure(s)"
    )
    return _keyed_by_name(inputs), {}


def cmd_featurize(args, opts: dict, given: set) -> tuple[dict, dict]:
    from . import store

    if not opts["store"]:
        raise ConfigError("featurize needs --store (or store in the config file)")
    # extract_features works row by row, so block by block gives the same rows.
    # map lets go of each block before it asks for the next, so one block is
    # held at a time; a comprehension's loop variable would keep two.
    epochs_sha = hashlib.sha256()
    meta, labels, blocks = store.read_store_blocks(opts["store"], sha256=epochs_sha)
    featurize = functools.partial(extract_features, pool_channels=opts["pool_channels"])
    values = [fm.values for fm in map(featurize, blocks)]
    fm = dataclasses.replace(meta, values=np.concatenate(values))
    out = _out_dir(args)
    write_feature_csv(fm, labels, out / "features.csv")
    print(f"featurize: {fm.n_rows} rows x {fm.n_dims} dims -> {out / 'features.csv'}")
    return {store.META: Path(opts["store"]) / store.META}, {store.EPOCHS: epochs_sha.hexdigest()}


# ---------------------------------------------------------------- train / eval / cv

def _pipeline_config(opts: dict, given: set, seed: int) -> PipelineConfig:
    """The PipelineConfig a run's options describe; the fields a command
    has no option for keep their defaults. An option given that the run
    would not use is a ConfigError."""
    from .pipeline import PipelineConfig, window_length

    names = {f.name for f in dataclasses.fields(PipelineConfig)}
    fields = {k: v for k, v in opts.items() if k in names}
    if "smote" in opts:
        fields["use_smote"] = opts["smote"]
    if "split_ratios" in opts:
        fields["split_ratios"] = tuple(opts["split_ratios"])
    cfg = PipelineConfig(**fields, seed=seed)
    if "sequence_length" in given:
        window_length(cfg.spec, opts["sequence_length"])  # a row model takes none
    unused = sorted(given & {"smote_k", "smote_ratio"})
    if unused and not cfg.use_smote:
        raise ConfigError(f"{' and '.join(unused)} given but smote is off")
    lists = sorted(k for k in given if k.endswith("_patients") and opts[k] is not None)
    dropped = [k for k in ("split_ratios", "allow_leaky_split") if k in given and opts[k]]
    if lists and dropped:
        raise ConfigError(f"{dropped[0]} given with {lists[0]}: the patient lists fix the split")
    return cfg


def _explicit_split(opts: dict):
    lists = [opts[f"{side}_patients"] for side in ("train", "val", "test")]
    if all(group is None for group in lists):
        return None
    return tuple(tuple(group or ()) for group in lists)


def cmd_train(args, opts: dict, given: set) -> tuple[dict, dict]:
    from .models import save_model
    from .pipeline import run_holdout

    cfg = _pipeline_config(opts, given, args.seed)
    features_sha = hashlib.sha256()
    fm, labels = read_feature_csv(args.features, features_sha)
    result = run_holdout(fm, labels, cfg, _explicit_split(opts))

    out = _out_dir(args)
    save_model(result.model, result.scaler, result.fit_patients, out / "model.json")
    write_json(out / "scaler.json", scaler_doc(result.scaler))
    _write_report(out / "report.json", result.report)
    acc = result.report.get("accuracy")
    rec = result.report.get("recall")
    print(
        f"train[{cfg.model}{'+smote' if cfg.use_smote else ''}]: "
        f"test accuracy {acc:.4f}, recall {rec:.4f} -> {out}"
    )
    return {}, {"features.csv": features_sha.hexdigest()}


def cmd_eval(args, opts: dict, given: set) -> tuple[dict, dict]:
    """Records in opts the model type and window length it resolves."""
    from .models import load_model, spec_for
    from .pipeline import run_eval, scoring_point

    model_sha, features_sha = hashlib.sha256(), hashlib.sha256()
    model, scaler, fit_patients = load_model(args.model_file, model_sha)
    name = spec_for(model).name
    if opts["model"] not in (None, name):
        raise ConfigError(
            f"config model {opts['model']!r} does not match the {name} model "
            f"in {args.model_file}"
        )
    opts["model"] = name
    model, _, T = scoring_point(
        model, args.model_file, opts["model_params"].get("threshold"),
        opts["sequence_length"] if "sequence_length" in given else None,
    )
    opts["sequence_length"] = T or opts["sequence_length"]
    cfg = _pipeline_config(opts, given, args.seed)
    fitting = sorted(set(cfg.model_params) - {"threshold"})
    if fitting:
        raise ConfigError(f"model_params {fitting} only apply when fitting; eval takes threshold")
    fm, labels = read_feature_csv(args.features, features_sha)
    report = run_eval(
        fm, labels, model, scaler, fit_patients, cfg, _explicit_split(opts), args.model_file
    )
    out = _out_dir(args)
    _write_report(out / "metrics.json", report)
    print(
        f"eval[{Path(args.model_file).name}]: accuracy {report['accuracy']:.4f}, "
        f"recall {report['recall']:.4f} -> {out}"
    )
    return {}, {"features.csv": features_sha.hexdigest(), "model.json": model_sha.hexdigest()}


def cmd_cv(args, opts: dict, given: set) -> tuple[dict, dict]:
    from .evaluation import FOLD_DOMAINS
    from .pipeline import FOLD_METRICS, run_cv

    cfg = _pipeline_config(opts, given, args.seed)
    check_params("cv", {"k": opts["k"]}, FOLD_DOMAINS)
    features_sha = hashlib.sha256()
    fm, labels = read_feature_csv(args.features, features_sha)
    result = run_cv(fm, labels, cfg, k=opts["k"])

    out = _out_dir(args)
    for report in result["folds"]:
        report.pop("roc_points", None)
        write_json(out / f"fold_{report['fold']}.json", report)
    write_json(out / "summary.json", {
        "k": result["k"], "seed": result["seed"], "metrics": result["summary"], "formatted": result["formatted"],
    })
    columns = ("fold", *FOLD_METRICS)
    write_csv(out / "folds.csv", ",".join(columns), [[r.get(c) for r in result["folds"]] for c in columns])
    acc = result["formatted"].get("accuracy", "n/a")
    print(
        f"cv[{cfg.model}{'+smote' if cfg.use_smote else ''}, k={opts['k']}]: "
        f"accuracy {acc} -> {out}"
    )
    return {}, {"features.csv": features_sha.hexdigest()}


# ---------------------------------------------------------------- predict

def cmd_predict(args, opts: dict, given: set) -> tuple[dict, dict]:
    """Records in opts the threshold and window length it scores at."""
    from .models import load_model
    from .pipeline import score_features, scoring_point

    model_sha, features_sha = hashlib.sha256(), hashlib.sha256()
    model, scaler, _ = load_model(args.model_file, model_sha)
    model, opts["threshold"], opts["sequence_length"] = scoring_point(
        model, args.model_file, opts["threshold"], opts["sequence_length"]
    )
    # --scaler only restates the scaler that the model file carries.
    if args.scaler_file and Path(args.scaler_file).read_bytes() != json_text(scaler_doc(scaler)).encode():
        raise DataError(f"{args.scaler_file} is not the scaler in {args.model_file}; drop --scaler")
    fm, _ = read_feature_csv(args.features, features_sha)
    data, classes, scores, _ = score_features(model, scaler, fm, None)
    out = _out_dir(args)
    write_csv(
        out / "predictions.csv",
        "patient,file,start_s,score,class",
        [data.patients, data.files, data.starts, scores, classes],
    )
    print(f"predict: {len(classes)} rows -> {out / 'predictions.csv'}")
    inputs = {"scaler.json": args.scaler_file} if args.scaler_file else {}
    return inputs, {"features.csv": features_sha.hexdigest(), "model.json": model_sha.hexdigest()}


# ---------------------------------------------------------------- parser

# Each command's help line, in the order --help lists them. main runs a
# command as cmd_<command>(args, opts, given), which writes its outputs and
# returns the manifest's (inputs, hashed).
_COMMANDS = {
    "synth": "generate the synthetic validation dataset",
    "ingest": "read EDF files + seizure summaries into an epoch store",
    "featurize": "turn an epoch store into a feature CSV",
    "train": "train on a feature CSV",
    "eval": "eval on a feature CSV",
    "cv": "cv on a feature CSV",
    "predict": "apply a saved model to a feature CSV",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser. Only command's subparser gets its arguments, or
    every subparser when command is None."""
    parser = _Parser(prog="seizurekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, about in _COMMANDS.items():
        p = sub.add_parser(name, help=about)
        if command not in (None, name):
            continue
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=0, help="master random seed")
        p.add_argument("--out", required=True, help="output directory")
        if name in ("train", "eval", "cv", "predict"):
            p.add_argument("--features", required=True, help="feature CSV path")
        if name in ("eval", "predict"):
            p.add_argument("--model", required=True, dest="model_file", help="model JSON")
        if name == "predict":
            p.add_argument("--scaler", dest="scaler_file", help="must equal train's scaler.json")
        table = _table(name)
        for key, (kind, default, flag) in table.items():
            if flag is None:
                continue
            flag = "--" + key.replace("_", "-") if flag == DASHED else flag
            if kind in (bool, FLAG_ONLY):
                # None leaves a bool to the config file; no config key reaches a FLAG_ONLY.
                how = {"action": "store_true", "default": None if kind is bool else default}
            elif typing.get_origin(kind) is list:
                how = {"action": "append"}
            else:
                choices = _model_options()[1] if key == "model" else _CHOICES.get(key)
                how = {"type": kind, "choices": choices}
            p.add_argument(flag, dest=key, help=_HELP.get(key), **how)
        if "smote" in table:
            p.add_argument("--no-smote", action="store_true", dest="no_smote")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The parser of the command argv names loads only the modules that command's options need.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        opts, given = _options(args)
        # Looked up when called, so a wrapper set on the module attribute sees every run.
        inputs, hashed = globals()[f"cmd_{args.command}"](args, opts, given)
        # The command may have recorded in opts what it resolved.
        _write_manifest(Path(args.out), args.command, opts, args.seed, inputs, hashed)
        return 0
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
