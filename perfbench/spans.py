"""Span tracing for the benchmark's traced runs, from outside the package.

`install` replaces each target seizurekit function, in every loaded
seizurekit module that holds a reference to it, with a wrapper that
records one span per call: name, start, end, parent span and run id, plus
a few work counts read from the call's arguments and result. Spans stay in
memory and are written out once, when the traced process ends.
`layer_metrics` turns one run's spans into the per-layer metrics that
BENCHMARK.json lists.

Run as a script, this file is the traced stand-in for `python -m seizurekit`:

    python perfbench/spans.py SPANS_JSON RUN_ID <seizurekit CLI arguments>
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _tree_nodes(node) -> int:
    if node.is_leaf:
        return 1
    return 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


def _denoised_msamples(a, result):
    if a.get("highpass_hz") is None:
        return {"msamples": 0.0}
    return {"msamples": sum(len(x) for x in a["r"].signals) / 1e6}


def _smote_counts(a, result):
    y = list(a["y"])
    return {
        "minority_rows": min(y.count(0), y.count(1)),
        "synthetic_rows": int(result[2].sum()),
    }


def _queries(name):
    """Rows scored per call, keyed by the query array so passes can be told apart."""

    def count(a, result):
        return {"rows": len(a[name]), "query": id(a[name])}

    return count


# (module, function, span name, counter). A counter maps the bound
# arguments and the result to extra span fields; it runs after the span
# closes, so its cost lands in the parent's self time.
SETUP_TARGETS = (
    ("seizurekit.synthetic", "generate_synthetic", "synthetic.generate_synthetic", None),
    (
        "seizurekit.synthetic",
        "generate_synthetic_recordings",
        "synthetic.generate_synthetic_recordings",
        None,
    ),
    ("seizurekit.edf", "write_edf", "edf.write_edf", None),
    (
        "seizurekit.features",
        "write_feature_csv",
        "features.write_feature_csv",
        lambda a, r: {"mb": _file_mb(a["path"])},
    ),
)

COMMAND_TARGETS = SETUP_TARGETS + (
    ("seizurekit.edf", "parse_edf", "edf.parse_edf", lambda a, r: {"mb": len(a["raw"]) / 1e6}),
    ("seizurekit.epochs", "denoise", "epochs.denoise", _denoised_msamples),
    ("seizurekit.epochs", "slice_epochs", "epochs.slice_epochs", lambda a, r: {"epochs": len(r)}),
    (
        "seizurekit.epochs",
        "label_detection",
        "epochs.label",
        lambda a, r: {"dropped": len(a["epochs"]) - len(r.epochs)},
    ),
    (
        "seizurekit.epochs",
        "label_prediction",
        "epochs.label",
        lambda a, r: {"dropped": len(a["epochs"]) - len(r.epochs)},
    ),
    ("seizurekit.epochs", "build_sequences", "epochs.build_sequences", lambda a, r: {"windows": len(r)}),
    ("seizurekit.features", "extract_features", "features.extract_features", lambda a, r: {"rows": r.n_rows}),
    ("seizurekit.features", "read_feature_csv", "features.read_feature_csv", lambda a, r: {"mb": _file_mb(a["path"])}),
    ("seizurekit.features", "fit_scaler", "features.scaler", None),
    ("seizurekit.features", "apply_scaler", "features.scaler", None),
    ("seizurekit.smote", "smote", "smote.smote", _smote_counts),
    ("seizurekit.models.logistic", "logreg_fit", "models.logreg.fit", lambda a, r: {"iters": r.n_iters}),
    ("seizurekit.models.logistic", "logreg_predict_proba", "models.logreg.score", None),
    (
        "seizurekit.models.forest",
        "rf_fit",
        "models.rf.fit",
        lambda a, r: {"nodes": sum(_tree_nodes(t) for t in r.trees)},
    ),
    ("seizurekit.models.forest", "rf_predict", "models.rf.score", _queries("X")),
    ("seizurekit.models.forest", "rf_scores", "models.rf.score", _queries("X")),
    (
        "seizurekit.models.svm",
        "svm_fit_smo",
        "models.svm.fit",
        lambda a, r: {"support_vectors": len(r.support_vectors), "converged": int(r.converged)},
    ),
    ("seizurekit.models.svm", "svm_decision", "models.svm.score", None),
    ("seizurekit.models.svm", "svm_predict", "models.svm.score", None),
    ("seizurekit.models.knn", "knn_predict", "models.knn.score", _queries("X")),
    ("seizurekit.models.knn", "knn_scores", "models.knn.score", _queries("X")),
    (
        "seizurekit.models.lstm",
        "lstm_train",
        "models.lstm.fit",
        lambda a, r: {"epochs_run": len(r[1]["train_loss"])},
    ),
    ("seizurekit.models.lstm", "lstm_predict", "models.lstm.score", None),
    ("seizurekit.models.io", "save_model", "models.io.save", lambda a, r: {"mb": _file_mb(a["path"])}),
    ("seizurekit.models.io", "load_model", "models.io.load", lambda a, r: {"mb": _file_mb(a["path"])}),
    ("seizurekit.evaluation", "roc_auc", "evaluation.roc_auc", None),
    ("seizurekit.evaluation", "compute_metrics", "evaluation.compute_metrics", None),
    ("seizurekit.pipeline", "evaluate_split", "pipeline.evaluate_split", None),
) + tuple(
    ("seizurekit.cli", f"cmd_{cmd}", f"cli.{cmd}", None)
    for cmd in ("ingest", "featurize", "train", "cv", "eval", "predict")
)


class Tracer:
    """Collects spans in memory; `run_id` tags the spans recorded next."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "run": self.run_id,
                "parent": self._open[-1] if self._open else None,
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            rss_before = _rss_mb()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["errors"] = 1
                raise
            finally:
                span["end"] = time.perf_counter()
                span["rss_rise_mb"] = _rss_mb() - rss_before
                self._open.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(counter(bound.arguments, result))
            return result

        return traced


def _lookup(module_name: str, attr: str):
    try:
        return getattr(importlib.import_module(module_name), attr, None)
    except ImportError:
        return None


def install(tracer: Tracer, targets) -> None:
    """Route every reference to each target through the tracer."""
    import seizurekit.cli  # noqa: F401  (loads every module the CLI uses)

    modules = [m for n, m in sys.modules.items() if n == "seizurekit" or n.startswith("seizurekit.")]
    for module_name, attr, name, counter in targets:
        original = _lookup(module_name, attr)
        if original is None:
            continue
        wrapped = tracer.wrap(name, original, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def missing(targets) -> list[str]:
    """Targets this version of seizurekit lacks; their metrics read 0."""
    return [f"{m}.{attr}" for m, attr, _name, _counter in targets if _lookup(m, attr) is None]


# (metric, unit, better, span name(s), quantity). Quantities: "s" is the
# summed duration of the outermost spans of that name, "self_s" the summed
# duration minus child spans, "calls" the number of outermost spans,
# "rss_rise_mb" the largest rise of ru_maxrss during one span, "passes" and
# "useful_ratio" compare rows scored with distinct query rows, and any
# other word is a count the span's counter recorded. A layer that does not
# run on a workload reads 0.
LAYER_METRICS = (
    ("edf.parse_edf.s", "s", "lower", "edf.parse_edf", "s"),
    ("edf.parse_edf.calls", "count", "lower", "edf.parse_edf", "calls"),
    ("edf.parse_edf.errors", "count", "lower", "edf.parse_edf", "errors"),
    ("edf.parse_edf.mb", "MB", "lower", "edf.parse_edf", "mb"),
    ("edf.write_edf.s", "s", "lower", "edf.write_edf", "s"),
    ("epochs.denoise.s", "s", "lower", "epochs.denoise", "s"),
    ("epochs.denoise.msamples", "Msample", "lower", "epochs.denoise", "msamples"),
    ("epochs.slice_epochs.s", "s", "lower", "epochs.slice_epochs", "s"),
    ("epochs.slice_epochs.epochs", "count", "lower", "epochs.slice_epochs", "epochs"),
    ("epochs.label.s", "s", "lower", "epochs.label", "s"),
    ("epochs.label.dropped", "count", "lower", "epochs.label", "dropped"),
    ("epochs.build_sequences.s", "s", "lower", "epochs.build_sequences", "s"),
    ("epochs.build_sequences.windows", "count", "lower", "epochs.build_sequences", "windows"),
    ("features.extract_features.s", "s", "lower", "features.extract_features", "s"),
    ("features.extract_features.rows", "count", "lower", "features.extract_features", "rows"),
    ("features.write_feature_csv.s", "s", "lower", "features.write_feature_csv", "s"),
    ("features.write_feature_csv.mb", "MB", "lower", "features.write_feature_csv", "mb"),
    ("features.read_feature_csv.s", "s", "lower", "features.read_feature_csv", "s"),
    ("features.read_feature_csv.mb", "MB", "lower", "features.read_feature_csv", "mb"),
    ("features.read_feature_csv.calls", "count", "lower", "features.read_feature_csv", "calls"),
    ("features.scaler.s", "s", "lower", "features.scaler", "s"),
    ("smote.smote.s", "s", "lower", "smote.smote", "s"),
    ("smote.smote.minority_rows", "count", "lower", "smote.smote", "minority_rows"),
    ("smote.smote.synthetic_rows", "count", "lower", "smote.smote", "synthetic_rows"),
    ("smote.smote.rss_rise_mb", "MB", "lower", "smote.smote", "rss_rise_mb"),
    ("models.logreg.fit_s", "s", "lower", "models.logreg.fit", "s"),
    ("models.logreg.iters", "count", "lower", "models.logreg.fit", "iters"),
    ("models.logreg.score_s", "s", "lower", "models.logreg.score", "s"),
    ("models.rf.fit_s", "s", "lower", "models.rf.fit", "s"),
    ("models.rf.nodes", "count", "lower", "models.rf.fit", "nodes"),
    ("models.rf.score_s", "s", "lower", "models.rf.score", "s"),
    ("models.rf.useful_walk_ratio", "ratio", "higher", "models.rf.score", "useful_ratio"),
    ("models.svm.fit_s", "s", "lower", "models.svm.fit", "s"),
    ("models.svm.support_vectors", "count", "lower", "models.svm.fit", "support_vectors"),
    ("models.svm.converged", "count", "higher", "models.svm.fit", "converged"),
    ("models.svm.score_s", "s", "lower", "models.svm.score", "s"),
    ("models.svm.rss_rise_mb", "MB", "lower", "models.svm.fit", "rss_rise_mb"),
    ("models.knn.score_s", "s", "lower", "models.knn.score", "s"),
    ("models.knn.distance_passes", "count", "lower", "models.knn.score", "passes"),
    ("models.knn.useful_pass_ratio", "ratio", "higher", "models.knn.score", "useful_ratio"),
    ("models.lstm.fit_s", "s", "lower", "models.lstm.fit", "s"),
    ("models.lstm.epochs_run", "count", "lower", "models.lstm.fit", "epochs_run"),
    ("models.lstm.score_s", "s", "lower", "models.lstm.score", "s"),
    ("models.io.save_s", "s", "lower", "models.io.save", "s"),
    ("models.io.load_s", "s", "lower", "models.io.load", "s"),
    ("models.io.mb", "MB", "lower", ("models.io.save", "models.io.load"), "mb"),
    ("evaluation.roc_auc.s", "s", "lower", "evaluation.roc_auc", "s"),
    ("evaluation.roc_auc.calls", "count", "lower", "evaluation.roc_auc", "calls"),
    ("evaluation.compute_metrics.s", "s", "lower", "evaluation.compute_metrics", "s"),
    ("pipeline.evaluate_split.self_s", "s", "lower", "pipeline.evaluate_split", "self_s"),
    ("pipeline.evaluate_split.calls", "count", "lower", "pipeline.evaluate_split", "calls"),
    ("cli.ingest.self_s", "s", "lower", "cli.ingest", "self_s"),
    ("cli.ingest.rss_rise_mb", "MB", "lower", "cli.ingest", "rss_rise_mb"),
    ("cli.featurize.self_s", "s", "lower", "cli.featurize", "self_s"),
    ("cli.train.self_s", "s", "lower", "cli.train", "self_s"),
    ("cli.cv.self_s", "s", "lower", "cli.cv", "self_s"),
    ("cli.eval.self_s", "s", "lower", "cli.eval", "self_s"),
    ("cli.predict.self_s", "s", "lower", "cli.predict", "self_s"),
    ("synthetic.generate_synthetic.s", "s", "lower", "synthetic.generate_synthetic", "s"),
    (
        "synthetic.generate_synthetic_recordings.s",
        "s",
        "lower",
        "synthetic.generate_synthetic_recordings",
        "s",
    ),
)


def _outermost(spans: list[dict]) -> list[dict]:
    """Spans with no enclosing span of the same name (svm_predict calls
    svm_decision, and both are models.svm.score)."""
    out = []
    for span in spans:
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] != span["name"]:
            parent = spans[parent]["parent"]
        if parent is None:
            out.append(span)
    return out


def _quantity(spans: list[dict], all_spans: list[dict], quantity: str) -> float:
    if quantity == "s":
        return sum(s["end"] - s["start"] for s in spans)
    if quantity == "self_s":
        children: dict[int, float] = {}
        for child in all_spans:
            if child["parent"] is not None:
                children[child["parent"]] = children.get(child["parent"], 0.0) + (
                    child["end"] - child["start"]
                )
        return sum(s["end"] - s["start"] - children.get(s["index"], 0.0) for s in spans)
    if quantity == "calls":
        return len(spans)
    if quantity == "rss_rise_mb":
        return max((s["rss_rise_mb"] for s in spans), default=0.0)
    if quantity in ("passes", "useful_ratio"):
        # Rows walked over rows that needed scoring: one pass per distinct
        # query array within one caller.
        walked = sum(s["rows"] for s in spans)
        useful = sum({(s["parent"], s["query"]): s["rows"] for s in spans}.values())
        if not walked:
            return 0.0
        return walked / useful if quantity == "passes" else useful / walked
    return sum(s.get(quantity, 0) for s in spans)


def concat(span_lists) -> list[dict]:
    """One list from the span lists of several processes, parents rebased."""
    out: list[dict] = []
    for spans in span_lists:
        base = len(out)
        for span in spans:
            parent = span["parent"]
            out.append(dict(span, parent=None if parent is None else parent + base))
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one run's spans (see `concat`)."""
    for i, span in enumerate(spans):
        span["index"] = i
    top = _outermost(spans)
    out = {}
    for metric, _unit, _better, names, quantity in LAYER_METRICS:
        names = (names,) if isinstance(names, str) else names
        out[metric] = _quantity([s for s in top if s["name"] in names], spans, quantity)
    return out


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    install(tracer, COMMAND_TARGETS)
    from seizurekit.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
