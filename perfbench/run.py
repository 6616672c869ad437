"""seizurekit benchmark: times the CLI end to end, one process per command.

Run from the repository root:

    python3 perfbench/run.py --workload train_and_score --seed 1 --seconds 50 --trace 0

Set-up builds the workload's inputs from the seed, several times, and
reports the median as `setup_s`. Then the workload's command sequence runs
as many times as fit in `--seconds`, one `python -m seizurekit <cmd>`
process at a time; every command's output is checked and digested, and
the digests must agree across repetitions. With `--trace 0` the last
line of output is a JSON object with the end-to-end metrics (medians over
repetitions). With `--trace 1`, untraced and traced repetitions alternate:
the traced ones run each command under `perfbench/spans.py`, and the last
line carries the per-layer metrics plus the tracing overhead.

The run keeps itself and its commands on one CPU, and before each command
and after the last it times a fixed reference task on that CPU. On the
shared 2-core VM this was tuned on, the CPU's speed drifts by a third or
more over minutes and every command slows with it; `wall_norm`, a
repetition's command time divided by the median reference time around it,
cancels much of that drift. The raw `wall_s` is printed and saved beside
it, and is a per-layer metric (`run.wall_s`).
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
SETUP_REPS = 3
# One BLAS thread per process, set before numpy loads here and inherited by
# every command process: steadier timings on a small shared machine.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# The reference task: a pure-Python loop, BLAS matrix products and
# vectorised passes over a few MB, about 0.1 s on the 2-core VM it was
# tuned on.
REFERENCE_LOOP = 300_000
REFERENCE_MATMULS = 10
REFERENCE_PASSES = 12
COMMAND_TIMEOUT_S = 150
# A run starts no new repetition after this many seconds, whatever
# --seconds says, so that it ends well within 180 s.
RUN_DEADLINE_S = 100

END_TO_END = (
    ("wall_norm", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


@functools.cache
def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.standard_normal((300, 300)), rng.standard_normal(400_000)


def reference_s() -> float:
    """Seconds the fixed reference task takes on this CPU right now."""
    import numpy as np

    a, x = _reference_inputs()
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i % 7
    for _ in range(REFERENCE_MATMULS):
        a @ a
    for _ in range(REFERENCE_PASSES):
        np.exp(x).sum()
        np.sort(x)
    return time.perf_counter() - start


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "cpus": sorted(os.sched_getaffinity(0)),
    }


def run_command(prefix: list, cmd, work: Path, env: dict, log: Path) -> dict:
    """One CLI process: wall time, exit code and the process's own peak RSS."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(prefix + list(cmd.argv), cwd=work, env=env, stdout=out, stderr=out)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}


def run_sequence(commands, work: Path, env: dict, rep: int, traced: bool) -> dict:
    """All of a workload's commands once, timed; then their checks."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    logs = work / "logs" / str(rep)
    logs.mkdir(parents=True)
    span_files = []
    results = []
    references = []
    for cmd in commands:
        references.append(reference_s())
        if traced:
            span_files.append(logs / f"{cmd.label}.spans.json")
            prefix = [sys.executable, str(HERE / "spans.py"), str(span_files[-1]), f"{rep}/{cmd.label}"]
        else:
            prefix = [sys.executable, "-m", "seizurekit"]
        results.append(run_command(prefix, cmd, work, env, logs / f"{cmd.label}.log"))
    references.append(reference_s())
    wall = sum(r["seconds"] for r in results)  # the commands only, not this loop's bookkeeping
    reference = statistics.median(references)

    problems = {}
    digests = {}
    for cmd, res in zip(commands, results):
        log = (logs / f"{cmd.label}.log").read_text(encoding="utf-8", errors="replace")
        if res["rc"] != 0:
            problems[cmd.label] = f"exit {res['rc']}: {log.strip()[-300:]}"
            continue
        try:
            problem = cmd.check(work, log)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problem = f"output unreadable: {exc!r}"
        if problem:
            problems[cmd.label] = problem
        digests[cmd.label] = _digest(work / cmd.out)
    kinds = {}
    for cmd, res in zip(commands, results):
        kinds[cmd.kind] = kinds.get(cmd.kind, 0.0) + res["seconds"]
    spans = []
    if traced:
        from spans import concat

        spans = concat(json.loads(p.read_text(encoding="utf-8")) for p in span_files if p.is_file())
    return {
        "traced": traced,
        "wall_s": wall,
        "reference_s": reference,
        "wall_norm": wall / reference,
        "kinds_s": kinds,
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "commands": {c.label: r for c, r in zip(commands, results)},
        "problems": problems,
        "digests": digests,
        "spans": spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()
    # On SIGTERM, unwind as on an error: stop the running command, remove
    # the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One CPU for this process, the reference task and every command it
    # starts, so that the reference sees the CPU the commands run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (SRC / "seizurekit" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'seizurekit'} not found; run from the repository root", file=sys.stderr)
        return 2
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    sys.path.insert(0, str(SRC))
    import seizurekit

    if Path(seizurekit.__file__).resolve().parent != (SRC / "seizurekit").resolve():
        print(f"perfbench: imported seizurekit from {seizurekit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = STATE / "work" / f"{workload.name}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = measure(workload, args, env, work, spans, began)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    report(record)
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


def run_setup(workload, seed: int, work: Path, env: dict, spans_file: Path | None) -> dict:
    """One set-up, in a process of its own; returns its time and facts."""
    argv = [sys.executable, str(HERE / "workloads.py"), workload.name, str(seed), str(work)]
    if spans_file:
        argv.append(str(spans_file))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed with exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, args, env: dict, work: Path, spans, began: float) -> dict:
    setup_times, setup_spans, setup_digest = [], [], None
    for i in range(SETUP_REPS):
        shutil.rmtree(work / "in", ignore_errors=True)
        spans_file = work / f"setup-{i}.spans.json" if args.trace else None
        done = run_setup(workload, args.seed, work, env, spans_file)
        setup_times.append(done["seconds"])
        facts = done["facts"]
        if spans_file:
            setup_spans.append(json.loads(spans_file.read_text(encoding="utf-8")))
        digest = _digest(work / "in")
        if setup_digest not in (None, digest):
            raise RuntimeError("set-up built different inputs from the same seed")
        setup_digest = digest

    # Repetitions fill --seconds of command time: another one starts while
    # the time so far plus half a typical repetition is within it. A traced
    # run alternates untraced and traced repetitions, at least one each.
    commands = workload.commands(facts)
    least = 2 if args.trace else 1
    reps = []
    while len(reps) < least or (
        sum(r["wall_s"] for r in reps) + statistics.median(r["wall_s"] for r in reps) / 2 < args.seconds
        and time.perf_counter() - began < RUN_DEADLINE_S
    ):
        reps.append(run_sequence(commands, work, env, len(reps), traced=bool(args.trace) and len(reps) % 2 == 1))

    first = {}
    failed = 0
    problems = []
    for i, rep in enumerate(reps):
        for label, digest in rep["digests"].items():
            if first.setdefault(label, digest) != digest:
                rep["problems"].setdefault(label, "output digest differs from the first repetition")
        failed += len(rep["problems"])
        problems += [f"rep {i} {label}: {p}" for label, p in sorted(rep["problems"].items())]
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    median = statistics.median

    kinds = {k: median(r["kinds_s"][k] for r in untraced) for k in untraced[0]["kinds_s"]}
    detail = {
        "wall_norm": median(r["wall_norm"] for r in untraced),
        "wall_s": median(r["wall_s"] for r in untraced),
        "reference_s": median(r["reference_s"] for r in untraced),
        "setup_s": median(setup_times),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
        **{f"{k}_s": v for k, v in kinds.items()},
    }
    if args.trace:
        # Set-up and commands are traced in different processes, so their
        # spans are summarised apart and the two medians added.
        layers = [spans.layer_metrics(r["spans"]) for r in traced]
        setup_layers = [spans.layer_metrics(s) for s in setup_spans]
        metrics = {}
        for metric, unit, _better, _names, _quantity in spans.LAYER_METRICS:
            value = median(m[metric] for m in layers) + median(m[metric] for m in setup_layers)
            metrics[metric] = {"value": float(value), "unit": unit}
        overhead = median(r["wall_s"] for r in traced) - detail["wall_s"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["run.wall_s"] = {"value": detail["wall_s"], "unit": "s"}
        metrics["run.reference_s"] = {"value": detail["reference_s"], "unit": "s"}
    else:
        metrics = {name: {"value": detail[name], "unit": unit} for name, unit in END_TO_END}

    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "inputs": facts["inputs"],
        "setup_s_runs": setup_times,
        "repetitions": [
            {k: r[k] for k in ("traced", "wall_s", "reference_s", "wall_norm", "kinds_s", "peak_rss_mb", "commands")}
            for r in reps
        ],
        "detail": detail,
        "missing_trace_targets": spans.missing(spans.COMMAND_TARGETS) if args.trace else [],
        "spans": {"setup": setup_spans, "commands": [r["spans"] for r in traced]},
        "attempted": sum(len(r["commands"]) for r in reps),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }


def report(record: dict) -> None:
    """Human-readable summary ahead of the JSON result line."""
    reps = record["repetitions"]
    print(
        f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"{len(reps)} repetition(s), {record['attempted']} commands, {record['failed']} failed"
    )
    print(f"  why: {record['why']}")
    print(f"  inputs: {json.dumps(record['inputs'], sort_keys=True)}")
    print(f"  environment: {json.dumps(record['environment'], sort_keys=True)}")
    for name, value in record["detail"].items():
        unit = "MB" if name.endswith("_mb") else "ref" if name == "wall_norm" else "s"
        print(f"  {name:<14} {value:12.4f} {unit}  (median, untraced)")
    if record["trace"]:
        for name, m in record["metrics"].items():
            print(f"  {name:<44} {m['value']:14.6f} {m['unit']}")
    if record["missing_trace_targets"]:
        print(f"  not traced (absent): {record['missing_trace_targets']}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")


if __name__ == "__main__":
    sys.exit(main())
