"""`ingest` streams each EDF channel into one epoch buffer; the library
path label_*(slice_epochs(denoise(parse_edf(raw)))) is its oracle, byte
for byte, and its peak memory is about one copy of the kept epochs.
`store.write_store` and `store.read_store` are checked against the same
oracle without the CLI."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seizurekit
from seizurekit import ConfigError, DataError, FeatureMatrix, write_feature_csv
from seizurekit.cli import main
from seizurekit.edf import SeizureInterval, parse_edf, parse_seizure_summary
from seizurekit.epochs import (
    denoise,
    label_detection,
    label_prediction,
    slice_epochs,
    stream_labeled_epochs,
)
from seizurekit.store import read_store, write_store
from tests.test_cli import make_edf_bytes
from tests.test_edf import UNUSABLE_GAINS, make_channel, make_recording, with_physical_range

HORIZON_S = 16.0

SUMMARY = """\
File Name: a.edf
Number of Seizures in File: 2
Seizure 1 Start Time: 21 seconds
Seizure 1 End Time: 30 seconds
Seizure 2 Start Time: 47 seconds
Seizure 2 End Time: 52 seconds

File Name: c.edf
Number of Seizures in File: 1
Seizure 1 Start Time: 0 seconds
Seizure 1 End Time: 30 seconds

File Name: d.edf
Number of Seizures in File: 1
Seizure 1 Start Time: 5 seconds
Seizure 1 End Time: 9 seconds
"""


@pytest.fixture(scope="module")
def edf_dir(tmp_path_factory):
    """Four files: a with two seizures, b with none, c ictal from end to
    end, and d cut off inside its data records."""
    d = tmp_path_factory.mktemp("edf")
    (d / "a.edf").write_bytes(make_edf_bytes("chb01", 64, n_channels=3, seed=1))
    (d / "b.edf").write_bytes(make_edf_bytes("chb02", 41, n_channels=3, seed=2))
    (d / "c.edf").write_bytes(make_edf_bytes("chb03", 30, n_channels=3, seed=3))
    raw = make_edf_bytes("chb04", 40, n_channels=3, seed=4)
    (d / "d.edf").write_bytes(raw[: len(raw) - 100])
    (d / "summary.txt").write_text(SUMMARY, encoding="utf-8")
    return d


def library_sets(edf_dir: Path, task: str, highpass_hz) -> dict:
    """Each parsed file's labeled epochs, as the library functions, one after the other, give them."""
    seizures = parse_seizure_summary(SUMMARY)
    sets = {}
    for path in sorted(edf_dir.glob("*.edf")):
        try:
            rec = denoise(parse_edf(path.read_bytes()), highpass_hz=highpass_hz)
        except DataError:
            continue
        epochs = slice_epochs(rec, epoch_len_s=2.0, file_name=path.name)
        if task == "detection":
            sets[path.name] = label_detection(epochs, seizures.get(path.name, []))
        else:
            sets[path.name] = label_prediction(epochs, seizures.get(path.name, []), horizon_s=HORIZON_S)
    return sets


def library_store(edf_dir: Path, task: str, highpass_hz, tmp_path: Path) -> tuple[bytes, bytes]:
    """epochs.npy and meta.csv as the library functions, one after the other, give them."""
    sets = [s for s in library_sets(edf_dir, task, highpass_hz).values() if len(s.epochs)]
    buf = io.BytesIO()
    np.save(buf, np.concatenate([s.epochs.samples for s in sets]))
    labels = np.concatenate([s.labels for s in sets])
    meta = FeatureMatrix(
        values=np.zeros((len(labels), 0)),
        **{f: np.concatenate([getattr(s.epochs, f) for s in sets]) for f in ("patients", "files", "starts")},
    )
    write_feature_csv(meta, labels, tmp_path / "oracle_meta.csv")
    return buf.getvalue(), (tmp_path / "oracle_meta.csv").read_bytes()


@pytest.mark.parametrize("task", ["detection", "prediction"])
@pytest.mark.parametrize("highpass_hz", [None, 0.5])
def test_ingest_store_equals_the_library_path(edf_dir, tmp_path, capsys, task, highpass_hz):
    argv = [
        "ingest", "--edf-dir", str(edf_dir), "--summary", str(edf_dir / "summary.txt"),
        "--task", task, "--out", str(tmp_path / "store"),
    ]
    if task == "prediction":
        argv += ["--horizon", str(HORIZON_S)]
    if highpass_hz is not None:
        argv += ["--highpass", str(highpass_hz)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "d.edf" not in out and "; 1 failure(s)" in out
    assert ("c.edf: 0 epochs" in out) == (task == "prediction")

    epochs_npy, meta_csv = library_store(edf_dir, task, highpass_hz, tmp_path)
    assert (tmp_path / "store" / "epochs.npy").read_bytes() == epochs_npy
    assert (tmp_path / "store" / "meta.csv").read_bytes() == meta_csv


def _write_store(edf_dir: Path, out: Path, **overrides):
    """write_store on the four files with the given arguments replaced, and the warnings it gave."""
    warned = []
    kwargs = dict(
        summaries=[edf_dir / "summary.txt"], task="prediction", epoch_len_s=2.0,
        horizon_s=HORIZON_S, highpass_hz=0.5, demographics=None, warn=warned.append,
    )
    return write_store(out, edf_dir, **{**kwargs, **overrides}), warned


@pytest.mark.parametrize("task", ["detection", "prediction"])
@pytest.mark.parametrize("highpass_hz", [None, 0.5])
def test_read_store_gives_back_the_library_epochs(edf_dir, tmp_path, task, highpass_hz):
    (counts, failures, inputs), warned = _write_store(
        edf_dir, tmp_path / "store", task=task, highpass_hz=highpass_hz
    )
    epochs, labels = read_store(tmp_path / "store")

    want = library_sets(edf_dir, task, highpass_hz)
    assert counts == {name: (len(s.epochs), int(s.labels.sum())) for name, s in want.items()}
    assert list(failures) == ["d.edf"] and warned == [f"d.edf: {failures['d.edf']}"]
    assert inputs == [edf_dir / name for name in want] + [edf_dir / "summary.txt"]
    kept = [s for s in want.values() if len(s.epochs)]
    assert epochs.samples.dtype == np.float64
    assert np.array_equal(epochs.samples, np.concatenate([s.epochs.samples for s in kept]))
    for field in ("patients", "files", "starts"):
        assert np.array_equal(getattr(epochs, field), np.concatenate([getattr(s.epochs, field) for s in kept]))
    assert epochs.duration_s == 2.0
    assert labels.dtype == np.int64
    assert np.array_equal(labels, np.concatenate([s.labels for s in kept]))


@pytest.mark.parametrize(
    "overrides, error",
    [
        (lambda tmp: {"task": "sleep"}, ConfigError),
        (lambda tmp: {"epoch_len_s": 0.0}, ConfigError),
        (lambda tmp: {"horizon_s": float("nan")}, ConfigError),
        (lambda tmp: {"summaries": [tmp / "missing.txt"]}, DataError),
        (lambda tmp: {"demographics": tmp / "no_gender.csv"}, DataError),
        # 0.3 s is not a whole number of samples at 8 Hz; each file finds that out.
        (lambda tmp: {"epoch_len_s": 0.3}, ConfigError),
        (lambda tmp: {"edf_dir": _dir_of_one_unparseable_edf(tmp), "summaries": []}, DataError),
    ],
    ids=["task", "epoch_len_s", "horizon_s", "summary", "demographics", "samples", "unparseable"],
)
def test_write_store_checks_its_inputs_before_it_writes(edf_dir, tmp_path, overrides, error):
    (tmp_path / "no_gender.csv").write_text("patient,age\nchb01,11\n", encoding="utf-8")
    out = tmp_path / "store"
    kwargs = overrides(tmp_path)
    with pytest.raises(error):
        _write_store(kwargs.pop("edf_dir", edf_dir), out, **kwargs)
    assert not out.exists()


@pytest.mark.parametrize("pmin, pmax", UNUSABLE_GAINS)
def test_ingest_skips_a_file_whose_gain_is_unusable(tmp_path, capsys, pmin, pmax):
    (tmp_path / "edf").mkdir()
    for name, seed in (("a.edf", 1), ("c.edf", 3)):
        (tmp_path / "edf" / name).write_bytes(make_edf_bytes("chb01", 8, n_channels=2, seed=seed))
    raw = bytearray(make_edf_bytes("chb02", 8, n_channels=2, seed=2))
    (tmp_path / "edf" / "b.edf").write_bytes(with_physical_range(raw, 0, pmin, pmax))
    assert main(["ingest", "--edf-dir", str(tmp_path / "edf"), "--out", str(tmp_path / "store")]) == 0
    captured = capsys.readouterr()
    assert "warning: b.edf:" in captured.err and "not a finite nonzero number" in captured.err
    assert "b.edf" not in captured.out and "; 1 failure(s)" in captured.out
    epochs, _ = read_store(tmp_path / "store")
    assert sorted(set(epochs.files)) == ["a.edf", "c.edf"]
    assert np.isfinite(epochs.samples).all()


def _dir_of_one_unparseable_edf(tmp: Path) -> Path:
    (tmp / "bad").mkdir()
    (tmp / "bad" / "x.edf").write_bytes(b"not an EDF header")
    return tmp / "bad"


@st.composite
def recordings(draw):
    """A recording of 0-3 channels, their rates not always equal, plus
    seizures, an epoch length and a filter cutoff."""
    n_channels = draw(st.integers(0, 3))
    spr = draw(st.sampled_from([2, 4, 5]))
    sprs = [spr] * n_channels
    if n_channels > 1 and draw(st.booleans()):
        sprs[-1] = spr * 2
    n_records = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rec = make_recording(
        [make_channel(label=f"C{c}", spr=s) for c, s in enumerate(sprs)],
        [rng.uniform(-90, 90, size=s * n_records) for s in sprs],
        n_records,
    )
    seizures = []
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, n_records))
        seizures.append(SeizureInterval("f.edf", float(start), start + draw(st.sampled_from([0.5, 1.0, 3.0]))))
    epoch_len_s = draw(st.sampled_from([0.5, 1.0, 2.0, 0.3]))
    highpass_hz = draw(st.sampled_from([None, 0.5, 3.0]))
    return rec, seizures, epoch_len_s, highpass_hz


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the two paths must fail alike
        return type(exc), str(exc)


@settings(deadline=None, max_examples=80)
@given(recordings(), st.sampled_from(["detection", "prediction"]))
def test_streamed_epochs_equal_the_library_path(case, task):
    rec, seizures, epoch_len_s, highpass_hz = case

    def library():
        epochs = slice_epochs(denoise(rec, highpass_hz), epoch_len_s, file_name="f.edf")
        if task == "detection":
            return label_detection(epochs, seizures)
        return label_prediction(epochs, seizures, horizon_s=HORIZON_S)

    signals = list(rec.signals)
    got = _outcome(
        lambda: stream_labeled_epochs(
            signals, rec.sample_rate_hz, seizures, task, epoch_len_s=epoch_len_s,
            horizon_s=HORIZON_S, highpass_hz=highpass_hz, patient=rec.patient_id, file_name="f.edf",
        )
    )
    want = _outcome(library)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.task == want.task
    assert np.array_equal(got.labels, want.labels) and got.labels.dtype == want.labels.dtype
    assert got.epochs.samples.shape == want.epochs.samples.shape
    assert np.array_equal(got.epochs.samples, want.epochs.samples)
    for field in ("patients", "files", "starts"):
        assert np.array_equal(getattr(got.epochs, field), getattr(want.epochs, field))
    assert got.epochs.duration_s == want.epochs.duration_s
    assert signals == [None] * len(signals)  # each parsed channel was let go


# Runs argv[1] in a child and prints its exit code and ru_maxrss (KiB).
_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-c", sys.argv[1]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _child_peak_mb(code: str, cwd: Path) -> float:
    """Peak RSS in MB of a fresh interpreter that runs code, read through
    os.wait4 as perfbench reads it. Linux carries a process's peak RSS
    into the program it execs, so the child starts from a small launcher
    interpreter, not from this larger test process."""
    env = dict(os.environ, PYTHONPATH=str(Path(seizurekit.__file__).parents[1]))
    launched = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, code], cwd=cwd, env=env, capture_output=True, text=True
    )
    rc, kib = launched.stdout.split()
    assert rc == "0", launched.stderr
    return int(kib) / 1024.0


# ingest's peak RSS may rise above a bare `import seizurekit.cli` by the
# EDF's bytes plus this many times the kept epochs' float64 bytes. The
# streamed path measured 1.11 on a 23-channel, 10-min, 256 Hz file;
# holding the filtered signals beside the parsed ones, as denoise does,
# measured 2.03.
MAX_COPIES = 1.3


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux's ru_maxrss in KiB")
def test_ingest_peak_memory_is_about_one_copy_of_the_kept_epochs(tmp_path):
    rate, seconds, channels = 256, 600, 23
    (tmp_path / "edf").mkdir()
    edf = tmp_path / "edf" / "p01.edf"
    edf.write_bytes(make_edf_bytes("p01", seconds, rate_hz=rate, n_channels=channels))
    (tmp_path / "summary.txt").write_text(
        "File Name: p01.edf\nNumber of Seizures in File: 1\n"
        "Seizure 1 Start Time: 400 seconds\nSeizure 1 End Time: 440 seconds\n",
        encoding="utf-8",
    )
    ingest = (
        "from seizurekit.cli import main; raise SystemExit(main(['ingest', '--edf-dir', 'edf', "
        "'--summary', 'summary.txt', '--task', 'prediction', '--highpass', '0.5', '--out', 'store']))"
    )
    rise = _child_peak_mb(ingest, tmp_path) - _child_peak_mb("import seizurekit.cli", tmp_path)

    kept = np.load(tmp_path / "store" / "epochs.npy", mmap_mode="r")
    assert kept.shape == (seconds // 2 - 20, channels, 2 * rate)
    edf_mb, kept_mb = edf.stat().st_size / 2**20, kept.size * 8 / 2**20
    assert rise <= edf_mb + MAX_COPIES * kept_mb, (
        f"ingest rose {rise:.1f} MB: {(rise - edf_mb) / kept_mb:.2f} x the kept "
        f"epochs' {kept_mb:.1f} MB beyond the EDF's {edf_mb:.1f} MB"
    )
