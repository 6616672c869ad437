"""`ingest` streams each EDF channel into one epoch buffer; the library
path label_*(slice_epochs(denoise(parse_edf(raw)))) is its oracle, byte
for byte, and its peak memory is about one copy of the kept epochs.
`store.write_store` and `store.read_store` are checked against the same
oracle without the CLI."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
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
    plan_epochs,
    slice_epochs,
)
from seizurekit import store
from seizurekit.store import read_store, read_store_blocks, write_store
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


def library_sets(edf_dir: Path, task: str, highpass_hz, summary: str = SUMMARY) -> dict:
    """Each parsed file's labeled epochs, as the library functions, one after the other, give them."""
    seizures = parse_seizure_summary(summary)
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


def library_store(
    edf_dir: Path, task: str, highpass_hz, tmp_path: Path, summary: str = SUMMARY
) -> tuple[bytes, bytes]:
    """epochs.npy and meta.csv as the library functions, one after the other, give them."""
    sets = [s for s in library_sets(edf_dir, task, highpass_hz, summary).values() if len(s.epochs)]
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


@pytest.mark.parametrize("task", ["detection", "prediction"])
@pytest.mark.parametrize(
    "write_block", [1, 2 * 24 * 16 * 8, 1 << 30], ids=["1-channel", "2-channels", "whole"]
)
def test_a_store_written_a_group_of_channels_at_a_time_equals_the_library_path(
    edf_dir, tmp_path, monkeypatch, task, write_block
):
    """The files' 3 channels go out one, two (a.edf keeps 24 epochs of 16
    samples) or three at a time; the bytes written do not change."""
    monkeypatch.setattr(store, "_WRITE_BLOCK", write_block)
    _write_store(edf_dir, tmp_path / "store", task=task)
    epochs_npy, meta_csv = library_store(edf_dir, task, 0.5, tmp_path)
    assert (tmp_path / "store" / "epochs.npy").read_bytes() == epochs_npy
    assert (tmp_path / "store" / "meta.csv").read_bytes() == meta_csv


# At 8 Hz, 2-s epochs and one-second records, the smallest chunk is
# _MIN_SCAN_BLOCKS scan blocks: 8,192 samples, 1,024 s. Each seizure or
# preictal stretch below crosses a chunk edge at 1,024, 2,048 or 3,072 s,
# and h.edf's seizure covers its second chunk, which so keeps no epoch for
# prediction.
LONG_SUMMARY = """\
File Name: e.edf
Number of Seizures in File: 2
Seizure 1 Start Time: 1015 seconds
Seizure 1 End Time: 1033 seconds
Seizure 2 Start Time: 2041 seconds
Seizure 2 End Time: 2057 seconds

File Name: f.edf
Number of Seizures in File: 2
Seizure 1 Start Time: 2040 seconds
Seizure 1 End Time: 2061 seconds
Seizure 2 Start Time: 3080 seconds
Seizure 2 End Time: 3101 seconds

File Name: h.edf
Number of Seizures in File: 1
Seizure 1 Start Time: 1020 seconds
Seizure 1 End Time: 2060 seconds
"""


@pytest.fixture(scope="module")
def long_edf_dir(tmp_path_factory):
    """Files of 3 channels at 8 Hz: e, f and h run over three, four and
    three of the smallest chunks, g fits in one."""
    d = tmp_path_factory.mktemp("long")
    files = (("e.edf", 3500, 5), ("f.edf", 4100, 6), ("g.edf", 300, 7), ("h.edf", 3100, 8))
    for name, seconds, seed in files:
        (d / name).write_bytes(make_edf_bytes("chb05", seconds, n_channels=3, seed=seed))
    (d / "summary.txt").write_text(LONG_SUMMARY, encoding="utf-8")
    return d


@pytest.mark.parametrize(
    "n, write_block, bounds",
    [
        # The smallest chunk; 3,424 samples are left after three, too few for
        # a chunk of their own, so the last chunk takes them.
        (28_000, 1, [0, 8192, 16384, 28_000]),
        (32_800, 1, [0, 8192, 16384, 24576, 32_800]),
        # Chunks of 16,384 samples; the 11,616 left are a chunk of their own.
        (28_000, 2 * 8192 * 3 * 8, [0, 16384, 28_000]),
        (32_800, 2 * 8192 * 3 * 8, [0, 16384, 32_800]),
        # A file shorter than one chunk is one chunk.
        (2_400, 1, [0, 2_400]),
        (28_000, 1 << 30, [0, 28_000]),
    ],
)
def test_chunks_are_whole_records_windows_and_scan_blocks(monkeypatch, n, write_block, bounds):
    monkeypatch.setattr(store, "_WRITE_BLOCK", write_block)
    assert store._chunk_bounds(n, n_channels=3, window=16, spr=8) == bounds


# lcm(128, 96, 48) is 384 samples, and 8,192 round up to 22 of them;
# lcm(128, 500, 250) is 16,000 samples, more than 8,192.
@pytest.mark.parametrize("window, spr, size", [(96, 48, 22 * 384), (500, 250, 16_000)])
def test_a_chunk_is_a_multiple_of_the_lcm_that_holds_the_fewest_scan_blocks(
    monkeypatch, window, spr, size
):
    monkeypatch.setattr(store, "_WRITE_BLOCK", 1)
    bounds = store._chunk_bounds(10 * size, n_channels=23, window=window, spr=spr)
    assert bounds == list(range(0, 10 * size + 1, size))


@pytest.mark.parametrize("task", ["detection", "prediction"])
@pytest.mark.parametrize("highpass_hz", [None, 0.5])
@pytest.mark.parametrize(
    "write_block, chunks",
    [(1, 3 + 4 + 1 + 3), (2 * 8192 * 3 * 8, 2 + 2 + 1 + 2), (1 << 30, 4)],
    ids=["smallest", "middle", "whole"],
)
def test_a_store_written_a_chunk_at_a_time_equals_the_library_path(
    long_edf_dir, tmp_path, monkeypatch, task, highpass_hz, write_block, chunks
):
    """e.edf, f.edf, g.edf and h.edf are read in chunks of 8,192 or 16,384
    samples, or whole, with one write per chunk that keeps epochs; the
    bytes written do not change."""
    calls = []

    class Counted:
        """The file _write_source appends to, counting the bytes of each write."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            calls.append(memoryview(data).nbytes)
            return self.fh.write(data)

    def counted(out, *args):
        return write_source(Counted(out), *args)

    write_source = store._write_source
    monkeypatch.setattr(store, "_write_source", counted)
    monkeypatch.setattr(store, "_WRITE_BLOCK", write_block)
    (_, failures, _), _ = _write_store(
        long_edf_dir, tmp_path / "store", task=task, highpass_hz=highpass_hz,
        summaries=[long_edf_dir / "summary.txt"],
    )
    empty = 1 if (task, write_block) == ("prediction", 1) else 0  # h.edf's second chunk
    assert not failures and len(calls) == chunks - empty and all(calls)
    epochs_npy, meta_csv = library_store(long_edf_dir, task, highpass_hz, tmp_path, LONG_SUMMARY)
    assert (tmp_path / "store" / "epochs.npy").read_bytes() == epochs_npy
    assert (tmp_path / "store" / "meta.csv").read_bytes() == meta_csv


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

    def streamed():
        # store._write_source's calls: the plan, then each channel's kept windows.
        n_samples = len(rec.signals[0]) if rec.signals else 0
        plan = plan_epochs(
            n_samples, rec.sample_rate_hz, seizures, task, epoch_len_s=epoch_len_s,
            horizon_s=HORIZON_S, highpass_hz=highpass_hz,
        )
        samples = np.empty((plan.n_kept, len(rec.signals), plan.window))
        for c, fs in enumerate(rec.sample_rate_hz):
            plan.windows(rec.signals[c], fs, out=samples[:, c])
        return {"plan": plan, "samples": samples}

    got = _outcome(streamed)
    want = _outcome(library)
    if isinstance(want, tuple):
        assert got == want
        return
    plan, samples = got["plan"], got["samples"]
    assert np.array_equal(plan.labels, want.labels) and plan.labels.dtype == want.labels.dtype
    assert samples.shape == want.epochs.samples.shape
    assert np.array_equal(samples, want.epochs.samples)
    assert np.array_equal(plan.starts[plan.kept], want.epochs.starts)


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


# ingest of three 10-min, 23-channel, 256 Hz files may peak this many MB
# above ingest of one of them: it holds one file's bytes and a bounded group
# of channels at a time, so its memory does not grow with the store.
# Measured: 0.2-0.4 MB (Linux, Python 3.11, numpy 2.4), against about 56 MB
# when every file's epochs are held until epochs.npy is written.
INGEST_SLACK_MB = 2.0
# featurize of that 81 MB store may peak this many MB above a bare
# `import seizurekit.cli`: two read blocks, extract_features' temporaries
# and the feature rows. Measured: 12.1 MB on the same machine.
FEATURIZE_SLACK_MB = 16.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux's ru_maxrss in KiB")
def test_ingest_and_featurize_peak_memory_does_not_grow_with_the_store(tmp_path):
    for name, count in (("one", 1), ("three", 3)):
        (tmp_path / name).mkdir()
        for i in range(count):
            raw = make_edf_bytes(f"p0{i}", 600, rate_hz=256, n_channels=23, seed=i)
            (tmp_path / name / f"p0{i}.edf").write_bytes(raw)

    def ingest(name):
        return (
            "from seizurekit.cli import main; raise SystemExit(main(['ingest', '--edf-dir', "
            f"'{name}', '--highpass', '0.5', '--out', 'store_{name}']))"
        )

    one, three = _child_peak_mb(ingest("one"), tmp_path), _child_peak_mb(ingest("three"), tmp_path)
    assert three <= one + INGEST_SLACK_MB, f"ingest of three files peaked {three - one:.1f} MB above one"

    featurize = (
        "from seizurekit.cli import main; raise SystemExit(main(['featurize', '--store', "
        "'store_three', '--out', 'features']))"
    )
    rise = _child_peak_mb(featurize, tmp_path) - _child_peak_mb("import seizurekit.cli", tmp_path)
    store_mb = (tmp_path / "store_three" / "epochs.npy").stat().st_size / 2**20
    assert rise <= FEATURIZE_SLACK_MB, f"featurize rose {rise:.1f} MB on a {store_mb:.0f} MB store"


# ingest of a 40-min, 23-channel, 256 Hz file may peak this many MB above
# ingest of a 10-min one: it reads, converts, filters and writes a chunk of
# records at a time. Measured (Linux, Python 3.11, numpy 2.4): 40.6 and
# 42.3 MB (the 40-min file's last chunk also takes the 24 s left over), and
# 40.8 MB for 60 min, against 61.4, 94.9 and 118.1 MB when each file was
# read and filtered whole.
INGEST_LENGTH_SLACK_MB = 3.0


def _repeated(raw: bytes, times: int) -> bytes:
    """The EDF file raw with its data records repeated times over."""
    header_bytes = int(raw[184:192])
    num_records = str(int(raw[236:244]) * times).ljust(8).encode("ascii")
    return raw[:236] + num_records + raw[244:header_bytes] + raw[header_bytes:] * times


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux's ru_maxrss in KiB")
def test_ingest_peak_memory_does_not_grow_with_the_recording_length(tmp_path):
    raw = make_edf_bytes("p01", 600, rate_hz=256, n_channels=23)
    peaks = {}
    for minutes in (10, 40):
        (tmp_path / f"m{minutes}").mkdir()
        (tmp_path / f"m{minutes}" / "p01.edf").write_bytes(_repeated(raw, minutes // 10))
        peaks[minutes] = _child_peak_mb(
            "from seizurekit.cli import main; raise SystemExit(main(['ingest', '--edf-dir', "
            f"'m{minutes}', '--highpass', '0.5', '--out', 'store{minutes}']))",
            tmp_path,
        )
    assert np.load(tmp_path / "store40" / "epochs.npy", mmap_mode="r").shape == (1200, 23, 512)
    assert peaks[40] <= peaks[10] + INGEST_LENGTH_SLACK_MB, f"ingest peaked at {peaks} MB"


@pytest.fixture(scope="module")
def wide_store(tmp_path_factory):
    """A store of 100 epochs of 23 channels at 256 Hz: 94 KB an epoch, so
    that a 4 MB read block holds 44 epochs and the last block 12."""
    root = tmp_path_factory.mktemp("wide")
    (root / "edf").mkdir()
    (root / "edf" / "p01.edf").write_bytes(make_edf_bytes("p01", 200, rate_hz=256, n_channels=23))
    argv = ["ingest", "--edf-dir", str(root / "edf"), "--highpass", "0.5", "--out", str(root / "store")]
    assert main(argv) == 0
    return root / "store"


@pytest.mark.parametrize("pool_channels", [False, True])
def test_featurize_in_blocks_equals_featurizing_the_whole_store(
    wide_store, tmp_path, monkeypatch, pool_channels
):
    calls = []

    def counted(epochs, **kwargs):
        calls.append(len(epochs))
        return seizurekit.extract_features(epochs, **kwargs)

    monkeypatch.setattr(seizurekit.cli, "extract_features", counted)
    argv = ["featurize", "--store", str(wide_store), "--out", str(tmp_path / "feat")]
    assert main(argv + (["--pool-channels"] if pool_channels else [])) == 0
    assert calls == [44, 44, 12]

    epochs, labels = read_store(wide_store)
    fm = seizurekit.extract_features(epochs, pool_channels=pool_channels)
    write_feature_csv(fm, labels, tmp_path / "whole.csv")
    assert (tmp_path / "feat" / "features.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_featurize_hashes_epochs_npy_from_the_bytes_it_featurizes(wide_store, tmp_path, monkeypatch):
    """The manifest's digest of epochs.npy is taken in the pass that reads
    the epochs: the file is opened for the header check and for that pass,
    not a third time to hash it."""
    epochs_path = wide_store / store.EPOCHS
    opened = []
    real_open = open

    def counted_open(file, *args, **kwargs):
        if str(file) == str(epochs_path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counted_open)
    assert main(["featurize", "--store", str(wide_store), "--out", str(tmp_path / "feat")]) == 0
    monkeypatch.undo()
    assert len(opened) == 2
    inputs = json.loads((tmp_path / "feat" / "manifest.json").read_text(encoding="utf-8"))["inputs"]
    assert inputs == {
        name: hashlib.sha256((wide_store / name).read_bytes()).hexdigest()
        for name in (store.EPOCHS, store.META)
    }


def test_a_digest_fed_by_read_store_blocks_covers_the_whole_file(wide_store):
    digest = hashlib.sha256()
    _, _, blocks = read_store_blocks(wide_store, block_bytes=23 * 512 * 8 * 30, sha256=digest)
    assert len(list(blocks)) == 4
    assert digest.hexdigest() == hashlib.sha256((wide_store / store.EPOCHS).read_bytes()).hexdigest()


# featurize's heap may peak this many MB above one read block plus the
# feature rows (twice: the rows of each block, then all of them as one
# array): extract_features' temporaries. Measured: 1.1 MB on a 4 MB block,
# where holding the previous block through the next read measured 4.0 MB.
FEATURIZE_HEAP_SLACK_MB = 2.0


def test_featurize_holds_one_read_block_at_a_time(wide_store, tmp_path):
    epoch_bytes = 23 * 512 * 8
    block_mb = store._READ_BLOCK // epoch_bytes * epoch_bytes / 2**20
    rows_mb = 2 * 100 * 23 * 4 * 8 / 2**20
    argv = ["featurize", "--store", str(wide_store), "--out", str(tmp_path / "feat")]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        rise = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    assert rise <= block_mb + rows_mb + FEATURIZE_HEAP_SLACK_MB, (
        f"featurize's heap rose {rise:.2f} MB on {block_mb:.2f} MB blocks"
    )


@pytest.mark.parametrize("rows", [1, 3, 7, 100, 1000])
def test_store_blocks_are_the_store_in_order(wide_store, rows):
    epochs, labels = read_store(wide_store)
    meta, block_labels, blocks = read_store_blocks(wide_store, block_bytes=rows * 23 * 512 * 8 + 5)
    blocks = list(blocks)
    assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1) and 0 < len(blocks[-1]) <= rows
    assert np.array_equal(np.concatenate([b.samples for b in blocks]), epochs.samples)
    for field in ("patients", "files", "starts"):
        got = np.concatenate([getattr(b, field) for b in blocks])
        assert np.array_equal(got, getattr(epochs, field))
        assert np.array_equal(getattr(meta, field), getattr(epochs, field))
    assert {b.duration_s for b in blocks} == {epochs.duration_s}
    assert np.array_equal(block_labels, labels)


def _store_with_epochs(wide_store, tmp_path, epochs_bytes: bytes) -> Path:
    store = tmp_path / "store"
    store.mkdir()
    for name in ("meta.csv", "store_info.json"):
        (store / name).write_bytes((wide_store / name).read_bytes())
    (store / "epochs.npy").write_bytes(epochs_bytes)
    return store


def _negative_shape(good: bytes) -> bytes:
    """A header whose two negative dimensions multiply to one epoch's size, and that epoch."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {"descr": "<f8", "fortran_order": False, "shape": (-1, -23, 512)})
    return buf.getvalue() + bytes(23 * 512 * 8)


@pytest.mark.parametrize(
    "edit", [lambda b: b[:-8], lambda b: b + b"\0" * 8, _negative_shape], ids=["short", "long", "negative"]
)
def test_the_file_size_is_checked_before_any_block_is_read(wide_store, tmp_path, edit):
    store = _store_with_epochs(wide_store, tmp_path, edit((wide_store / "epochs.npy").read_bytes()))
    with pytest.raises(DataError, match="not a readable .npy array") as raised:
        read_store_blocks(store)  # raises before the first block is asked for
    assert str(store / "epochs.npy") in str(raised.value)


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def test_a_fortran_order_epochs_file_is_refused(wide_store, tmp_path, capsys):
    epochs, _ = read_store(wide_store)
    store = _store_with_epochs(wide_store, tmp_path, _npy(np.asfortranarray(epochs.samples)))
    rc = main(["featurize", "--store", str(store), "--out", str(tmp_path / "feat")])
    assert rc == 2
    assert f"{store / 'epochs.npy'}: a Fortran-order array is not read" in capsys.readouterr().err
    assert not (tmp_path / "feat" / "features.csv").exists()


@pytest.mark.parametrize("dtype", [">f8", "<f4", "<i2"])
def test_featurize_reads_any_numeric_epochs_file(wide_store, tmp_path, dtype):
    epochs, labels = read_store(wide_store)
    samples = (epochs.samples * 100).astype(dtype)
    store = _store_with_epochs(wide_store, tmp_path, _npy(samples))
    assert main(["featurize", "--store", str(store), "--out", str(tmp_path / "feat")]) == 0
    got, _ = read_store(store)
    assert got.samples.dtype == np.dtype(dtype) and np.array_equal(got.samples, samples)
    want = seizurekit.extract_features(got)
    write_feature_csv(want, labels, tmp_path / "whole.csv")
    assert (tmp_path / "feat" / "features.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
