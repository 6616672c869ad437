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
