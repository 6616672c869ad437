"""Epoch slicing, detection/prediction labeling, and sequence windowing."""

import datetime
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seizurekit import (
    ConfigError,
    DataError,
    FeatureMatrix,
    Recording,
    SeizureInterval,
    build_sequences,
    denoise,
    label_detection,
    label_prediction,
    slice_epochs,
)
from seizurekit.epochs import _MIN_SCAN_BLOCKS, _SCAN_BLOCK, _highpass_scan
from tests.test_edf import make_channel


def make_recording(duration_s, rate_hz=4, n_channels=2, fill=0.0):
    spr = rate_hz  # one-second records
    num_records = int(duration_s)
    channels = tuple(make_channel(f"CH{i}", spr=spr) for i in range(n_channels))
    signals = tuple(np.full(spr * num_records, fill) for _ in range(n_channels))
    return Recording(
        patient_id="P01",
        start_datetime=datetime.datetime(2020, 1, 1, 0, 0, 0),
        record_duration_s=1.0,
        num_records=num_records,
        channels=channels,
        signals=signals,
    )


def seizure(start, end, file_name="a.edf"):
    return SeizureInterval(file_name=file_name, start_s=start, end_s=end)


def test_epoch_tiling_counts():
    assert len(slice_epochs(make_recording(10))) == 5
    assert len(slice_epochs(make_recording(11))) == 5  # trailing second dropped
    assert len(slice_epochs(make_recording(3600))) == 1800


def test_epoch_starts_and_shapes():
    epochs = slice_epochs(make_recording(10, rate_hz=8, n_channels=3), file_name="a.edf")
    assert epochs.starts.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert epochs.samples.shape == (5, 3, 16)
    assert epochs.duration_s == 2.0
    assert epochs.files.tolist() == ["a.edf"] * 5
    assert epochs.patients.tolist() == ["P01"] * 5


def test_epoch_samples_are_contiguous_slices():
    rec = make_recording(6, rate_hz=4, n_channels=1)
    rec.signals[0][:] = np.arange(24, dtype=float)
    epochs = slice_epochs(rec)
    assert np.array_equal(epochs.samples[0, 0], np.arange(8))
    assert np.array_equal(epochs.samples[2, 0], np.arange(16, 24))


def test_mismatched_channel_rates_rejected():
    bad = Recording(
        patient_id="P01",
        start_datetime=datetime.datetime(2020, 1, 1),
        record_duration_s=1.0,
        num_records=4,
        channels=(make_channel("A", spr=4), make_channel("B", spr=8)),
        signals=(np.zeros(16), np.zeros(32)),
    )
    with pytest.raises(DataError):
        slice_epochs(bad)


def test_fractional_window_rejected():
    # 3 Hz x 2.5 s is 7.5 samples: not a whole window
    with pytest.raises(ConfigError):
        slice_epochs(make_recording(10, rate_hz=3), epoch_len_s=2.5)
    with pytest.raises(ConfigError):
        slice_epochs(make_recording(10), epoch_len_s=0.0)


def test_detection_labels_half_open_boundaries():
    epochs = slice_epochs(make_recording(30))
    out = label_detection(epochs, [seizure(10.0, 20.0)])
    # epochs starting 10..18 overlap [10, 20); [8,10) and [20,22) do not
    assert out.labels.tolist() == [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
    assert out.task == "detection"
    assert len(out.epochs) == 15


def test_detection_partial_overlap_counts():
    epochs = slice_epochs(make_recording(8))
    out = label_detection(epochs, [seizure(3.0, 5.0)])
    assert out.labels.tolist() == [0, 1, 1, 0]


def test_detection_touching_boundary_stays_negative():
    epochs = slice_epochs(make_recording(6))
    # interval ending exactly at an epoch start leaves that epoch clean
    out = label_detection(epochs, [seizure(0.0, 2.0)])
    assert out.labels.tolist() == [1, 0, 0]


def test_detection_no_seizures_all_zero():
    epochs = slice_epochs(make_recording(10))
    assert label_detection(epochs, []).labels.sum() == 0


def test_detection_against_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dur = int(rng.integers(6, 60))
        epochs = slice_epochs(make_recording(dur))
        intervals = []
        for _ in range(int(rng.integers(0, 4))):
            s = float(rng.uniform(0, dur - 1))
            intervals.append(seizure(s, s + float(rng.uniform(0.1, 10.0))))
        out = label_detection(epochs, intervals)
        for start, lab in zip(out.epochs.starts, out.labels):
            expect = any(
                min(start + out.epochs.duration_s, iv.end_s) > max(start, iv.start_s)
                for iv in intervals
            )
            assert lab == int(expect)


def test_prediction_horizon_window():
    epochs = slice_epochs(make_recording(720))
    out = label_prediction(epochs, [seizure(700.0, 710.0)], horizon_s=300.0)
    by_start = {s: int(l) for s, l in zip(out.epochs.starts.tolist(), out.labels)}
    assert by_start[398.0] == 0  # [398, 400) ends before the horizon opens
    assert by_start[400.0] == 1  # first epoch inside [400, 700)
    assert by_start[698.0] == 1
    assert 700.0 not in by_start  # ictal epochs are removed
    assert 708.0 not in by_start
    assert by_start[710.0] == 0
    assert out.task == "prediction"


def test_prediction_drops_ictal_epochs():
    epochs = slice_epochs(make_recording(30))
    out = label_prediction(epochs, [seizure(10.0, 20.0)], horizon_s=6.0)
    starts = out.epochs.starts.tolist()
    assert starts == [0.0, 2.0, 4.0, 6.0, 8.0, 20.0, 22.0, 24.0, 26.0, 28.0]
    by_start = dict(zip(starts, out.labels.tolist()))
    # horizon covers [4, 10); [2,4) only touches its left edge
    assert by_start[4.0] == 1 and by_start[6.0] == 1 and by_start[8.0] == 1
    assert by_start[0.0] == 0 and by_start[2.0] == 0
    assert by_start[20.0] == 0


def test_prediction_overlapping_horizons_merge():
    epochs = slice_epochs(make_recording(40))
    intervals = [seizure(14.0, 16.0), seizure(20.0, 22.0)]
    out = label_prediction(epochs, intervals, horizon_s=10.0)
    by_start = dict(zip(out.epochs.starts.tolist(), out.labels.tolist()))
    # horizons [4,14) and [10,20) union; ictal [14,16) and [20,22) removed
    assert 14.0 not in by_start and 20.0 not in by_start
    assert by_start[4.0] == 1 and by_start[12.0] == 1
    assert by_start[16.0] == 1 and by_start[18.0] == 1
    assert by_start[0.0] == 0 and by_start[2.0] == 0 and by_start[22.0] == 0


def test_prediction_bad_horizon_rejected():
    epochs = slice_epochs(make_recording(10))
    with pytest.raises(ConfigError):
        label_prediction(epochs, [], horizon_s=0.0)


def _reference_label_prediction(n_epochs, epoch_len_s, seizures, horizon_s):
    """The per-epoch loop label_prediction was written with: the kept
    epochs' starts and their labels."""

    def overlaps(start, end, intervals):
        return any(start < e and s < end for s, e in intervals)

    ictal = [(iv.start_s, iv.end_s) for iv in seizures]
    preictal = [(iv.start_s - horizon_s, iv.start_s) for iv in seizures]
    starts, labels = [], []
    for i in range(n_epochs):
        start = i * epoch_len_s
        end = start + epoch_len_s
        if overlaps(start, end, ictal):
            continue
        starts.append(start)
        labels.append(1 if overlaps(start, end, preictal) else 0)
    return starts, labels


# Multiples of 1/4 s make seizure and horizon edges touch epoch edges often.
_QUARTERS = st.integers(0, 200).map(lambda q: q / 4) | st.floats(0, 60)
_LENGTHS = st.integers(1, 200).map(lambda q: q / 4) | st.floats(0.01, 60)


@settings(deadline=None)
@given(
    duration=st.integers(1, 40),
    epoch_len_s=st.sampled_from([0.25, 0.5, 0.75, 1.0, 2.0, 2.5]),
    seizures=st.lists(st.tuples(_QUARTERS, _LENGTHS), max_size=4),
    horizon_s=_LENGTHS,
)
def test_label_prediction_matches_reference_loop(duration, epoch_len_s, seizures, horizon_s):
    # Seizures may overlap one another and run past the end of the file.
    rec = make_recording(duration)
    rec.signals[0][:] = np.arange(len(rec.signals[0]), dtype=float)
    epochs = slice_epochs(rec, epoch_len_s=epoch_len_s)
    intervals = [seizure(start, start + length) for start, length in seizures]
    out = label_prediction(epochs, intervals, horizon_s=horizon_s)
    starts, labels = _reference_label_prediction(len(epochs), epoch_len_s, intervals, horizon_s)
    assert out.epochs.starts.tolist() == starts
    assert out.labels.tolist() == labels
    window = epochs.samples.shape[2]
    kept = (out.epochs.starts / epoch_len_s).round().astype(int)
    assert np.array_equal(out.epochs.samples[:, 0, 0], kept * window)


def test_denoise_default_is_identity():
    rec = make_recording(6, fill=3.5)
    out = denoise(rec)
    for a, b in zip(out.signals, rec.signals):
        assert np.array_equal(a, b)


def test_denoise_highpass_removes_dc():
    rec = make_recording(30, rate_hz=16, fill=10.0)
    out = denoise(rec, highpass_hz=0.5)
    # constant input decays toward zero once the filter settles
    assert np.abs(out.signals[0][-16:]).max() < 10.0 * 0.2
    assert out.signals[0][0] == rec.signals[0][0]
    with pytest.raises(ConfigError):
        denoise(rec, highpass_hz=-1.0)


@pytest.mark.parametrize(
    "cutoff", [0.0, -1.0, math.nan, math.inf, -math.inf, "0.5", True]
)
def test_denoise_rejects_cutoff_that_is_not_finite_positive(cutoff):
    rec = make_recording(4, fill=1.0)
    with pytest.raises(ConfigError, match="highpass"):
        denoise(rec, highpass_hz=cutoff)


def test_denoise_subnormal_cutoff_passes_signal_through():
    rec = make_recording(4, fill=1.0)
    rec.signals[0][:] = np.arange(16, dtype=float)
    out = denoise(rec, highpass_hz=5e-324)
    for x, y in zip(rec.signals, out.signals):
        assert np.allclose(y, x, rtol=0, atol=1e-12)


def _reference_denoise(r, highpass_hz):
    """The sample-by-sample high-pass loop that ``denoise`` must match."""
    filtered = []
    for meta, x in zip(r.channels, r.signals):
        fs = meta.samples_per_record / r.record_duration_s
        rc = 1.0 / (2.0 * math.pi * highpass_hz)
        alpha = rc / (rc + 1.0 / fs)
        y = np.empty_like(x)
        if len(x):
            y[0] = x[0]
            for n in range(1, len(x)):
                y[n] = alpha * (y[n - 1] + x[n] - x[n - 1])
        filtered.append(y)
    return filtered


# Per-channel samples per record: the block-boundary lengths, then many blocks.
_SPR = st.sampled_from(
    [1, 2, _SCAN_BLOCK - 1, _SCAN_BLOCK, _SCAN_BLOCK + 1]
) | st.integers(1, 20 * _SCAN_BLOCK)


@st.composite
def highpass_cases(draw):
    """A recording whose channels may differ in rate, plus a cutoff in range."""
    record_s = draw(st.sampled_from([0.5, 1.0, 2.0]))
    num_records = draw(st.sampled_from([0, 1]) | st.integers(2, 4))
    sprs = draw(st.lists(_SPR, min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.floats(-1e3, 1e3))
    scale = draw(st.floats(1e-3, 1e2))
    signals = []
    for spr in sprs:
        walk = rng.standard_normal(spr * num_records).cumsum()
        signals.append(offset + scale * (walk + rng.standard_normal(len(walk))))
    # Log-uniform from 0.01 Hz to just under the slowest channel's Nyquist rate.
    nyquist = min(sprs) / record_s / 2
    cutoff = math.exp(draw(st.floats(math.log(0.01), math.log(0.99 * nyquist))))
    rec = Recording(
        patient_id="P01",
        start_datetime=datetime.datetime(2020, 1, 1, 0, 0, 0),
        record_duration_s=record_s,
        num_records=num_records,
        channels=tuple(make_channel(f"CH{i}", spr=spr) for i, spr in enumerate(sprs)),
        signals=tuple(signals),
    )
    return rec, cutoff


@settings(deadline=None)
@given(highpass_cases())
def test_denoise_matches_reference_loop(case):
    rec, cutoff = case
    before = [x.copy() for x in rec.signals]
    out = denoise(rec, highpass_hz=cutoff)
    expected = _reference_denoise(rec, cutoff)
    for x, x0, y, ref in zip(rec.signals, before, out.signals, expected):
        assert np.array_equal(x, x0)
        assert y.dtype == np.float64
        assert y.shape == x.shape
        if len(x):
            assert y[0] == x[0]
            assert np.abs(y - ref).max() <= 1e-12 * np.abs(ref).max()


@st.composite
def scan_pieces(draw):
    """A channel cut into pieces as ingest cuts it: every piece but the last
    a whole number of scan blocks, and each at least _MIN_SCAN_BLOCKS
    blocks long; the last of any length that holds that many blocks."""
    blocks = draw(st.lists(st.integers(_MIN_SCAN_BLOCKS, _MIN_SCAN_BLOCKS + 40), max_size=3))
    least = (_MIN_SCAN_BLOCKS - 1) * _SCAN_BLOCK + 1
    last = draw(st.sampled_from([least, _MIN_SCAN_BLOCKS * _SCAN_BLOCK]) | st.integers(least, 2 * least))
    return [b * _SCAN_BLOCK for b in blocks] + [last]


@settings(deadline=None, max_examples=60)
@given(
    scan_pieces(),
    st.floats(0, 1, exclude_min=True) | st.sampled_from([1.0, 0.5, 1 - 2**-40]),
    st.integers(0, 2**32 - 1),
)
def test_the_scan_in_pieces_equals_one_scan_of_the_whole_channel(pieces, alpha, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1e3, 1e3) + rng.uniform(1e-3, 1e2) * rng.standard_normal(sum(pieces)).cumsum()
    whole, _ = _highpass_scan(x, alpha)
    parts, state, at = [], None, 0
    for length in pieces:
        y, state = _highpass_scan(x[at : at + length], alpha, state)
        parts.append(y)
        at += length
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def fm(values, patients, files, starts):
    return FeatureMatrix(
        values=np.asarray(values, dtype=np.float64),
        patients=np.array(patients, dtype=object),
        files=np.array(files, dtype=object),
        starts=np.array(starts, dtype=np.float64),
    )


def test_build_sequences_counts_and_last_label():
    rng = np.random.default_rng(3)
    feats = fm(
        rng.normal(size=(12, 4)),
        ["A"] * 7 + ["B"] * 5,
        ["a1"] * 7 + ["b1"] * 5,
        [float(i * 2) for i in range(7)] + [float(i * 2) for i in range(5)],
    )
    labels = np.array([0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1])
    ds = build_sequences(feats, labels, 3)
    # group A yields 7-3+1 windows, group B yields 5-3+1
    assert ds.X.shape == (5 + 3, 3, 4)
    assert ds.y.tolist() == [1, 0, 0, 0, 1, 0, 0, 1]
    assert list(ds.patients[:5]) == ["A"] * 5
    assert ds.starts[0] == 4.0  # metadata comes from the window's last epoch
    assert np.array_equal(ds.X[0], feats.values[0:3])
    assert np.array_equal(ds.X[5], feats.values[7:10])


def test_build_sequences_skips_short_groups():
    feats = fm(np.zeros((5, 2)), ["A", "A", "B", "B", "B"], ["a", "a", "b", "b", "b"],
               [0.0, 2.0, 0.0, 2.0, 4.0])
    ds = build_sequences(feats, np.zeros(5, dtype=int), 3)
    assert ds.X.shape == (1, 3, 2)
    assert list(ds.patients) == ["B"]


def test_build_sequences_never_spans_files():
    feats = fm(np.arange(8, dtype=float).reshape(8, 1), ["A"] * 8,
               ["f1"] * 4 + ["f2"] * 4, [0.0, 2.0, 4.0, 6.0] * 2)
    ds = build_sequences(feats, np.zeros(8, dtype=int), 2)
    assert len(ds) == 6  # 3 windows per file, none crossing the boundary
    for window in ds.X:
        assert abs(window[1, 0] - window[0, 0]) == 1.0


def test_build_sequences_length_one_is_row_identity():
    rng = np.random.default_rng(5)
    feats = fm(rng.normal(size=(6, 3)), ["P"] * 6, ["f"] * 6,
               [float(i) for i in range(6)])
    labels = rng.integers(0, 2, size=6)
    ds = build_sequences(feats, labels, 1)
    assert np.array_equal(ds.X[:, 0, :], feats.values)
    assert np.array_equal(ds.y, labels)


def test_build_sequences_bad_length_rejected():
    feats = fm(np.zeros((3, 2)), ["A"] * 3, ["f"] * 3, [0.0, 2.0, 4.0])
    with pytest.raises(ConfigError):
        build_sequences(feats, np.zeros(3, dtype=int), 0)
    with pytest.raises(DataError):
        build_sequences(feats, np.zeros(4, dtype=int), 2)


def _reference_build_sequences(features, labels, T):
    """The former per-file loop, plus the gap rule: the epoch length is the
    smallest start step within any file, and a window's rows must be
    that far apart (to a relative 1e-6)."""
    keys = [(p, f) for p, f in zip(features.patients, features.files)]
    seen = {}
    for idx, key in enumerate(keys):
        seen.setdefault(key, []).append(idx)
    steps = [
        features.starts[b] - features.starts[a]
        for rows in seen.values()
        for a, b in zip(rows, rows[1:])
    ]
    epoch_len = min(steps, default=0.0)

    windows, win_labels, pats, fils, starts = [], [], [], [], []
    for key in dict.fromkeys(keys):
        rows = seen[key]
        for j in range(len(rows) - T + 1):
            block = rows[j : j + T]
            if any(
                abs(features.starts[b] - features.starts[a] - epoch_len) > 1e-6 * epoch_len
                for a, b in zip(block, block[1:])
            ):
                continue
            windows.append(features.values[block])
            last = block[-1]
            win_labels.append(labels[last])
            pats.append(features.patients[last])
            fils.append(features.files[last])
            starts.append(features.starts[last])
    X = np.stack(windows) if windows else np.zeros((0, T, features.n_dims))
    return X, win_labels, pats, fils, starts


def test_build_sequences_windows_stop_at_gaps():
    # Prediction labeling drops the ictal epochs between 4 s and 100 s.
    feats = fm(np.arange(5, dtype=float).reshape(5, 1), ["A"] * 5, ["a"] * 5,
               [0.0, 2.0, 4.0, 100.0, 102.0])
    ds = build_sequences(feats, np.array([0, 0, 1, 0, 0]), 3)
    assert len(ds) == 1
    assert ds.starts.tolist() == [4.0]
    assert ds.y.tolist() == [1]
    assert ds.X[0, :, 0].tolist() == [0.0, 1.0, 2.0]


@pytest.mark.parametrize(
    "starts", [[0.0, 4.0, 2.0, 6.0], [0.0, 2.0, 2.0, 4.0], [0.0, 2.0, math.nan, 6.0]]
)
def test_build_sequences_rejects_starts_not_increasing_within_a_file(starts):
    # The other file's rows sit between this file's rows and are fine.
    feats = fm(np.zeros((6, 1)), ["A", "B", "A", "B", "A", "A"],
               ["a", "b", "a", "b", "a", "a"], [starts[0], 0.0, starts[1], 2.0, *starts[2:]])
    with pytest.raises(DataError, match="'a'"):
        build_sequences(feats, np.zeros(6, dtype=int), 2)


@st.composite
def sequence_cases(draw):
    """Files whose kept epochs are any subset of a file's epoch grid, rows
    interleaved across files, plus a window length T.

    Column 0 of a row is its file's number and column 1 its epoch index,
    so the true windows can be read off the values."""
    epoch_len = draw(st.sampled_from([2.0, 0.3, 1.7, 1 / 256, 30.0]))
    base = draw(st.sampled_from([0, 1000, 10**6]))
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(["P1", "P2"]), st.sampled_from(["f1", "f2", "f3"])),
            min_size=1, max_size=4, unique=True,
        )
    )
    files = []
    for num, key in enumerate(keys):
        kept = draw(st.lists(st.booleans(), max_size=16))
        files.append([(num, base + i) for i, keep in enumerate(kept) if keep])
    # Interleave: pop the next row of a file drawn at each step.
    order = draw(st.permutations([num for num, rows in enumerate(files) for _ in rows]))
    queues = [list(rows) for rows in files]
    rows = [queues[num].pop(0) for num in order]
    values = np.array(rows, dtype=np.float64).reshape(len(rows), 2)
    feats = fm(
        values,
        [keys[num][0] for num, _ in rows],
        [keys[num][1] for num, _ in rows],
        [i * epoch_len for _, i in rows],
    )
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows))))
    T = draw(st.integers(1, 6) | st.just(17))
    return feats, labels, T


@settings(max_examples=400, deadline=None)
@given(sequence_cases())
def test_build_sequences_matches_reference_loop(case):
    feats, labels, T = case
    ds = build_sequences(feats, labels, T)
    X, y, pats, fils, starts = _reference_build_sequences(feats, labels, T)
    assert ds.X.shape == X.shape == (len(y), T, 2)
    assert np.array_equal(ds.X, X)
    assert ds.y.dtype == np.int64 and ds.y.tolist() == list(y)
    assert ds.patients.dtype == object and ds.patients.tolist() == pats
    assert ds.files.dtype == object and ds.files.tolist() == fils
    assert ds.starts.dtype == np.float64 and ds.starts.tolist() == starts

    # Where some file has two adjacent epochs the epoch length is the true
    # one, and every window is T adjacent epochs of one file.
    file_num, epoch = feats.values[:, 0], feats.values[:, 1]
    if any(((file_num == f) & (epoch == e + 1)).any() for f, e in zip(file_num, epoch)):
        assert (ds.X[:, :, 0] == ds.X[:, :1, 0]).all()
        assert (np.diff(ds.X[:, :, 1], axis=1) == 1).all()
        full_runs = sum(
            ((file_num == f) & (epoch >= e) & (epoch < e + T)).sum() == T
            for f, e in zip(file_num, epoch)
        )
        assert len(ds) == full_runs
