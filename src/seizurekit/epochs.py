"""Epoch slicing and labeling.

Recordings are cut into fixed-length, non-overlapping windows starting at
t=0. Detection labeling marks any epoch that overlaps an annotated seizure
interval; prediction labeling marks the pre-seizure horizon as positive and
drops the seizure epochs themselves. Sequence windows for recurrent models
hold epochs consecutive in time within one file; a gap ends a window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .domains import Domain, check_params
from .errors import ConfigError, DataError

if TYPE_CHECKING:
    from .edf import Recording, SeizureInterval
    from .features import FeatureMatrix

# The ingest parameters; None for highpass_hz turns the filter off.
DOMAINS = {
    "epoch_len_s": Domain(float, 0, lo_open=True),
    "horizon_s": Domain(float, 0, lo_open=True),
    "highpass_hz": Domain(float, 0, lo_open=True, auto=True),
}
SEQUENCE_LENGTH = Domain(int, 1)  # epochs per build_sequences window
TASKS = ("detection", "prediction")  # each labels epochs through label_<task>


@dataclass(frozen=True)
class Epochs:
    """Fixed-length windows of recordings, all channels, physical units.

    ``samples[i]`` is window i as a (channels, window) array; the metadata
    arrays describe the same window.
    """

    samples: np.ndarray  # (n, channels, window) float64
    patients: np.ndarray  # (n,) str
    files: np.ndarray  # (n,) str
    starts: np.ndarray  # (n,) float64, seconds from the recording's start
    duration_s: float

    def __post_init__(self):
        if self.duration_s <= 0:
            raise DataError(f"epoch duration must be positive, got {self.duration_s}")
        if self.samples.ndim != 3:
            raise DataError("epoch samples must be an (epochs, channels, window) array")
        if not (len(self.patients) == len(self.files) == len(self.starts) == len(self.samples)):
            raise DataError("epoch metadata length mismatch")

    def __len__(self) -> int:
        return len(self.samples)

    def take(self, index) -> "Epochs":
        """Epoch subset (boolean mask or index array), metadata kept aligned."""
        return Epochs(
            samples=self.samples[index],
            patients=self.patients[index],
            files=self.files[index],
            starts=self.starts[index],
            duration_s=self.duration_s,
        )


@dataclass(frozen=True)
class LabeledEpochSet:
    """Epochs paired with binary labels for one task."""

    epochs: Epochs
    labels: np.ndarray
    task: str  # one of TASKS

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if len(self.labels) != len(self.epochs):
            raise DataError(
                f"{len(self.labels)} labels for {len(self.epochs)} epochs"
            )
        if len(self.labels) and not np.isin(self.labels, (0, 1)).all():
            raise DataError("labels must be 0 or 1")


def denoise(r: Recording, highpass_hz: float | None = None) -> Recording:
    """Optional noise-reduction hook applied before epoching.

    The default is a pass-through: the recording is returned unchanged.
    When ``highpass_hz`` is given, each channel runs through a first-order
    RC high-pass filter at that cutoff, which removes slow drift and DC
    offset. No other artifact removal is performed here.

    The filter is ``y[0] = x[0]``, ``y[n] = a * (y[n-1] + x[n] - x[n-1])``
    with ``a = rc / (rc + 1/fs)`` and ``rc = 1 / (2*pi*highpass_hz)``, at
    each channel's own rate ``fs``. It runs as a blocked linear-recurrence
    scan: one matmul gives every block's response from a zero start, then
    one scalar step per block carries the previous block's last output
    forward. Only powers ``a**k <= 1`` appear, so no cutoff can overflow.
    The output differs from the sample-by-sample recurrence only in
    rounding order, by at most 1e-12 of the channel's largest output.

    Raises ConfigError unless ``highpass_hz`` is None or a finite number > 0.
    """
    from .edf import Recording  # here, so that importing epochs loads no EDF code

    check_params("denoise", {"highpass_hz": highpass_hz}, DOMAINS)
    if highpass_hz is None:
        return r
    filtered = tuple(
        _highpass_scan(x, _highpass_alpha(highpass_hz, fs))[0]
        for x, fs in zip(r.signals, r.sample_rate_hz)
    )
    return Recording(
        patient_id=r.patient_id,
        start_datetime=r.start_datetime,
        record_duration_s=r.record_duration_s,
        num_records=r.num_records,
        channels=r.channels,
        signals=filtered,
        recording_id=r.recording_id,
    )


def _highpass_alpha(highpass_hz: float, fs: float) -> float:
    """denoise's a = rc / (rc + 1/fs) for a cutoff and a sample rate."""
    rc = 1.0 / (2.0 * math.pi * float(highpass_hz))
    # A subnormal cutoff overflows rc; its limit is the all-pass alpha = 1.
    return rc / (rc + 1.0 / fs) if rc < math.inf else 1.0


# Block length of the high-pass scan: long enough that the per-block carry
# pass is short, small enough that the B x B matmul stays cheap.
_SCAN_BLOCK = 128
# The fewest blocks in a piece of a channel that the scan may filter on its
# own and still give the whole-channel scan's samples. A row of the blocks @
# kernel.T product is the same however many rows share the product only
# when at least 10 do: with OpenBLAS 0.3.31 (SkylakeX kernels) at one and at
# two threads, products of 8 or 9 rows differed from the whole product in
# the last bits of nearly every row, and products of 10 to 257 rows in none
# (random blocks, 300 to 5,000 rows). 64 leaves a wide margin.
_MIN_SCAN_BLOCKS = 64


def _highpass_scan(
    x: np.ndarray, alpha: float, state: tuple | None = None
) -> tuple[np.ndarray, tuple]:
    """Solve y[n] = alpha * y[n-1] + u[n] for u[0] = x[0] and
    u[n] = alpha * (x[n] - x[n-1]), in blocks of _SCAN_BLOCK samples.

    A channel may be filtered in pieces: state is what the piece before x
    left, (its last sample, the true output at the end of its last block),
    or None at the channel's start, and the state after x is returned with
    y. The pieces then give the whole channel's y bit for bit, provided
    every piece but the last is a whole number of blocks and each holds at
    least _MIN_SCAN_BLOCKS blocks (or is the whole channel).
    """
    n = len(x)
    if n == 0:
        return np.empty(0), state
    n_blocks = -(-n // _SCAN_BLOCK)
    u = np.zeros(n_blocks * _SCAN_BLOCK)
    np.subtract(x[1:], x[:-1], out=u[1:n])
    if state is None:
        u[0], carry = x[0], 0.0
        u[1:n] *= alpha
    else:
        u[0], carry = x[0] - state[0], state[1]
        u[:n] *= alpha
    blocks = u.reshape(n_blocks, _SCAN_BLOCK)
    kernel, powers = _scan_kernel(alpha)
    y = blocks @ kernel.T

    # carries[b] is the true output at the end of block b - 1 (the state's
    # before block 0), and carries[n_blocks] the state's after x.
    alpha_block = alpha**_SCAN_BLOCK
    carries = [carry]
    for end in y[:, -1].tolist():
        carries.append(end + alpha_block * carries[-1])
    # The input blocks are no longer needed; reuse them for the carry term.
    y += np.multiply.outer(carries[:-1], powers, out=blocks)
    return y.reshape(-1)[:n], (float(x[-1]), carries[-1])


@functools.lru_cache(maxsize=16)
def _scan_kernel(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The scan's (kernel, powers) for alpha, read-only: kernel[i, j] =
    alpha**(i - j) for j <= i, else 0, and powers[k] = alpha**(k + 1).
    Cached: a channel filtered in chunks needs them once per chunk, and
    building them takes as long as the matmul of about 250 blocks."""
    k = np.arange(_SCAN_BLOCK)
    kernel = np.tril(alpha ** np.abs(np.subtract.outer(k, k)))
    powers = alpha ** (k + 1)
    kernel.flags.writeable = powers.flags.writeable = False
    return kernel, powers


def slice_epochs(r: Recording, epoch_len_s: float = 2.0, file_name: str = "") -> Epochs:
    """Cut a recording into non-overlapping epochs of epoch_len_s seconds.

    Windows tile the recording from t=0 with no gaps or overlap; a trailing
    partial window is dropped. All channels must share one sample rate, and
    epoch_len_s times that rate must land on a whole number of samples.
    """
    check_params("slice_epochs", {"epoch_len_s": epoch_len_s}, DOMAINS)
    if r.channels:
        window = _window_len(r.sample_rate_hz, epoch_len_s)
        n = len(r.signals[0]) // window
        samples = np.stack([s[: n * window].reshape(n, window) for s in r.signals], axis=1)
    else:
        samples = np.zeros((0, 0, 0))
    n = len(samples)
    return Epochs(
        samples=samples,
        patients=np.full(n, r.patient_id, dtype=object),
        files=np.full(n, file_name, dtype=object),
        starts=np.arange(n) * float(epoch_len_s),
        duration_s=epoch_len_s,
    )


def _window_len(rates, epoch_len_s: float) -> int:
    """Samples per epoch at the one rate that every channel shares."""
    rates = set(rates)
    if len(rates) > 1:
        raise DataError(
            f"channels have unequal sample rates {sorted(rates)}; resampling "
            "is not supported"
        )
    rate = rates.pop()
    window = epoch_len_s * rate
    if abs(window - round(window)) > 1e-9 or round(window) < 1:
        raise ConfigError(
            f"epoch length {epoch_len_s} s at {rate} Hz is {window} samples; "
            "must be a positive whole number"
        )
    return int(round(window))


def _overlaps(starts: np.ndarray, duration_s: float, intervals) -> np.ndarray:
    """Per epoch: a nonzero-measure intersection of [start, start + duration)
    with any [s, e) of the (s, e) pairs in intervals."""
    s, e = np.array(intervals, dtype=np.float64).reshape(-1, 2).T
    lo = starts[:, None]
    return ((lo < e) & (s < lo + duration_s)).any(axis=1)


def _detection_labels(starts, duration_s: float, seizures) -> np.ndarray:
    """label_detection's labels for epochs at these starts."""
    ictal = [(iv.start_s, iv.end_s) for iv in seizures]
    return _overlaps(starts, duration_s, ictal).astype(np.int64)


def _prediction_labels(starts, duration_s: float, seizures, horizon_s: float):
    """label_prediction's (kept, labels) for epochs at these starts: the mask
    of epochs that overlap no seizure, and the label of each kept epoch."""
    check_params("label_prediction", {"horizon_s": horizon_s}, DOMAINS)
    kept = ~_overlaps(starts, duration_s, [(iv.start_s, iv.end_s) for iv in seizures])
    preictal = [(iv.start_s - horizon_s, iv.start_s) for iv in seizures]
    return kept, _overlaps(starts[kept], duration_s, preictal).astype(np.int64)


def label_detection(epochs: Epochs, seizures: list[SeizureInterval]) -> LabeledEpochSet:
    """Label 1 iff the epoch overlaps a seizure interval with nonzero measure.

    Intervals are half-open, so an epoch that merely touches a seizure
    boundary stays 0. No seizures means all labels 0.
    """
    labels = _detection_labels(epochs.starts, epochs.duration_s, seizures)
    return LabeledEpochSet(epochs=epochs, labels=labels, task="detection")


def label_prediction(
    epochs: Epochs,
    seizures: list[SeizureInterval],
    horizon_s: float = 300.0,
) -> LabeledEpochSet:
    """Preictal-vs-interictal labeling for seizure prediction.

    Epochs overlapping [s - horizon_s, s) before any seizure start s are
    labeled 1; epochs overlapping a seizure itself are excluded entirely;
    everything else is 0. Overlapping preictal windows from nearby seizures
    union without duplicating epochs.
    """
    kept, labels = _prediction_labels(epochs.starts, epochs.duration_s, seizures, horizon_s)
    return LabeledEpochSet(epochs=epochs.take(kept), labels=labels, task="prediction")


@dataclass(frozen=True)
class EpochPlan:
    """Which windows of one recording become epochs, and their labels,
    found from the recording's length and rates before any sample is read.
    Window i covers samples [i * window, (i + 1) * window) of every
    channel and starts at ``starts[i]`` seconds."""

    window: int  # samples per epoch
    starts: np.ndarray  # (n,) every whole window's start
    kept: np.ndarray  # (n,) bool, the windows that become epochs
    labels: np.ndarray  # (kept,) int64
    highpass_hz: float | None

    @property
    def n_kept(self) -> int:
        return len(self.labels)

    def windows(
        self, x: np.ndarray, fs: float, out: np.ndarray, first: int = 0, state: tuple | None = None
    ) -> tuple | None:
        """Write the kept epochs among windows first, first + 1, ... into
        out, a (kept among them, window) array, from x, one channel's
        samples at fs Hz from window first's start on: high-passed as
        denoise filters the whole channel, then cut into windows. A part
        window at the end of x is filtered but not kept.

        A channel may come in pieces that each start at a window's start
        (first = 0 and state = None for the first or only piece): state is
        the high-pass scan's state after the previous piece, and the state
        after x is returned (None without a filter). Pieces other than the
        whole channel follow _highpass_scan's rule on piece lengths."""
        if self.highpass_hz is not None:
            x, state = _highpass_scan(x, _highpass_alpha(self.highpass_hz, fs), state)
        n = len(x) // self.window
        kept = self.kept[first : first + n]
        np.compress(kept, x[: n * self.window].reshape(n, self.window), axis=0, out=out)
        return state


def plan_epochs(
    n_samples: int,
    rates,
    seizures: list[SeizureInterval],
    task: str = "detection",
    *,
    epoch_len_s: float = 2.0,
    horizon_s: float = 300.0,
    highpass_hz: float | None = None,
) -> EpochPlan:
    """The EpochPlan of a recording whose channels hold n_samples samples
    each at ``rates[c]`` Hz: the epochs and labels that
    ``label_<task>(slice_epochs(denoise(r, highpass_hz), epoch_len_s), seizures)``
    gives. Raises the same ConfigError and DataError as that path."""
    check_params("ingest", {"epoch_len_s": epoch_len_s, "highpass_hz": highpass_hz}, DOMAINS)
    window = _window_len(rates, epoch_len_s) if len(rates) else 0
    starts = np.arange(n_samples // window if window else 0) * float(epoch_len_s)
    if task == "prediction":
        kept, labels = _prediction_labels(starts, epoch_len_s, seizures, horizon_s)
    else:
        kept, labels = np.ones(len(starts), dtype=bool), _detection_labels(starts, epoch_len_s, seizures)
    return EpochPlan(window, starts, kept, labels, highpass_hz)


@dataclass(frozen=True)
class Windows:
    """Sequence windows held as row indices: window i is the (T, d) array
    ``rows[idx[i]]``. A window costs T integers instead of T copied rows,
    and indexing (a mask or index array) selects windows without copying
    any row."""

    rows: np.ndarray  # (n_rows, d)
    idx: np.ndarray  # (n_windows, T) integer

    def __len__(self) -> int:
        return len(self.idx)

    def __getitem__(self, key) -> "Windows":
        return Windows(self.rows, self.idx[key])

    @property
    def shape(self) -> tuple[int, int, int]:
        """(n_windows, T, d), the shape of the windows as one array."""
        return (*self.idx.shape, self.rows.shape[1])


@dataclass(frozen=True)
class SequenceDataset:
    """Model inputs, each with its label and the identity of its row.

    ``inputs`` is what a model reads: from build_sequences, a Windows whose
    window i is T consecutive feature rows from one file; for a row model,
    the feature rows themselves. ``y[i]`` is the label of input i (of a
    window's last epoch), and the metadata arrays describe that row.
    """

    inputs: "Windows | np.ndarray"
    y: np.ndarray  # (n_inputs,)
    patients: np.ndarray
    files: np.ndarray
    starts: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    @property
    def X(self) -> np.ndarray:
        """The inputs as one array; windows are copied out as (n_windows, T, d)."""
        w = self.inputs
        return w.rows[w.idx] if isinstance(w, Windows) else w


def build_sequences(
    features: "FeatureMatrix", labels: np.ndarray, T: int
) -> SequenceDataset:
    """Every window of T epochs of one file that are consecutive in time.

    A file is a (patient, file) pair whose rows, interleaved with others or
    not, must be strictly increasing in start time (else DataError). The
    epoch length is the smallest positive start step within any file; a
    step off it by more than a relative 1e-6 is a gap. No window spans a gap
    or a file boundary. Windows come file by file in order of first
    appearance, then in time order; each is labeled as its last epoch. They
    are row indices into ``features.values``, which is not copied.
    """
    check_params("build_sequences", {"T": T}, {"T": SEQUENCE_LENGTH})
    labels = np.asarray(labels)
    if len(labels) != features.n_rows:
        raise DataError(f"{len(labels)} labels for {features.n_rows} feature rows")

    # Number each file by its first row, then order the rows file by file.
    codes = [np.unique(c, return_inverse=True)[1] for c in (features.patients, features.files)]
    _, first, key = np.unique(np.column_stack(codes), axis=0, return_index=True, return_inverse=True)
    file_num = np.argsort(np.argsort(first))[key.ravel()]
    order = np.argsort(file_num, kind="stable")

    same_file = np.diff(file_num[order]) == 0
    step = np.diff(features.starts[order])
    bad = order[1:][same_file & ~(step > 0)]
    if bad.size:
        raise DataError(
            f"file {features.files[bad[0]]!r} of patient {features.patients[bad[0]]!r}: start "
            f"{features.starts[bad[0]]} does not follow the file's previous start"
        )
    epoch_len = step[same_file].min(initial=np.inf)
    # Starts written as i * epoch_len_s miss exact multiples by a few ulps,
    # and a real gap is at least one epoch.
    joined = same_file & (np.abs(step - epoch_len) <= 1e-6 * epoch_len)
    segment = np.cumsum(np.concatenate(([True], ~joined)))[: len(order)]

    # A window stays in one segment iff its first and last rows do.
    first_pos = np.flatnonzero(segment[: max(len(order) - T + 1, 0)] == segment[T - 1 :])
    idx = order[first_pos[:, None] + np.arange(T)]
    last = idx[:, -1]
    return SequenceDataset(
        inputs=Windows(features.values, idx),
        y=labels[last].astype(np.int64),
        patients=features.patients[last].astype(object),
        files=features.files[last].astype(object),
        starts=features.starts[last].astype(np.float64),
    )
