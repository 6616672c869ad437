"""EDF (European Data Format) reading and writing, plus seizure summary parsing.

The binary layout handled here is plain EDF: a fixed 256-byte header, one
256-byte header block per signal (each field stored contiguously across all
signals), then data records of interleaved 2-byte little-endian two's
complement samples. EDF+ annotation channels and discontinuous recordings are
out of scope; seizure annotations come from the sidecar summary text files
that ship with CHB-MIT-style datasets.
"""

from __future__ import annotations

import datetime
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError

# (name, width) of the fixed header, in file order.
_HEADER_FIELDS = (
    ("version", 8),
    ("patient_id", 80),
    ("recording_id", 80),
    ("start_date", 8),
    ("start_time", 8),
    ("header_bytes", 8),
    ("reserved", 44),
    ("num_records", 8),
    ("record_duration", 8),
    ("num_signals", 4),
)

# (name, width) of the per-signal header arrays, in file order.
_SIGNAL_FIELDS = (
    ("label", 16),
    ("transducer", 80),
    ("physical_dimension", 8),
    ("physical_min", 8),
    ("physical_max", 8),
    ("digital_min", 8),
    ("digital_max", 8),
    ("prefiltering", 80),
    ("samples_per_record", 8),
    ("reserved", 32),
)


class EdfParseError(DataError):
    """Malformed or truncated EDF bytes. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EdfCalibrationError(DataError):
    """A channel's digital or physical calibration range is unusable."""


class EdfRangeError(DataError):
    """A physical sample falls outside its channel's declared range."""


class SummaryError(DataError):
    """A seizure summary file violates its declared structure."""


@dataclass(frozen=True)
class ChannelMeta:
    """Per-signal header metadata, as stored in the EDF signal header block."""

    label: str
    transducer: str
    physical_dimension: str
    physical_min: float
    physical_max: float
    digital_min: int
    digital_max: int
    prefiltering: str
    samples_per_record: int

    def __post_init__(self):
        if self.digital_min >= self.digital_max:
            raise EdfCalibrationError(
                f"channel {self.label!r}: digital_min {self.digital_min} >= "
                f"digital_max {self.digital_max}"
            )
        if self.physical_min == self.physical_max:
            raise EdfCalibrationError(
                f"channel {self.label!r}: physical_min equals physical_max "
                f"({self.physical_min})"
            )
        if self.samples_per_record < 1:
            raise EdfCalibrationError(
                f"channel {self.label!r}: samples_per_record must be >= 1"
            )

    @property
    def gain(self) -> float:
        """Physical units per digital step."""
        return (self.physical_max - self.physical_min) / (
            self.digital_max - self.digital_min
        )


@dataclass(frozen=True)
class Recording:
    """One parsed EDF file: physical-unit signals plus header metadata.

    ``signals[c]`` holds channel c's full sample sequence in physical units;
    its length is ``num_records * channels[c].samples_per_record``.
    """

    patient_id: str
    start_datetime: datetime.datetime
    record_duration_s: float
    num_records: int
    channels: tuple[ChannelMeta, ...]
    signals: tuple[np.ndarray, ...]
    recording_id: str = ""

    def __post_init__(self):
        if not 0 < self.record_duration_s < math.inf:
            raise ValueError(
                f"record_duration_s must be a finite number > 0, got {self.record_duration_s}"
            )
        if len(self.channels) != len(self.signals):
            raise ValueError("channels and signals length mismatch")
        for meta, sig in zip(self.channels, self.signals):
            expected = self.num_records * meta.samples_per_record
            if len(sig) != expected:
                raise ValueError(
                    f"channel {meta.label!r}: {len(sig)} samples, expected {expected}"
                )

    @property
    def sample_rate_hz(self) -> tuple[float, ...]:
        """Per-channel rate derived from samples_per_record / record duration."""
        return tuple(
            c.samples_per_record / self.record_duration_s for c in self.channels
        )

    @property
    def duration_s(self) -> float:
        return self.num_records * self.record_duration_s


@dataclass(frozen=True)
class SeizureInterval:
    """Half-open annotated seizure interval [start_s, end_s) within one file."""

    file_name: str
    start_s: float
    end_s: float

    def __post_init__(self):
        if self.end_s <= self.start_s:
            raise SummaryError(
                f"{self.file_name}: seizure end {self.end_s} <= start {self.start_s}"
            )


def _decode_text(raw: bytes, offset: int, name: str) -> str:
    """Decode a fixed-width header field; EDF mandates printable ASCII."""
    for b in raw:
        if b < 32 or b > 126:
            raise EdfParseError(
                f"field {name!r} contains non-ASCII byte 0x{b:02x}", offset
            )
    return raw.decode("ascii").rstrip(" ")


def _decode_int(raw: bytes, offset: int, name: str) -> int:
    text = _decode_text(raw, offset, name).strip()
    try:
        return int(text)
    except ValueError:
        raise EdfParseError(f"field {name!r} is not an integer: {text!r}", offset) from None


def _decode_float(raw: bytes, offset: int, name: str) -> float:
    text = _decode_text(raw, offset, name).strip()
    try:
        return float(text)
    except ValueError:
        raise EdfParseError(f"field {name!r} is not numeric: {text!r}", offset) from None


def _parse_start_datetime(date_text: str, time_text: str, offset: int) -> datetime.datetime:
    m = re.fullmatch(r"(\d{2})\.(\d{2})\.(\d{2})", date_text)
    t = re.fullmatch(r"(\d{2})\.(\d{2})\.(\d{2})", time_text)
    if m is None or t is None:
        raise EdfParseError(
            f"start date/time not in dd.mm.yy / hh.mm.ss form: {date_text!r} {time_text!r}",
            offset,
        )
    day, month, yy = (int(g) for g in m.groups())
    # EDF two-digit year convention: 85-99 -> 1985-1999, 00-84 -> 2000-2084.
    year = 1900 + yy if yy >= 85 else 2000 + yy
    hour, minute, second = (int(g) for g in t.groups())
    try:
        return datetime.datetime(year, month, day, hour, minute, second)
    except ValueError as exc:
        raise EdfParseError(f"invalid start date/time: {exc}", offset) from None


def parse_edf(raw: bytes) -> Recording:
    """Parse EDF bytes into a Recording with physical-unit signals.

    Digital samples are converted per channel via the affine calibration
    physical = physical_min + (digital - digital_min) * gain, so digital_min
    maps to physical_min and digital_max to physical_max exactly. Header text
    fields come back with trailing spaces removed.

    Raises EdfParseError (with byte offset) on truncation, malformed
    fields or a record duration that is not a finite number > 0, and
    EdfCalibrationError when a channel declares an unusable digital range.
    """
    if len(raw) < 256:
        raise EdfParseError(f"file too short for EDF header: {len(raw)} bytes", len(raw))

    fields: dict[str, bytes] = {}
    pos = 0
    for name, width in _HEADER_FIELDS:
        fields[name] = raw[pos : pos + width]
        pos += width

    patient_id = _decode_text(fields["patient_id"], 8, "patient_id")
    recording_id = _decode_text(fields["recording_id"], 88, "recording_id")
    start = _parse_start_datetime(
        _decode_text(fields["start_date"], 168, "start_date"),
        _decode_text(fields["start_time"], 176, "start_time"),
        168,
    )
    header_bytes = _decode_int(fields["header_bytes"], 184, "header_bytes")
    num_records = _decode_int(fields["num_records"], 236, "num_records")
    record_duration = _decode_float(fields["record_duration"], 244, "record_duration")
    num_signals = _decode_int(fields["num_signals"], 252, "num_signals")

    if not 0 < record_duration < math.inf:
        raise EdfParseError(
            f"field 'record_duration' must be a finite number > 0, got {record_duration}",
            244,
        )

    if num_signals < 0:
        raise EdfParseError(f"negative signal count {num_signals}", 252)
    expected_header = 256 + num_signals * 256
    if header_bytes != expected_header:
        raise EdfParseError(
            f"field 'header_bytes' is {header_bytes}, expected {expected_header}", 184
        )
    if len(raw) < expected_header:
        raise EdfParseError(
            f"truncated signal headers: have {len(raw)} bytes, need {expected_header}",
            len(raw),
        )

    # Signal headers store each field contiguously across all signals.
    sig_values: dict[str, list] = {}
    pos = 256
    for name, width in _SIGNAL_FIELDS:
        column = []
        for i in range(num_signals):
            chunk = raw[pos : pos + width]
            qualified = f"{name}[{i}]"
            if name in ("physical_min", "physical_max"):
                column.append(_decode_float(chunk, pos, qualified))
            elif name in ("digital_min", "digital_max", "samples_per_record"):
                column.append(_decode_int(chunk, pos, qualified))
            else:
                column.append(_decode_text(chunk, pos, qualified))
            pos += width
        sig_values[name] = column

    channels = tuple(
        ChannelMeta(
            label=sig_values["label"][i],
            transducer=sig_values["transducer"][i],
            physical_dimension=sig_values["physical_dimension"][i],
            physical_min=sig_values["physical_min"][i],
            physical_max=sig_values["physical_max"][i],
            digital_min=sig_values["digital_min"][i],
            digital_max=sig_values["digital_max"][i],
            prefiltering=sig_values["prefiltering"][i],
            samples_per_record=sig_values["samples_per_record"][i],
        )
        for i in range(num_signals)
    )

    samples_per_record = sum(c.samples_per_record for c in channels)
    record_bytes = samples_per_record * 2
    data_len = len(raw) - expected_header

    if num_records == -1:
        # Unknown on input; recover the count when the payload tiles evenly.
        if record_bytes == 0:
            num_records = 0
        elif data_len % record_bytes == 0:
            num_records = data_len // record_bytes
        else:
            raise EdfParseError(
                "num_records is -1 and data length does not tile into records",
                expected_header,
            )
    if num_records < 0:
        raise EdfParseError(f"negative record count {num_records}", 236)
    if data_len < num_records * record_bytes:
        raise EdfParseError(
            f"truncated data records: have {data_len} bytes, "
            f"need {num_records * record_bytes}",
            expected_header + data_len,
        )

    signals: list[np.ndarray] = []
    if num_records > 0 and num_signals > 0:
        # A view of the data records in raw; slicing raw would copy them.
        flat = np.frombuffer(
            raw, dtype="<i2", count=num_records * samples_per_record, offset=expected_header
        ).reshape(num_records, samples_per_record)
        col = 0
        for meta in channels:
            digital = flat[:, col : col + meta.samples_per_record].reshape(-1)
            col += meta.samples_per_record
            physical = meta.physical_min + (
                digital.astype(np.float64) - meta.digital_min
            ) * meta.gain
            signals.append(physical)
    else:
        signals = [np.zeros(0) for _ in channels]

    return Recording(
        patient_id=patient_id,
        start_datetime=start,
        record_duration_s=record_duration,
        num_records=num_records,
        channels=channels,
        signals=tuple(signals),
        recording_id=recording_id,
    )


def _encode_text(value: str, width: int, name: str) -> bytes:
    for ch in value:
        if ord(ch) < 32 or ord(ch) > 126:
            raise ValueError(f"field {name!r} contains non-ASCII character {ch!r}")
    if len(value) > width:
        raise ValueError(f"field {name!r} value {value!r} exceeds {width} characters")
    return value.ljust(width).encode("ascii")


def _encode_number(value: float | int, width: int, name: str) -> bytes:
    """Render a numeric header field losslessly within its fixed width."""
    if isinstance(value, int) or float(value).is_integer():
        text = str(int(value))
    else:
        text = repr(float(value))
        if len(text) > width:
            # Shortest general format that still parses back to the same float.
            for prec in range(width, 0, -1):
                candidate = f"{value:.{prec}g}"
                if len(candidate) <= width and float(candidate) == value:
                    text = candidate
                    break
    if len(text) > width:
        raise ValueError(
            f"field {name!r} value {value!r} does not fit in {width} ASCII bytes"
        )
    if float(text) != float(value):
        raise ValueError(f"field {name!r} value {value!r} cannot be encoded losslessly")
    return text.ljust(width).encode("ascii")


def write_edf(recording: Recording) -> bytes:
    """Serialize a Recording to EDF bytes.

    Physical samples are quantized to the nearest digital integer; every
    sample must already lie within its channel's declared physical range,
    otherwise EdfRangeError names the channel and sample index. The output
    is bit-exact EDF: parse_edf(write_edf(r)) reproduces r's header fields
    exactly and its samples to within one digital quantization step.
    """
    ns = len(recording.channels)
    start = recording.start_datetime
    if not 1985 <= start.year <= 2084:
        raise ValueError(f"start year {start.year} outside the EDF 1985-2084 window")

    head = b"".join(
        (
            _encode_text("0", 8, "version"),
            _encode_text(recording.patient_id, 80, "patient_id"),
            _encode_text(recording.recording_id, 80, "recording_id"),
            _encode_text(f"{start.day:02d}.{start.month:02d}.{start.year % 100:02d}", 8, "start_date"),
            _encode_text(f"{start.hour:02d}.{start.minute:02d}.{start.second:02d}", 8, "start_time"),
            _encode_number(256 + ns * 256, 8, "header_bytes"),
            _encode_text("", 44, "reserved"),
            _encode_number(recording.num_records, 8, "num_records"),
            _encode_number(recording.record_duration_s, 8, "record_duration"),
            _encode_number(ns, 4, "num_signals"),
        )
    )

    sig_head = []
    for name, width in _SIGNAL_FIELDS:
        for i, c in enumerate(recording.channels):
            qualified = f"{name}[{i}]"
            if name == "reserved":
                sig_head.append(_encode_text("", width, qualified))
            else:
                value = getattr(c, name)
                if isinstance(value, str):
                    sig_head.append(_encode_text(value, width, qualified))
                else:
                    sig_head.append(_encode_number(value, width, qualified))

    digital_columns = []
    for i, (meta, physical) in enumerate(zip(recording.channels, recording.signals)):
        low = min(meta.physical_min, meta.physical_max)
        high = max(meta.physical_min, meta.physical_max)
        bad = np.nonzero((physical < low) | (physical > high))[0]
        if bad.size:
            raise EdfRangeError(
                f"channel {meta.label!r} (index {i}): sample {int(bad[0])} value "
                f"{physical[bad[0]]} outside [{meta.physical_min}, {meta.physical_max}]"
            )
        digital = np.rint((physical - meta.physical_min) / meta.gain) + meta.digital_min
        digital = np.clip(digital, meta.digital_min, meta.digital_max)
        digital_columns.append(
            digital.astype("<i2").reshape(recording.num_records, meta.samples_per_record)
        )

    if recording.num_records > 0 and ns > 0:
        records = np.concatenate(digital_columns, axis=1)
        payload = records.astype("<i2").tobytes()
    else:
        payload = b""

    return head + b"".join(sig_head) + payload


_FILE_LINE = re.compile(r"^File Name:\s*(\S+)\s*$")
_COUNT_LINE = re.compile(r"^Number of Seizures in File:\s*(\d+)\s*$")
_START_LINE = re.compile(r"^Seizure(?:\s+\d+)?\s+Start Time:\s*([0-9.]+)\s*seconds?\s*$")
_END_LINE = re.compile(r"^Seizure(?:\s+\d+)?\s+End Time:\s*([0-9.]+)\s*seconds?\s*$")


def _summary_number(text: str, block: str) -> float:
    """A summary count or time as a finite float, or SummaryError naming its file block."""
    value = float(text) if re.fullmatch(r"\d+\.?\d*|\.\d+", text) else math.nan
    if not math.isfinite(value):
        raise SummaryError(f"{block}: {text!r} is not a finite number")
    return value


def parse_seizure_summary(text: str) -> dict[str, list[SeizureInterval]]:
    """Parse a CHB-MIT-style seizure summary into per-file interval lists.

    Recognizes ``File Name:``, ``Number of Seizures in File:`` and both the
    numbered (``Seizure 1 Start Time:``) and unnumbered (``Seizure Start
    Time:``) time line variants; every other line (channel lists, sampling
    banner, blank lines) is ignored. Files appear in document order; a file
    declaring zero seizures maps to an empty list.

    Raises SummaryError when a count or time is not a finite number, when a
    file's declared count disagrees with the intervals found, when an interval
    ends at or before its start, or when seizure lines appear outside any file block.
    """
    result: dict[str, list[SeizureInterval]] = {}
    current: str | None = None
    declared: dict[str, int] = {}
    pending_start: float | None = None

    def close_block():
        if current is None:
            return
        if pending_start is not None:
            raise SummaryError(f"{current}: seizure start time without matching end time")
        found = len(result[current])
        if found != declared[current]:
            raise SummaryError(
                f"{current}: declares {declared[current]} seizures but lists {found}"
            )

    for line in text.splitlines():
        line = line.strip()
        m = _FILE_LINE.match(line)
        if m:
            close_block()
            current = m.group(1)
            result[current] = []
            declared[current] = 0
            pending_start = None
            continue
        m = _COUNT_LINE.match(line)
        if m:
            if current is None:
                raise SummaryError("seizure count line appears before any File Name")
            declared[current] = int(_summary_number(m.group(1), current))
            continue
        m = _START_LINE.match(line)
        if m:
            if current is None:
                raise SummaryError("seizure start line appears before any File Name")
            if pending_start is not None:
                raise SummaryError(f"{current}: two start times without an end time")
            pending_start = _summary_number(m.group(1), current)
            continue
        m = _END_LINE.match(line)
        if m:
            if current is None:
                raise SummaryError("seizure end line appears before any File Name")
            if pending_start is None:
                raise SummaryError(f"{current}: end time without a start time")
            result[current].append(
                SeizureInterval(current, pending_start, _summary_number(m.group(1), current))
            )
            pending_start = None
            continue
        # Anything else (channel lists, banners, blank lines) is ignored.

    close_block()
    return result
