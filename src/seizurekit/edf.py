"""EDF (European Data Format) reading and writing, plus seizure summary parsing.

The binary layout handled here is plain EDF: a fixed 256-byte header, one
256-byte header block per signal (each field stored contiguously across all
signals), then data records of interleaved 2-byte little-endian two's
complement samples. EDF+ annotation channels and discontinuous recordings are
out of scope; seizure annotations come from the sidecar summary text files
that ship with CHB-MIT-style datasets.
"""

from __future__ import annotations

import contextlib
import datetime
import math
import os
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

_HEADER_BYTES = sum(width for _, width in _HEADER_FIELDS)  # 256
_SIGNAL_BYTES = sum(width for _, width in _SIGNAL_FIELDS)  # 256 per signal

# The type each numeric field of both tables is read as; every other field is text.
_KINDS = dict(
    header_bytes=int, num_records=int, record_duration=float, num_signals=int, physical_min=float,
    physical_max=float, digital_min=int, digital_max=int, samples_per_record=int,
)

_NOT_PRINTABLE = re.compile(rb"[^\x20-\x7e]")


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
        if not math.isfinite(self.gain) or self.gain == 0:  # NaN or constant samples
            raise EdfCalibrationError(
                f"channel {self.label!r}: physical range [{self.physical_min}, "
                f"{self.physical_max}] gives gain {self.gain}, not a finite nonzero number"
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


def _read_field(raw: bytes, offset: int, width: int, name: str):
    """A header field as text without trailing spaces, or as the int or float
    _KINDS gives its name; EDF mandates printable ASCII."""
    chunk = raw[offset : offset + width]
    if bad := _NOT_PRINTABLE.search(chunk):
        raise EdfParseError(f"field {name!r} contains non-ASCII byte 0x{bad[0][0]:02x}", offset)
    text = chunk.decode("ascii").rstrip(" ")
    kind = _KINDS.get(name.partition("[")[0], str)
    if kind is str:
        return text
    text = text.strip()
    try:
        if "_" in text:  # int() and float() read digit separators, which EDF has none of
            raise ValueError
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "numeric"
        raise EdfParseError(f"field {name!r} is not {what}: {text!r}", offset) from None


def _parse_start_datetime(date_text: str, time_text: str, offset: int) -> datetime.datetime:
    m, t = (re.fullmatch(r"(\d{2})\.(\d{2})\.(\d{2})", s) for s in (date_text, time_text))
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


@dataclass(frozen=True)
class EdfHeader:
    """What an EDF file's header says, checked against the file's size:
    everything parse_edf knows before it reads a sample."""

    patient_id: str
    recording_id: str
    start_datetime: datetime.datetime
    record_duration_s: float
    num_records: int
    channels: tuple[ChannelMeta, ...]
    data_offset: int  # bytes before the first data record

    @property
    def sample_rate_hz(self) -> tuple[float, ...]:
        return tuple(c.samples_per_record / self.record_duration_s for c in self.channels)

    @property
    def record_bytes(self) -> int:
        """Bytes of one data record: every channel's samples, two bytes each."""
        return 2 * sum(c.samples_per_record for c in self.channels)

    def signal(self, records, c: int, out: np.ndarray | None = None) -> np.ndarray:
        """Channel c's samples in physical units over a run of data
        records, from records, their bytes (any bytes-like object holding
        a whole number of records), written into out (a contiguous float64
        array of the channel's samples in those records, or a new one if
        None) and returned.

        physical = physical_min + (digital - digital_min) * gain, so
        digital_min maps to physical_min and digital_max to physical_max
        exactly.
        """
        widths = [m.samples_per_record for m in self.channels]
        meta, col, width, total = self.channels[c], sum(widths[:c]), widths[c], sum(widths)
        n_records = len(records) // self.record_bytes
        # A view of the records' bytes; slicing them would copy.
        digital = np.frombuffer(records, dtype="<i2", count=n_records * total)
        if out is None:
            out = np.empty(n_records * width)
        out.reshape(n_records, width)[...] = digital.reshape(n_records, total)[:, col : col + width]
        out -= meta.digital_min
        out *= meta.gain
        out += meta.physical_min
        return out


def parse_edf_header(raw: bytes, size: int) -> EdfHeader:
    """The header of an EDF file of size bytes whose first bytes are raw;
    raw need hold no more than the fixed and signal headers.

    Raises EdfParseError (with byte offset) on truncation, malformed
    fields or a record duration that is not a finite number > 0, and
    EdfCalibrationError when a channel declares an unusable digital range
    or a gain that is not a finite nonzero number.
    """
    if size < _HEADER_BYTES:
        raise EdfParseError(f"file too short for EDF header: {size} bytes", size)

    head, at, pos = {}, {}, 0  # fixed-header values and byte offsets by name
    for name, width in _HEADER_FIELDS:
        at[name] = pos
        head[name] = _read_field(raw, pos, width, name)
        if name == "start_time":  # the date is checked before any later field
            start = _parse_start_datetime(head["start_date"], head["start_time"], at["start_date"])
        pos += width

    record_duration = head["record_duration"]
    if not 0 < record_duration < math.inf:
        raise EdfParseError(
            f"field 'record_duration' must be a finite number > 0, got {record_duration}",
            at["record_duration"],
        )

    num_signals = head["num_signals"]
    if num_signals < 0:
        raise EdfParseError(f"negative signal count {num_signals}", at["num_signals"])
    expected_header = _HEADER_BYTES + num_signals * _SIGNAL_BYTES
    if head["header_bytes"] != expected_header:
        raise EdfParseError(
            f"field 'header_bytes' is {head['header_bytes']}, expected {expected_header}",
            at["header_bytes"],
        )
    if size < expected_header:
        raise EdfParseError(
            f"truncated signal headers: have {size} bytes, need {expected_header}", size
        )

    # Signal headers store each field contiguously across all signals.
    columns: dict[str, list] = {}
    for name, width in _SIGNAL_FIELDS:
        columns[name] = [
            _read_field(raw, pos + i * width, width, f"{name}[{i}]") for i in range(num_signals)
        ]
        pos += num_signals * width
    del columns["reserved"]
    channels = tuple(ChannelMeta(**dict(zip(columns, row))) for row in zip(*columns.values()))

    record_bytes = sum(c.samples_per_record for c in channels) * 2
    data_len = size - expected_header

    num_records = head["num_records"]
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
        raise EdfParseError(f"negative record count {num_records}", at["num_records"])
    if data_len < num_records * record_bytes:
        raise EdfParseError(
            f"truncated data records: have {data_len} bytes, "
            f"need {num_records * record_bytes}",
            expected_header + data_len,
        )
    return EdfHeader(
        patient_id=head["patient_id"],
        recording_id=head["recording_id"],
        start_datetime=start,
        record_duration_s=record_duration,
        num_records=num_records,
        channels=channels,
        data_offset=expected_header,
    )


def read_edf_header(path) -> EdfHeader:
    """The header of the EDF file at path, checked as parse_edf checks it,
    from the header bytes and the file's size without reading a sample."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER_BYTES)
        # The signal count, to read the signal headers by; parse_edf_header
        # checks the field again and reports it with its offset.
        with contextlib.suppress(ValueError):
            raw += fh.read(max(0, int(raw[_HEADER_BYTES - 4 :])) * _SIGNAL_BYTES)
        return parse_edf_header(raw, os.fstat(fh.fileno()).st_size)


def parse_edf(raw: bytes) -> Recording:
    """Parse EDF bytes into a Recording with physical-unit signals.

    The header is checked by parse_edf_header, which raises what this
    raises, and each channel is converted to physical units by
    EdfHeader.signal. Header text fields come back with trailing spaces
    removed.
    """
    h = parse_edf_header(raw, len(raw))
    records = memoryview(raw)[h.data_offset : h.data_offset + h.num_records * h.record_bytes]
    return Recording(
        patient_id=h.patient_id,
        start_datetime=h.start_datetime,
        record_duration_s=h.record_duration_s,
        num_records=h.num_records,
        channels=h.channels,
        signals=tuple(h.signal(records, c) for c in range(len(h.channels))),
        recording_id=h.recording_id,
    )


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


def _encode_field(value, width: int, name: str) -> bytes:
    """A header field's bytes: printable ASCII text, or a number if _KINDS names one."""
    if name.partition("[")[0] in _KINDS:
        return _encode_number(value, width, name)
    if bad := re.search(r"[^\x20-\x7e]", value):
        raise ValueError(f"field {name!r} contains non-ASCII character {bad[0]!r}")
    if len(value) > width:
        raise ValueError(f"field {name!r} value {value!r} exceeds {width} characters")
    return value.ljust(width).encode("ascii")


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

    values = {
        "version": "0",
        "patient_id": recording.patient_id,
        "recording_id": recording.recording_id,
        "start_date": f"{start.day:02d}.{start.month:02d}.{start.year % 100:02d}",
        "start_time": f"{start.hour:02d}.{start.minute:02d}.{start.second:02d}",
        "header_bytes": _HEADER_BYTES + ns * _SIGNAL_BYTES,
        "reserved": "",
        "num_records": recording.num_records,
        "record_duration": recording.record_duration_s,
        "num_signals": ns,
    }
    head = [_encode_field(values[name], width, name) for name, width in _HEADER_FIELDS]
    head += [  # ChannelMeta holds every signal field but the blank reserved one
        _encode_field(getattr(c, name, ""), width, f"{name}[{i}]")
        for name, width in _SIGNAL_FIELDS
        for i, c in enumerate(recording.channels)
    ]

    digital_columns = []
    for i, (meta, physical) in enumerate(zip(recording.channels, recording.signals)):
        low = min(meta.physical_min, meta.physical_max)
        high = max(meta.physical_min, meta.physical_max)
        bad = np.nonzero(~((physical >= low) & (physical <= high)))[0]  # NaN too
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

    return b"".join(head) + payload


# One summary line the parser reads; the group that matched says which kind.
_SUMMARY_LINE = re.compile(
    r"(?:File Name:\s*(?P<file>\S+)"
    r"|Number of Seizures in File:\s*(?P<count>\d+)"
    r"|Seizure(?:\s+\d+)?\s+(?P<edge>Start|End) Time:\s*(?P<time>[0-9.]+)\s*seconds?)\s*"
)


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
        m = _SUMMARY_LINE.fullmatch(line.strip())
        if m is None:
            continue  # channel lists, banners, blank lines
        if m["file"]:
            close_block()
            current = m["file"]
            result[current] = []
            declared[current] = 0
            pending_start = None
            continue
        if current is None:
            what = "count" if m["count"] else m["edge"].lower()
            raise SummaryError(f"seizure {what} line appears before any File Name")
        if m["count"]:
            declared[current] = int(_summary_number(m["count"], current))
        elif m["edge"] == "Start":
            if pending_start is not None:
                raise SummaryError(f"{current}: two start times without an end time")
            pending_start = _summary_number(m["time"], current)
        else:
            if pending_start is None:
                raise SummaryError(f"{current}: end time without a start time")
            result[current].append(
                SeizureInterval(current, pending_start, _summary_number(m["time"], current))
            )
            pending_start = None

    close_block()
    return result
