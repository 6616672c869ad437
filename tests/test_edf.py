"""EDF binary round-trips, header validation, and summary parsing."""

import datetime
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seizurekit import edf
from seizurekit import (
    ChannelMeta,
    EdfCalibrationError,
    EdfParseError,
    EdfRangeError,
    DataError,
    Recording,
    SummaryError,
    parse_edf,
    parse_seizure_summary,
    write_edf,
)


def make_channel(label="EEG F3", spr=4, pmin=-100.0, pmax=100.0):
    return ChannelMeta(
        label=label,
        transducer="AgAgCl electrode",
        physical_dimension="uV",
        physical_min=pmin,
        physical_max=pmax,
        digital_min=-32768,
        digital_max=32767,
        prefiltering="HP:0.1Hz",
        samples_per_record=spr,
    )


def make_recording(channels, signals, num_records):
    return Recording(
        patient_id="chb01",
        start_datetime=datetime.datetime(2002, 3, 4, 5, 6, 7),
        record_duration_s=1.0,
        num_records=num_records,
        channels=tuple(channels),
        signals=tuple(signals),
        recording_id="Startdate 04-MAR-2002",
    )


def field_start(n_signals, name, signal=None):
    """The byte offset of a fixed-header field (signal None) or of one
    signal's field, worked out from the (name, width) tables."""
    pos = 0
    for field, width in edf._HEADER_FIELDS:
        if signal is None and field == name:
            return pos
        pos += width
    for field, width in edf._SIGNAL_FIELDS:
        if field == name:
            return pos + signal * width
        pos += n_signals * width
    raise KeyError(name)


def two_channel_edf() -> bytearray:
    channels = [make_channel("C0", spr=2), make_channel("C1", spr=2)]
    return bytearray(write_edf(make_recording(channels, [np.zeros(2), np.zeros(2)], 1)))


def test_file_layout_sizes():
    ch = make_channel(spr=4)
    rec = make_recording([ch], [np.zeros(8)], 2)
    raw = write_edf(rec)
    # 256 fixed header + 256 per signal + 2 records x 4 samples x 2 bytes
    assert len(raw) == 256 + 256 + 2 * 4 * 2
    assert raw[:8] == b"0" + b" " * 7
    assert raw[168:176] == b"04.03.02"
    assert raw[176:184] == b"05.06.07"


def test_calibration_maps_digital_zero():
    # gain = 200 / 65535; digital 0 sits 32768 steps above -100
    ch = make_channel()
    value = ch.physical_min + (0 - ch.digital_min) * ch.gain
    assert round(value, 7) == 0.0015259


def test_calibration_endpoints_exact():
    ch = make_channel()
    assert ch.physical_min + (ch.digital_min - ch.digital_min) * ch.gain == -100.0
    assert ch.physical_min + (ch.digital_max - ch.digital_min) * ch.gain == 100.0


def test_round_trip_preserves_headers_and_samples():
    rng = np.random.default_rng(42)
    ch1 = make_channel("EEG F3", spr=8)
    ch2 = make_channel("EEG C4", spr=4, pmin=-500.0, pmax=500.0)
    sig1 = rng.uniform(-99, 99, size=8 * 5)
    sig2 = rng.uniform(-499, 499, size=4 * 5)
    rec = make_recording([ch1, ch2], [sig1, sig2], 5)
    back = parse_edf(write_edf(rec))

    assert back.patient_id == rec.patient_id
    assert back.recording_id == rec.recording_id
    assert back.start_datetime == rec.start_datetime
    assert back.num_records == 5
    assert back.record_duration_s == 1.0
    for orig, parsed in zip(rec.channels, back.channels):
        assert parsed == orig
    for meta, orig, parsed in zip(rec.channels, rec.signals, back.signals):
        assert np.abs(parsed - orig).max() <= meta.gain / 2 + 1e-12


def test_round_trip_many_random_recordings():
    rng = np.random.default_rng(7)
    for trial in range(30):
        n_sig = int(rng.integers(1, 4))
        spr = int(rng.integers(2, 17))
        n_rec = int(rng.integers(1, 6))
        channels = []
        signals = []
        for i in range(n_sig):
            lo = float(rng.integers(-500, -10))
            hi = float(rng.integers(10, 500))
            channels.append(make_channel(f"CH{i}", spr=spr, pmin=lo, pmax=hi))
            signals.append(rng.uniform(lo, hi, size=spr * n_rec))
        rec = make_recording(channels, signals, n_rec)
        back = parse_edf(write_edf(rec))
        assert back.channels == rec.channels
        for meta, orig, parsed in zip(channels, signals, back.signals):
            assert np.abs(parsed - orig).max() <= meta.gain / 2 + 1e-12


def test_unknown_record_count_recovered_from_length():
    ch = make_channel(spr=4)
    rec = make_recording([ch], [np.zeros(12)], 3)
    raw = bytearray(write_edf(rec))
    raw[236:244] = b"-1".ljust(8)
    back = parse_edf(bytes(raw))
    assert back.num_records == 3


def test_unknown_record_count_with_ragged_data_rejected():
    ch = make_channel(spr=4)
    rec = make_recording([ch], [np.zeros(12)], 3)
    raw = bytearray(write_edf(rec))
    raw[236:244] = b"-1".ljust(8)
    with pytest.raises(EdfParseError):
        parse_edf(bytes(raw[:-2]))  # drop 2 bytes: no longer tiles


def test_truncated_header_rejected_with_offset():
    with pytest.raises(EdfParseError) as err:
        parse_edf(b"0" + b" " * 100)
    assert err.value.offset == 101


def test_non_ascii_header_byte_rejected():
    ch = make_channel(spr=2)
    raw = bytearray(write_edf(make_recording([ch], [np.zeros(2)], 1)))
    raw[20] = 0xFF  # inside patient_id
    with pytest.raises(EdfParseError):
        parse_edf(bytes(raw))


def test_header_bytes_mismatch_rejected():
    ch = make_channel(spr=2)
    raw = bytearray(write_edf(make_recording([ch], [np.zeros(2)], 1)))
    raw[184:192] = b"999".ljust(8)
    with pytest.raises(EdfParseError):
        parse_edf(bytes(raw))


@pytest.mark.parametrize("text", [b"0", b"-1", b"nan", b"inf"])
def test_record_duration_not_finite_positive_rejected(text):
    ch = make_channel(spr=2)
    raw = bytearray(write_edf(make_recording([ch], [np.zeros(2)], 1)))
    raw[244:252] = text.ljust(8)
    with pytest.raises(EdfParseError) as err:
        parse_edf(bytes(raw))
    assert err.value.offset == 244


_NUMERIC_HEADER = ("header_bytes", "num_records", "record_duration", "num_signals")
_NUMERIC_SIGNAL = ("physical_min", "physical_max", "digital_min", "digital_max", "samples_per_record")


@pytest.mark.parametrize(
    "name, signal",
    [*((name, None) for name in _NUMERIC_HEADER), *((n, i) for n in _NUMERIC_SIGNAL for i in (0, 1))],
)
def test_non_numeric_field_reports_its_own_offset(name, signal):
    raw = two_channel_edf()
    at = field_start(2, name, signal)
    width = dict(edf._HEADER_FIELDS if signal is None else edf._SIGNAL_FIELDS)[name]
    raw[at : at + width] = b"x1".ljust(width)
    qualified = name if signal is None else f"{name}[{signal}]"
    with pytest.raises(EdfParseError, match=re.escape(f"field {qualified!r} is not")) as err:
        parse_edf(bytes(raw))
    assert err.value.offset == at


@pytest.mark.parametrize("text", [b"0_1", b"1_00"])
@pytest.mark.parametrize(
    "name, signal",
    [*((name, None) for name in _NUMERIC_HEADER), *((n, i) for n in _NUMERIC_SIGNAL for i in (0, 1))],
)
def test_a_digit_separator_in_a_numeric_field_is_refused(name, signal, text):
    # int() and float() read 0_1 as 1 and 1_00 as 100; EDF numbers have no separators.
    raw = two_channel_edf()
    at = field_start(2, name, signal)
    width = dict(edf._HEADER_FIELDS if signal is None else edf._SIGNAL_FIELDS)[name]
    raw[at : at + width] = text.ljust(width)
    qualified = name if signal is None else f"{name}[{signal}]"
    with pytest.raises(EdfParseError, match=re.escape(f"field {qualified!r} is not")) as err:
        parse_edf(bytes(raw))
    assert err.value.offset == at


def test_a_one_record_count_spelled_with_a_separator_is_refused():
    raw = two_channel_edf()
    at = field_start(2, "num_records")
    raw[at : at + 8] = b"1".ljust(8)
    assert parse_edf(bytes(raw)).num_records == 1
    raw[at : at + 8] = b"0_1".ljust(8)
    with pytest.raises(EdfParseError, match="field 'num_records' is not an integer: '0_1'"):
        parse_edf(bytes(raw))


@pytest.mark.parametrize("name, at, byte", [("version", 0, 0xFF), ("reserved", 200, 0x00)])
def test_fixed_header_version_and_reserved_must_be_printable_ascii(name, at, byte):
    raw = two_channel_edf()
    raw[at] = byte
    with pytest.raises(EdfParseError, match=f"field '{name}' contains non-ASCII byte") as err:
        parse_edf(bytes(raw))
    assert err.value.offset == field_start(2, name) == {"version": 0, "reserved": 192}[name]


# (physical_min, physical_max) whose gain over -32768..32767 is NaN,
# infinite or zero: every sample would read as NaN or as one constant.
UNUSABLE_GAINS = [
    (b"nan", b"100"),
    (b"inf", b"100"),
    (b"-inf", b"100"),
    (b"-1e308", b"1e308"),
    (b"1e308", b"-1e308"),
    (b"5e-324", b"1e-323"),
]


def with_physical_range(raw: bytearray, signal: int, pmin: bytes, pmax: bytes) -> bytes:
    """raw, a two-channel EDF, with one signal's physical_min/max set to the given text."""
    for name, text in (("physical_min", pmin), ("physical_max", pmax)):
        at = field_start(2, name, signal)
        raw[at : at + 8] = text.ljust(8)
    return bytes(raw)


@pytest.mark.parametrize("pmin, pmax", UNUSABLE_GAINS)
def test_unusable_gain_rejected(pmin, pmax):
    with pytest.raises(EdfCalibrationError, match="'C1'.*not a finite nonzero number"):
        parse_edf(with_physical_range(two_channel_edf(), 1, pmin, pmax))


@pytest.mark.parametrize("pmin, pmax", [(math.nan, 1.0), (-math.inf, 1.0), (0.0, 1e-320)])
def test_channel_meta_refuses_unusable_gain(pmin, pmax):
    with pytest.raises(EdfCalibrationError):
        ChannelMeta("x", "", "uV", pmin, pmax, -32768, 32767, "", 4)


def test_truncated_data_records_rejected():
    ch = make_channel(spr=4)
    raw = write_edf(make_recording([ch], [np.zeros(8)], 2))
    with pytest.raises(EdfParseError):
        parse_edf(raw[:-4])


# Text for a numeric header field: edge values, then any integer.
_EDF_NUMBERS = st.sampled_from(
    [b"0", b"-1", b"-2", b"nan", b"inf", b"1e9", b"", b"0x3", b"1.5", b"99999999", b"-0", b"+2"]
) | st.integers(-3, 10**6).map(lambda i: str(i).encode())


@st.composite
def mutated_edfs(draw):
    """A valid EDF with 1-4 edits: a numeric header field (num_signals,
    num_records, header_bytes, record_duration or a signal's
    samples_per_record) set to other text, num_signals and header_bytes set
    to another count that agrees, the data records cut short or extended,
    or one byte set to any value."""
    n_signals, spr, n_records = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    channels = [make_channel(f"C{i}", spr=spr) for i in range(n_signals)]
    signals = [np.linspace(-100.0, 100.0, spr * n_records) for _ in channels]
    raw = bytearray(write_edf(make_recording(channels, signals, n_records)))
    spr_at = 256 + n_signals * sum(w for name, w in edf._SIGNAL_FIELDS[:8])
    fields = [(184, 8), (236, 8), (244, 8), (252, 4), *((spr_at + 8 * i, 8) for i in range(n_signals))]
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["field", "count", "cut", "extend", "byte"]))
        if op == "field":
            at, width = draw(st.sampled_from(fields))
            raw[at : at + width] = draw(_EDF_NUMBERS)[:width].ljust(width)
        elif op == "count" and len(raw) >= 256:
            count = draw(st.integers(0, 4))
            raw[184:192] = str(256 + 256 * count).encode().ljust(8)
            raw[252:256] = str(count).encode().ljust(4)
        elif op == "cut":
            del raw[draw(st.integers(0, len(raw))) :]
        elif op == "extend":
            raw += draw(st.binary(min_size=1, max_size=64))
        elif raw:
            raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    return bytes(raw)


@settings(max_examples=1000, deadline=None)
@given(mutated_edfs())
def test_edf_mutations_raise_only_data_errors(raw):
    try:
        rec = parse_edf(raw)
    except DataError:
        return
    assert isinstance(rec, Recording)


def test_year_pivot():
    ch = make_channel(spr=2)
    for year, text in ((1985, b"85"), (1999, b"99"), (2000, b"00"), (2084, b"84")):
        rec = Recording(
            patient_id="x",
            start_datetime=datetime.datetime(year, 1, 2, 3, 4, 5),
            record_duration_s=1.0,
            num_records=1,
            channels=(ch,),
            signals=(np.zeros(2),),
        )
        raw = write_edf(rec)
        assert raw[174:176] == text
        assert parse_edf(raw).start_datetime.year == year


def test_out_of_range_sample_names_channel_and_index():
    ch = make_channel(spr=4)
    sig = np.zeros(4)
    sig[2] = 150.0  # beyond physical_max 100
    with pytest.raises(EdfRangeError) as err:
        write_edf(make_recording([ch], [sig], 1))
    assert "EEG F3" in str(err.value)
    assert "2" in str(err.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sample_names_channel_and_index(bad):
    ch = make_channel(spr=4)
    sig = np.zeros(8)
    sig[5] = bad
    with pytest.raises(EdfRangeError, match=r"'EEG F3' \(index 1\): sample 5 value"):
        write_edf(make_recording([make_channel("C0", spr=4), ch], [np.zeros(8), sig], 2))


def test_bad_digital_range_rejected():
    with pytest.raises(EdfCalibrationError):
        ChannelMeta("x", "", "uV", -1.0, 1.0, 5, 5, "", 4)


def test_flat_physical_range_rejected():
    with pytest.raises(EdfCalibrationError):
        ChannelMeta("x", "", "uV", 3.0, 3.0, -10, 10, "", 4)


def test_unencodable_header_number_rejected():
    # 17 significant digits cannot fit an 8-character field losslessly
    ch = ChannelMeta("x", "", "uV", -0.12345678901234567, 1.0, -10, 10, "", 2)
    with pytest.raises(ValueError):
        write_edf(make_recording([ch], [np.zeros(2)], 1))


def test_summary_with_numbered_and_plain_seizure_lines():
    text = """Data Sampling Rate: 256 Hz
Channel 1: FP1-F7

File Name: chb01_03.edf
Number of Seizures in File: 1
Seizure Start Time: 2996 seconds
Seizure End Time: 3036 seconds

File Name: chb01_04.edf
Number of Seizures in File: 2
Seizure 1 Start Time: 10 seconds
Seizure 1 End Time: 20 seconds
Seizure 2 Start Time: 100 seconds
Seizure 2 End Time: 120 seconds

File Name: chb01_05.edf
Number of Seizures in File: 0
"""
    result = parse_seizure_summary(text)
    assert list(result) == ["chb01_03.edf", "chb01_04.edf", "chb01_05.edf"]
    assert [(iv.start_s, iv.end_s) for iv in result["chb01_03.edf"]] == [(2996.0, 3036.0)]
    assert [(iv.start_s, iv.end_s) for iv in result["chb01_04.edf"]] == [
        (10.0, 20.0),
        (100.0, 120.0),
    ]
    assert result["chb01_05.edf"] == []


def test_summary_count_mismatch_rejected():
    text = """File Name: a.edf
Number of Seizures in File: 2
Seizure Start Time: 10 seconds
Seizure End Time: 20 seconds
"""
    with pytest.raises(SummaryError):
        parse_seizure_summary(text)


def test_summary_end_before_start_rejected():
    text = """File Name: a.edf
Number of Seizures in File: 1
Seizure Start Time: 30 seconds
Seizure End Time: 20 seconds
"""
    with pytest.raises(SummaryError):
        parse_seizure_summary(text)


def test_summary_orphan_seizure_line_rejected():
    with pytest.raises(SummaryError):
        parse_seizure_summary("Seizure Start Time: 10 seconds\n")


def test_summary_dangling_start_rejected():
    text = """File Name: a.edf
Number of Seizures in File: 1
Seizure Start Time: 10 seconds
"""
    with pytest.raises(SummaryError):
        parse_seizure_summary(text)


@pytest.mark.parametrize("time", ["1.2.3", ".", "..", pytest.param("9" * 400, id="overflow")])
@pytest.mark.parametrize("line", ["Start", "End"])
def test_summary_malformed_time_names_its_file_block(time, line):
    times = {"Start": "10", "End": "20", line: time}
    text = f"""File Name: a.edf
Number of Seizures in File: 1
Seizure Start Time: {times["Start"]} seconds
Seizure End Time: {times["End"]} seconds
"""
    with pytest.raises(SummaryError, match="a.edf"):
        parse_seizure_summary(text)


def test_summary_count_with_more_digits_than_int_reads_is_rejected():
    text = "File Name: a.edf\nNumber of Seizures in File: " + "1" * 5000 + "\n"
    with pytest.raises(SummaryError, match="a.edf"):
        parse_seizure_summary(text)


_VALID_SUMMARY = """Data Sampling Rate: 256 Hz
File Name: chb01_03.edf
Number of Seizures in File: 1
Seizure Start Time: 2996 seconds
Seizure End Time: 3036 seconds

File Name: chb01_04.edf
Number of Seizures in File: 2
Seizure 1 Start Time: 10 seconds
Seizure 1 End Time: 20 seconds
Seizure 2 Start Time: 100.5 seconds
Seizure 2 End Time: 120 seconds
""".splitlines()

# Lines that look like summary lines but carry any number-ish text.
_NUMBERISH = st.text(alphabet="0123456789.", max_size=12) | st.sampled_from(
    ["9" * 400, "1" * 5000, ".", "1.2.3"]
)
_SUMMARY_LINE = (
    st.builds("Seizure Start Time: {} seconds".format, _NUMBERISH)
    | st.builds("Seizure 1 End Time: {} seconds".format, _NUMBERISH)
    | st.builds("Number of Seizures in File: {}".format, _NUMBERISH)
    | st.builds("File Name: {}".format, st.text(max_size=8))
    | st.text(max_size=40)
)


@st.composite
def mutated_summaries(draw):
    """A valid summary with 1-5 line-level edits: delete, duplicate, swap,
    replace or insert a line, or swap the text after a line's colon."""
    lines = list(_VALID_SUMMARY)
    for _ in range(draw(st.integers(1, 5))):
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "insert", "value"]))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if op == "insert" or not lines:
            lines.insert(i, draw(_SUMMARY_LINE))
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "replace":
            lines[i] = draw(_SUMMARY_LINE)
        elif ":" in lines[i]:
            head, _, _ = lines[i].partition(":")
            lines[i] = f"{head}: {draw(_NUMBERISH)} seconds"
    return "\n".join(lines)


@settings(max_examples=500, deadline=None)
@given(mutated_summaries())
def test_summary_mutations_raise_only_data_errors(text):
    try:
        result = parse_seizure_summary(text)
    except DataError:
        return
    for name, intervals in result.items():
        for iv in intervals:
            assert iv.file_name == name
            assert math.isfinite(iv.start_s) and math.isfinite(iv.end_s)
            assert iv.start_s < iv.end_s
