"""Per-epoch statistics, train-only scaling, and the feature CSV format."""

import hashlib
import io
import itertools
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seizurekit import (
    DataError,
    Epochs,
    FeatureMatrix,
    Scaler,
    apply_scaler,
    extract_features,
    fit_scaler,
    read_feature_csv,
    write_feature_csv,
)
from seizurekit import features
from seizurekit.errors import read_utf8, write_csv
from seizurekit.features import csv_header


def epochs(samples, patients=None, files=None, starts=None):
    """Epochs of the given (n, channels, window) samples; by default all of
    patient P01 and file a.edf, 2 s apart from 0 s."""
    n = len(samples)
    return Epochs(
        samples=np.asarray(samples, dtype=np.float64),
        patients=np.array(patients or ["P01"] * n, dtype=object),
        files=np.array(files or ["a.edf"] * n, dtype=object),
        starts=np.array(starts or [2.0 * i for i in range(n)], dtype=np.float64),
        duration_s=2.0,
    )


def fm(values, n=None):
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    return FeatureMatrix(
        values=values,
        patients=np.array([f"P{i:02d}" for i in range(n)], dtype=object),
        files=np.array([f"f{i}" for i in range(n)], dtype=object),
        starts=np.arange(n, dtype=np.float64) * 2.0,
    )


def test_known_channel_statistics():
    m = extract_features(epochs([[[1.0, 2.0, 3.0, 4.0]]]))
    row = m.values[0]
    assert row[0] == 2.5
    assert row[1] == 4.0
    assert row[2] == 1.0
    assert row[3] == pytest.approx(np.sqrt(1.25))  # population std


def test_constant_channel_has_zero_std():
    m = extract_features(epochs([[[7.0, 7.0, 7.0]]]))
    assert m.values[0].tolist() == [7.0, 7.0, 7.0, 0.0]


def test_feature_layout_is_four_per_channel():
    samples = np.array([[1.0, 3.0], [10.0, 20.0], [-1.0, 1.0]])
    m = extract_features(epochs([samples]))
    assert m.n_dims == 12
    # channel blocks appear in channel order: mean, max, min, std
    assert m.values[0][:4].tolist() == [2.0, 3.0, 1.0, 1.0]
    assert m.values[0][4:8].tolist() == [15.0, 20.0, 10.0, 5.0]


def test_23_channels_give_92_dims():
    rng = np.random.default_rng(0)
    m = extract_features(epochs([rng.normal(size=(23, 8))]))
    assert m.values.shape == (1, 92)


def test_pool_channels_gives_four_dims():
    samples = np.array([[0.0, 2.0], [4.0, 6.0]])
    m = extract_features(epochs([samples]), pool_channels=True)
    assert m.values.shape == (1, 4)
    assert m.values[0][0] == 3.0  # mean over all samples of all channels
    assert m.values[0][1] == 6.0
    assert m.values[0][2] == 0.0


def test_feature_metadata_follows_epochs():
    eps = epochs(
        [[[0.0, 1.0]], [[2.0, 3.0]]], patients=["A", "B"], files=["x.edf", "y.edf"], starts=[0.0, 2.0]
    )
    m = extract_features(eps)
    assert list(m.patients) == ["A", "B"]
    assert list(m.files) == ["x.edf", "y.edf"]
    assert m.starts.tolist() == [0.0, 2.0]


def test_translation_shifts_mean_max_min_only():
    rng = np.random.default_rng(9)
    for _ in range(20):
        samples = rng.normal(size=(3, 16))
        shift = float(rng.uniform(-5, 5))
        a = extract_features(epochs([samples])).values[0]
        b = extract_features(epochs([samples + shift])).values[0]
        for c in range(3):
            assert b[4 * c + 0] == pytest.approx(a[4 * c + 0] + shift)
            assert b[4 * c + 1] == pytest.approx(a[4 * c + 1] + shift)
            assert b[4 * c + 2] == pytest.approx(a[4 * c + 2] + shift)
            assert b[4 * c + 3] == pytest.approx(a[4 * c + 3])  # std unchanged


def test_single_sample_epoch_rejected():
    with pytest.raises(DataError):
        extract_features(epochs([[[5.0]]]))


def test_empty_epoch_list_gives_empty_matrix():
    m = extract_features(epochs(np.zeros((0, 3, 4))))
    assert m.values.shape == (0, 0)


def _reference_extract_features(eps, pool_channels=False):
    """The per-epoch loop extract_features was written with."""
    if not len(eps):
        return np.zeros((0, 0))
    rows = []
    for samples in eps.samples:
        data = samples.reshape(1, -1) if pool_channels else samples
        stats = np.stack(
            [data.mean(axis=1), data.max(axis=1), data.min(axis=1), data.std(axis=1)], axis=1
        )
        rows.append(stats.reshape(-1))
    return np.stack(rows).astype(np.float64)


@st.composite
def epoch_arrays(draw):
    """(n, C, W) samples with C in 1..5 and W in 2..40; some channels constant."""
    n, c, w = draw(st.integers(0, 6)), draw(st.integers(1, 5)), draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-100, 100))
    samples = draw(st.sampled_from([0.0, 1e-3, 1e3])) + scale * rng.standard_normal((n, c, w))
    constant = np.array(draw(st.lists(st.booleans(), min_size=c, max_size=c)))
    samples[:, constant, :] = samples[:, constant, :1]
    return samples


@settings(deadline=None)
@given(epoch_arrays(), st.booleans(), st.sampled_from([1, 200, 1000, 1 << 20]))
def test_extract_features_matches_reference_loop(samples, pool_channels, block_bytes):
    eps = epochs(samples)
    with mock.patch.object(features, "_BLOCK_BYTES", block_bytes):
        m = extract_features(eps, pool_channels=pool_channels)
    expected = _reference_extract_features(eps, pool_channels)
    assert m.values.dtype == np.float64
    assert m.values.shape == expected.shape
    assert m.values.tobytes() == expected.tobytes()
    assert m.starts is eps.starts and m.patients is eps.patients and m.files is eps.files


def test_scaler_known_columns():
    s = fit_scaler(fm([[0.0, 10.0], [2.0, 10.0]]))
    assert s.mean.tolist() == [1.0, 10.0]
    assert s.std.tolist() == [1.0, 0.0]  # population std


def test_scaler_single_row_has_zero_std():
    s = fit_scaler(fm([[3.0, -1.0]]))
    assert s.mean.tolist() == [3.0, -1.0]
    assert s.std.tolist() == [0.0, 0.0]


@st.composite
def scaler_rows(draw):
    """Rows of d in {1, 2, 3, 92} columns, some of zero variance, of any
    finite magnitude, and an index array of rows (repeats allowed)."""
    n, d = draw(st.integers(1, 40)), draw(st.sampled_from([1, 2, 3, 92]))
    magnitude = draw(st.sampled_from([1e-300, 1e-5, 1.0, 1e5, 1e150, 1e300]))
    scale = st.floats(-2.0, 2.0, allow_subnormal=False).map(lambda x: x * magnitude)
    values = np.array(draw(st.lists(scale, min_size=n * d, max_size=n * d))).reshape(n, d)
    constant = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    values[:, constant] = values[:1, constant]
    rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    return values, rows


@settings(deadline=None, max_examples=300)
@given(scaler_rows(), st.integers(1, 7))
def test_fit_scaler_is_numpy_mean_and_std_bit_for_bit(drawn, block_rows):
    """fit_scaler sums its rows in blocks of block_rows here, so n up to 40
    crosses many block edges; the pipeline's fit over an index array of
    rows must equal numpy's on those rows as well."""
    values, rows = drawn
    block_bytes = 8 * values.shape[1] * block_rows
    # Squares of magnitudes near the largest float overflow, in numpy's call too.
    with np.errstate(over="ignore"), mock.patch.object(features, "_BLOCK_BYTES", block_bytes):
        s = fit_scaler(fm(values))
        picked = features.column_stats(values, rows)
        assert s.mean.tobytes() == values.mean(axis=0).tobytes()
        assert s.std.tobytes() == values.std(axis=0).tobytes()
        assert picked[0].tobytes() == values[rows].mean(axis=0).tobytes()
        assert picked[1].tobytes() == values[rows].std(axis=0).tobytes()


@pytest.mark.parametrize("n", [1423, 1424, 1425, 2849, 4415])
def test_fit_scaler_is_numpy_mean_and_std_across_default_blocks(n):
    """92 columns: 1,424 rows to a block."""
    values = np.random.default_rng(n).normal(3.0, 2.0, size=(n, 92)) ** 3
    s = fit_scaler(fm(values))
    assert s.mean.tobytes() == values.mean(axis=0).tobytes()
    assert s.std.tobytes() == values.std(axis=0).tobytes()


def test_apply_scaler_standardizes_training_rows():
    rng = np.random.default_rng(17)
    train = fm(rng.normal(loc=4.0, scale=3.0, size=(50, 6)))
    s = fit_scaler(train)
    z = apply_scaler(s, train)
    assert np.abs(z.values.mean(axis=0)).max() < 1e-12
    assert np.abs(z.values.std(axis=0) - 1.0).max() < 1e-12


def test_apply_scaler_known_value():
    s = Scaler(mean=np.array([1.0]), std=np.array([1.0]))
    z = apply_scaler(s, fm([[3.0]]))
    assert z.values[0, 0] == 2.0


def test_zero_std_column_maps_to_zero():
    s = Scaler(mean=np.array([5.0]), std=np.array([0.0]))
    z = apply_scaler(s, fm([[5.0], [9.0]]))
    # (x - mean)/std is undefined at std 0; the column maps to 0 instead
    assert z.values[:, 0].tolist() == [0.0, 0.0]


def test_scaler_depends_only_on_selected_rows():
    rng = np.random.default_rng(23)
    full = fm(rng.normal(size=(20, 4)))
    train_idx = np.arange(12)
    s1 = fit_scaler(full.take(train_idx))
    # replacing the held-out rows must not move the scaler by a single bit
    tampered = fm(np.concatenate([full.values[:12], rng.normal(size=(8, 4)) * 100]))
    s2 = fit_scaler(tampered.take(train_idx))
    assert np.array_equal(s1.mean, s2.mean)
    assert np.array_equal(s1.std, s2.std)


def test_scaler_dimension_mismatch_rejected():
    s = Scaler(mean=np.zeros(3), std=np.ones(3))
    with pytest.raises(DataError):
        apply_scaler(s, fm([[1.0, 2.0]]))


def test_empty_train_rejected():
    with pytest.raises(DataError):
        fit_scaler(fm(np.zeros((0, 3))))


def test_csv_header_format():
    assert csv_header(3) == "patient,file,start_s,label,f0,f1,f2"
    assert csv_header(0) == "patient,file,start_s,label"


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(31)
    m = fm(rng.normal(size=(10, 5)) * 1e-7)
    labels = rng.integers(0, 2, size=10)
    path = tmp_path / "features.csv"
    write_feature_csv(m, labels, path)
    back, back_labels = read_feature_csv(path)
    assert np.array_equal(back.values, m.values)  # bitwise, via repr round-trip
    assert np.array_equal(back.starts, m.starts)
    assert list(back.patients) == list(m.patients)
    assert list(back.files) == list(m.files)
    assert np.array_equal(back_labels, labels)


def test_csv_uses_lf_line_endings(tmp_path):
    m = fm([[1.5, 2.5]])
    path = tmp_path / "f.csv"
    write_feature_csv(m, np.array([0]), path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").splitlines()[0] == csv_header(2)


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataError):
        read_feature_csv(path)


def test_non_finite_features_rejected():
    with pytest.raises(DataError):
        fm([[np.nan, 1.0]])


# ---------------------------------------------------------------- CSV syntax


def reference_write(m, labels) -> str:
    """The row-by-row writer the CSV format was defined with."""
    buf = io.StringIO()
    buf.write(csv_header(m.n_dims) + "\n")
    for i in range(m.n_rows):
        cells = [str(m.patients[i]), str(m.files[i]), repr(float(m.starts[i])), str(int(labels[i]))]
        cells.extend(repr(float(v)) for v in m.values[i])
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def reference_read(text: str):
    """The per-value float() reader the CSV format was defined with."""
    lines = text.splitlines()
    d = len(lines[0].split(",")) - 4
    patients, files, starts, labels, values = [], [], [], [], []
    for line in lines[1:]:
        if not line:
            continue
        cells = line.split(",")
        patients.append(cells[0])
        files.append(cells[1])
        starts.append(float(cells[2]))
        labels.append(int(cells[3]))
        values.append([float(c) for c in cells[4:]])
    return (
        np.array(values, dtype=np.float64).reshape(len(values), d),
        patients,
        files,
        np.array(starts, dtype=np.float64),
        np.array(labels, dtype=np.int64),
    )


def write_lines(path, lines, newline="\n"):
    path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
    return path


def rejected_at(path, line):
    """pytest.raises for a DataError that names `path:line`."""
    return pytest.raises(DataError, match=re.escape(f"{path}:{line}:"))


def test_csv_wrong_field_count_names_its_line_after_blank_lines(tmp_path):
    path = write_lines(
        tmp_path / "f.csv",
        [csv_header(2), "P1,a.edf,0.0,0,1.0,2.0", "", "", "P1,a.edf,2.0,0,1.0"],
    )
    with rejected_at(path, 5):
        read_feature_csv(path)


@pytest.mark.parametrize("row", ["P1,a.edf,2.0,0,1.0,x", "P1,a.edf,2.0,0,,2.0", "P1,a.edf,nope,0,1.0,2.0"])
def test_csv_non_numeric_value_names_its_line(tmp_path, row):
    path = write_lines(tmp_path / "f.csv", [csv_header(2), "P1,a.edf,0.0,0,1.0,2.0", "", row])
    with rejected_at(path, 4):
        read_feature_csv(path)


@pytest.mark.parametrize("label", ["1.0", "x", ""])
def test_csv_non_integer_label_names_its_line(tmp_path, label):
    path = write_lines(tmp_path / "f.csv", [csv_header(1), "P1,a.edf,0.0,0,1.0", f"P1,a.edf,2.0,{label},1.0"])
    with rejected_at(path, 3):
        read_feature_csv(path)


@pytest.mark.parametrize("label", ["7", "-1", "2"])
def test_csv_label_outside_0_and_1_names_its_line(tmp_path, label):
    path = write_lines(tmp_path / "f.csv", [csv_header(1), "P1,a.edf,0.0,0,1.0", "", f"P1,a.edf,2.0,{label},1.0"])
    with rejected_at(path, 4):
        read_feature_csv(path)


@pytest.mark.parametrize("cell", ["1_0", "1_000.5"])
def test_csv_digit_separators_are_rejected(tmp_path, cell):
    # float() reads "1_0" as 10.0; the CSV syntax has no digit separators
    for row in (f"P1,a.edf,0.0,0,{cell}", f"P1,a.edf,{cell},0,1.0"):
        path = write_lines(tmp_path / "f.csv", [csv_header(1), row])
        with rejected_at(path, 2):
            read_feature_csv(path)


@pytest.mark.parametrize("name", ["P,1", "P\n1", "P\r1", "a,b.edf"])
@pytest.mark.parametrize("field", ["patients", "files"])
def test_csv_names_with_comma_or_line_break_are_refused(tmp_path, field, name):
    m = fm([[1.0], [2.0]])
    names = getattr(m, field).copy()
    names[1] = name
    path = tmp_path / "bad.csv"
    with pytest.raises(DataError, match="comma or line break"):
        write_feature_csv(FeatureMatrix(**{**vars(m), field: names}), np.array([0, 1]), path)
    assert not path.exists()


def test_write_csv_cell_rule(tmp_path):
    # A float as repr, an int or a str as str, None as an empty cell; a 2-D
    # block stands for its columns, and one of no columns adds no cell.
    path = tmp_path / "t.csv"
    columns = [
        np.array(["P1", "P2"], dtype=object), [1, np.int64(2)], [np.float64(0.1), None],
        np.array([[1.0, 2.5], [1e-300, -0.0]]), np.zeros((2, 0)),
    ]
    write_csv(path, "p,n,x,a,b", columns)
    assert path.read_bytes() == b"p,n,x,a,b\nP1,1,0.1,1.0,2.5\nP2,2,,1e-300,-0.0\n"


def test_write_csv_float_array_column_is_the_cell_rule_across_blocks(tmp_path):
    # A float64 array column is read a block of rows at a time; its text is
    # each float's repr, as a sequence of the same floats gives.
    rng = np.random.default_rng(4)
    floats = np.concatenate([[-0.0, 0.0, 1e-310, 1e308, 0.1], rng.normal(size=9000) * 10.0 ** rng.integers(-20, 20, 9000)])
    path, want = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(path, "x,n", [floats, np.arange(len(floats))])
    write_csv(want, "x,n", [list(floats), list(range(len(floats)))])
    assert path.read_bytes() == want.read_bytes()
    assert path.read_text().splitlines()[1:4] == ["-0.0,0", "0.0,1", "1e-310,2"]


def test_write_csv_refuses_a_text_cell_with_a_break_before_opening(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(DataError, match=re.escape(r"'a\rb' holds a comma or line break")):
        write_csv(path, "x,p", [[1.5, 2.5], ["ok", "a\rb"]])
    assert not path.exists()


def test_csv_hash_in_names_is_data(tmp_path):
    path = write_lines(tmp_path / "f.csv", [csv_header(2), "P#1,#a.edf,0.0,1,1.5,-2.5", "#P2,b#.edf,2.0,0,3.0,4.0"])
    m, labels = read_feature_csv(path)
    assert list(m.patients) == ["P#1", "#P2"]
    assert list(m.files) == ["#a.edf", "b#.edf"]
    assert m.values.tolist() == [[1.5, -2.5], [3.0, 4.0]]
    assert labels.tolist() == [1, 0]


def test_csv_crlf_line_endings_read_like_lf(tmp_path):
    rows = [csv_header(2), "P1,a.edf,0.0,1,1.5,-2.5", "", "P2,b.edf,2.0,0,3.0,4.0"]
    crlf, _ = read_feature_csv(write_lines(tmp_path / "crlf.csv", rows, newline="\r\n"))
    lf, _ = read_feature_csv(write_lines(tmp_path / "lf.csv", rows))
    assert np.array_equal(crlf.values, lf.values)
    assert list(crlf.files) == list(lf.files) == ["a.edf", "b.edf"]
    bad = write_lines(tmp_path / "bad.csv", rows + ["P2,b.edf,4.0,0,3.0"], newline="\r\n")
    with rejected_at(bad, 5):
        read_feature_csv(bad)


def test_csv_header_only_gives_zero_rows_quietly(tmp_path):
    path = write_lines(tmp_path / "f.csv", [csv_header(3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, labels = read_feature_csv(path)
    assert m.values.shape == (0, 3)
    assert m.starts.shape == labels.shape == (0,)


def test_csv_with_zero_feature_columns(tmp_path):
    path = write_lines(tmp_path / "f.csv", ["patient,file,start_s,label", "P1,a.edf,0.0,1", "P2,b.edf,2.0,0"])
    m, labels = read_feature_csv(path)
    assert m.values.shape == (2, 0)
    assert m.starts.tolist() == [0.0, 2.0]
    assert labels.tolist() == [1, 0]


def test_csv_non_utf8_byte_is_a_data_error(tmp_path):
    path = tmp_path / "f.csv"
    path.write_bytes(f"{csv_header(1)}\nP1,a.edf,0.0,0,1.0\nP\xe9,a.edf,2.0,0,1.0\n".encode("latin-1"))
    with rejected_at(path, 3):
        read_feature_csv(path)


_BITS = st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
FLOATS = (
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308])
    | _BITS.filter(np.isfinite)
)
NAMES = st.text(alphabet="Pab#._- 0123456789", min_size=1, max_size=8)


@settings(deadline=None, max_examples=150)
@given(
    st.integers(0, 6).flatmap(
        lambda d: st.lists(
            st.tuples(NAMES, NAMES, FLOATS, st.integers(0, 1), st.lists(FLOATS, min_size=d, max_size=d)),
            max_size=6,
        ).map(lambda rows: (d, rows))
    )
)
def test_csv_round_trip_is_bit_exact_on_any_float(case):
    d, rows = case
    m = FeatureMatrix(
        values=np.array([r[4] for r in rows], dtype=np.float64).reshape(len(rows), d),
        patients=np.array([r[0] for r in rows], dtype=object),
        files=np.array([r[1] for r in rows], dtype=object),
        starts=np.array([r[2] for r in rows], dtype=np.float64),
    )
    labels = np.array([r[3] for r in rows], dtype=np.int64)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        write_feature_csv(m, labels, path)
        text = path.read_bytes().decode("utf-8")
        back, back_labels = read_feature_csv(path)
    assert text == reference_write(m, labels)
    ref_values, ref_patients, ref_files, ref_starts, ref_labels = reference_read(text)
    for got, want in ((back.values, m.values), (back.values, ref_values), (back.starts, m.starts), (back.starts, ref_starts)):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert list(back.patients) == list(m.patients) == ref_patients
    assert list(back.files) == list(m.files) == ref_files
    assert np.array_equal(back_labels, labels) and np.array_equal(back_labels, ref_labels)


# ---------------------------------------------------------------- the single pass against a line reader


_NOT_A_NUMBER = re.compile(r"(could not convert string .*) at row (\d+), column (\d+)")


def line_reader(path):
    """The reader read_feature_csv's single pass replaced: each line is
    checked (field count, then label) as np.loadtxt asks for it, and
    loadtxt parses start_s and the features of the lines it is given."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
            if not first:
                raise DataError(f"{path}: empty feature file")
            first = first.rstrip("\n")
            header = first.split(",")
            if header[:4] != ["patient", "file", "start_s", "label"]:
                raise DataError(f"{path}: unexpected header {first!r}")
            d = len(header) - 4
            if header[4:] != [f"f{i}" for i in range(d)]:
                raise DataError(f"{path}: unexpected feature column names")
            line_numbers, patients, files, labels = [], [], [], []

            def checked_rows():
                for ln, line in enumerate(fh, start=2):
                    line = line.rstrip("\n")
                    if not line:
                        continue
                    if line.count(",") != 3 + d:
                        raise DataError(f"{path}:{ln}: expected {4 + d} fields, got {line.count(',') + 1}")
                    patient, file, _, label = line.split(",", 4)[:4]
                    if label not in ("0", "1"):
                        raise DataError(f"{path}:{ln}: label {label!r} is not 0 or 1")
                    line_numbers.append(ln)
                    patients.append(patient)
                    files.append(file)
                    labels.append(label == "1")
                    yield line

            rows = checked_rows()
            row = next(rows, None)
            numbers = np.zeros((0, 1 + d))
            if row is not None:
                try:
                    numbers = np.loadtxt(
                        itertools.chain([row], rows), delimiter=",", comments=None,
                        usecols=[2, *range(4, 4 + d)], ndmin=2,
                    )
                except ValueError as exc:
                    bad = _NOT_A_NUMBER.search(str(exc))
                    if bad is None:
                        raise
                    raise DataError(f"{path}:{line_numbers[int(bad[2])]}: {bad[1]} in field {bad[3]}") from None
    except UnicodeDecodeError:
        read_utf8(path)
        raise
    m = FeatureMatrix(
        values=np.ascontiguousarray(numbers[:, 1:]),
        patients=np.array(patients, dtype=object),
        files=np.array(files, dtype=object),
        starts=numbers[:, 0].copy(),
    )
    return m, np.array(labels, dtype=np.int64)


def _outcome(reader, path):
    """The DataError's message, or every array read with its dtype and bytes."""
    try:
        m, labels = reader(path)
    except DataError as exc:
        return str(exc)
    arrays = (m.values, m.starts, labels)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays], list(m.patients), list(m.files), m.patients.dtype


_NUMBERS = ["x", "1_0", "0x1p3", "nan", "inf"]


@st.composite
def mutated_csv(draw):
    """A valid feature CSV's lines, then one line (or the line ends) mutated."""
    d = draw(st.integers(0, 3))
    n = draw(st.integers(1, 40) | st.integers(300, 400))  # the longer pass the reader's first 8 KiB
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = [csv_header(d)] + [
        ",".join([f"P{i % 3}", f"f{i % 2}.edf", repr(2.0 * i), str(int(rng.integers(2))),
                  *(repr(float(v)) for v in rng.normal(size=d) * 10.0 ** rng.integers(-5, 5))])
        for i in range(n)
    ]
    lines = [line.encode() for line in lines]
    newline = b"\n"
    i = draw(st.integers(1, n))  # a data line
    fields = lines[i].split(b",")
    kind = draw(st.sampled_from(["drop_comma", "add_comma", "label", "number", "blank", "byte", "crlf", "header_only"]))
    if kind == "drop_comma":
        j = draw(st.integers(0, len(fields) - 2))
        fields[j:j + 2] = [fields[j] + fields[j + 1]]
    elif kind == "add_comma":
        j = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:j] + b"," + lines[i][j:]
    elif kind == "label":
        fields[3] = draw(st.sampled_from([b"2", b" 1", b""]))
    elif kind == "number":
        j = draw(st.sampled_from([2, *range(4, 4 + d)]))
        fields[j] = draw(st.sampled_from(_NUMBERS)).encode()
    elif kind == "blank":
        lines.insert(draw(st.integers(1, n + 1)), draw(st.sampled_from([b" ", b"\t", b" \t "])))
    elif kind == "byte":
        j = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:j] + draw(st.sampled_from([b"\xff", b"\xe9", b"\x80"])) + lines[i][j:]
    elif kind == "crlf":
        newline = b"\r\n"
    else:
        lines = lines[:1]
    if kind in ("drop_comma", "label", "number"):
        lines[i] = b",".join(fields)
    return newline.join(lines) + newline


@settings(deadline=None, max_examples=300)
@given(mutated_csv())
def test_read_feature_csv_agrees_with_the_line_reader_on_a_mutated_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        path.write_bytes(data)
        sha = hashlib.sha256()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(lambda p: read_feature_csv(p, sha), path)
        assert got == _outcome(line_reader, path)
    if not isinstance(got, str):
        assert sha.hexdigest() == hashlib.sha256(data).hexdigest()
