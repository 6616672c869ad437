"""Exception types shared across the toolkit, and the UTF-8 and JSON
readers and the JSON and CSV writers that every module uses.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
LeakageError -> 3.
"""

import json
import re
from collections.abc import Iterator
from pathlib import Path


class ConfigError(ValueError):
    """A parameter or configuration value is invalid."""


class DataError(Exception):
    """Input data violates a precondition or is malformed."""


class LeakageError(RuntimeError):
    """A patient appears on both sides of a train/test boundary."""


def read_utf8(path, sha256=None) -> str:
    """The text of a UTF-8 input file; any other byte is a DataError naming
    path:line. A hashlib object given as sha256 is fed the file's bytes."""
    data = Path(path).read_bytes()
    if sha256 is not None:
        sha256.update(data)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8: byte {data[exc.start]:#04x}") from None


def read_json(path, error_class, sha256=None, what="JSON", **options):
    """The value of the UTF-8 JSON file at path, parsed by json.loads with options; any other
    file, nested too deep to parse included, is an error_class naming it. sha256: see read_utf8."""
    try:
        return json.loads(read_utf8(path, sha256), **options)
    except (DataError, RecursionError, ValueError) as exc:
        raise error_class(f"{path}: invalid {what}: {exc}") from None


def _json_key(key) -> str:
    """A dict key as json writes it: a str as it is, a number, bool or None as its JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_chunks(value, level=0):
    """The text of json.dumps(value, indent=2, sort_keys=True), the layout
    of every JSON file the toolkit writes, in pieces. A list of only ints
    and floats is one piece of their reprs, which is json's text for them
    unless a float is not finite; scalars go to json. A numpy array or
    scalar is written as its tolist(), an array of rows one row at a time,
    and an iterator as the list of its items, one item at a time."""
    if getattr(value, "ndim", 0) > 1:
        value = iter(value)
    elif hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, Iterator):
        yield from _json_items(value, level)
        return
    if not isinstance(value, (list, tuple, dict)) or not value:
        yield json.dumps(value)
        return
    inner = "\n" + "  " * (level + 1)
    if isinstance(value, dict):
        sep = "{" + inner
        for key, item in sorted(value.items()):
            yield sep + json.dumps(_json_key(key)) + ": "
            yield from _json_chunks(item, level + 1)
            sep = "," + inner
        yield "\n" + "  " * level + "}"
        return
    if set(map(type, value)) <= {int, float}:
        text = ("," + inner).join(map(repr, value))
        if "n" not in text:  # repr gives "nan" and "inf" where json writes NaN and Infinity
            yield "[" + inner + text + "\n" + "  " * level + "]"
            return
    yield from _json_items(value, level)


def _json_items(items, level):
    """_json_chunks of a list of items, from any iterable of them."""
    inner = "\n" + "  " * (level + 1)
    sep = "[" + inner
    for item in items:
        yield sep
        yield from _json_chunks(item, level + 1)
        sep = "," + inner
    yield "[]" if sep[0] == "[" else "\n" + "  " * level + "]"  # "[]" when there were no items


def json_text(doc) -> str:
    """The text write_json writes for doc: keys sorted, two-space indents, a final newline."""
    return "".join(_json_chunks(doc)) + "\n"


def write_json(path, doc) -> None:
    """Write json_text(doc) to path as UTF-8 with LF line ends, a piece at a
    time, so a large model file is never held whole in memory, nor, when
    doc holds them as numpy arrays or iterators, its arrays or lists."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_json_chunks(doc))
        fh.write("\n")


# Characters a CSV text cell cannot hold.
_FIELD_BREAK = re.compile("[,\n\r]")


def _cell(value) -> str:
    """The text of one CSV cell (see write_csv)."""
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def _floats(column, rows=256):
    """The floats of a 1-D float64 array, from tolist() of a block of rows at a time."""
    for start in range(0, len(column), rows):
        yield from column[start : start + rows].tolist()


def write_csv(path, header, columns) -> None:
    """Write a table to path as CSV, UTF-8 with LF line ends: the header
    line, then one line per row. Each column is a sequence of cells, or a
    2-D numeric array that stands for its columns.

    The one cell rule: a float is written as repr(), the shortest decimal
    that parses back to the same float; an int or a str as str(); a missing
    value (None) as an empty cell. A text cell that holds a comma or a line
    break is a DataError, raised before the file is opened.
    """
    cells = []  # each column's text, made row by row as the rows are written
    for column in columns:
        if getattr(column, "ndim", 1) == 2:
            if column.shape[1]:  # a block of no columns adds no cell
                # tolist gives ints and floats, whose repr is _cell's text.
                cells.append(",".join(map(repr, row.tolist())) for row in column)
            continue
        if getattr(column, "dtype", None) == "float64":  # repr of each float is _cell's text
            cells.append(map(repr, _floats(column)))
            continue
        for text in dict.fromkeys(column):
            if isinstance(text, str) and _FIELD_BREAK.search(text):
                raise DataError(f"{path}: name {str(text)!r} holds a comma or line break")
        cells.append(map(_cell, column))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(*cells):
            fh.write(",".join(row) + "\n")
