"""Exception types shared across the toolkit, and the UTF-8 reader and the
JSON and CSV writers that every module uses.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
LeakageError -> 3.
"""

import json
import re
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
    unless a float is not finite; scalars go to json."""
    if not isinstance(value, (list, tuple, dict)) or not value:
        yield json.dumps(value)
        return
    inner = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level + ("}" if isinstance(value, dict) else "]")
    if isinstance(value, dict):
        sep = "{" + inner
        for key, item in sorted(value.items()):
            yield sep + json.dumps(_json_key(key)) + ": "
            yield from _json_chunks(item, level + 1)
            sep = "," + inner
        yield close
        return
    if set(map(type, value)) <= {int, float}:
        text = ("," + inner).join(map(repr, value))
        if "n" not in text:  # repr gives "nan" and "inf" where json writes NaN and Infinity
            yield "[" + inner + text + close
            return
    sep = "[" + inner
    for item in value:
        yield sep
        yield from _json_chunks(item, level + 1)
        sep = "," + inner
    yield close


def json_text(doc) -> str:
    """The text write_json writes for doc: keys sorted, two-space indents, a final newline."""
    return "".join(_json_chunks(doc)) + "\n"


def write_json(path, doc) -> None:
    """Write json_text(doc) to path as UTF-8 with LF line ends, a piece at a
    time, so a large model file is never held whole in memory."""
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
        for text in dict.fromkeys(column):
            if isinstance(text, str) and _FIELD_BREAK.search(text):
                raise DataError(f"{path}: name {str(text)!r} holds a comma or line break")
        cells.append(map(_cell, column))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(*cells):
            fh.write(",".join(row) + "\n")
