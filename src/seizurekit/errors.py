"""Exception types shared across the toolkit, and the UTF-8 reader and JSON
writer that every module uses.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
LeakageError -> 3.
"""

import json
from pathlib import Path


class ConfigError(ValueError):
    """A parameter or configuration value is invalid."""


class DataError(Exception):
    """Input data violates a precondition or is malformed."""


class LeakageError(RuntimeError):
    """A patient appears on both sides of a train/test boundary."""


def read_utf8(path) -> str:
    """The text of a UTF-8 input file; any other byte is a DataError naming path:line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8: byte {data[exc.start]:#04x}") from None


# The layout of every JSON file the toolkit writes.
_JSON_LAYOUT = {"indent": 2, "sort_keys": True}


def json_text(doc) -> str:
    """The text write_json writes for doc: keys sorted, two-space indents, a final newline."""
    return json.dumps(doc, **_JSON_LAYOUT) + "\n"


def write_json(path, doc) -> None:
    """Write json_text(doc) to path as UTF-8 with LF line ends. json.dump
    streams the text, so a large model file is never held whole in memory."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, **_JSON_LAYOUT)
        fh.write("\n")
