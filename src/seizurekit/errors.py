"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
LeakageError -> 3.
"""

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
