"""The parser matches the option table: every OPTIONS key that names a flag
gets that flag, the flag sets the key in the row's type, and the README's
table of config keys lists each command's settable keys."""

import re
import typing
from pathlib import Path

import pytest

from seizurekit import ConfigError
from seizurekit.cli import DASHED, FLAG_ONLY, OPTIONS, _options, build_parser, main

from tests.test_cli_options import _FILE_FLAGS, _settable


def _flags(command):
    """Each key of the command's OPTIONS entry that has a flag -> its flag."""
    return {
        key: "--" + key.replace("_", "-") if flag == DASHED else flag
        for key, (_, _, flag) in OPTIONS[command].items()
        if flag is not None
    }


def test_only_four_ingest_flags_are_spelled_unlike_their_keys():
    odd = {
        (command, key): flag
        for command in OPTIONS
        for key, flag in _flags(command).items()
        if flag != "--" + key.replace("_", "-")
    }
    assert odd == {
        ("ingest", "summaries"): "--summary",
        ("ingest", "epoch_len_s"): "--epoch-len",
        ("ingest", "horizon_s"): "--horizon",
        ("ingest", "highpass_hz"): "--highpass",
    }


@pytest.mark.parametrize("command", list(OPTIONS))
def test_help_lists_every_flag_of_the_commands_options(capsys, command):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    for flag in _flags(command).values():
        assert re.search(rf"^  {re.escape(flag)}(?=\s)", out, re.M), flag


# Values from a flag's choices; every other str flag takes any text.
_TEXT = {"model": "knn", "task": "prediction"}


@pytest.mark.parametrize("command, key", [(c, k) for c in OPTIONS for k in _flags(c)])
def test_a_flag_sets_its_key_in_the_rows_type(tmp_path, command, key):
    kind, flag = OPTIONS[command][key][0], _flags(command)[key]
    if kind in (bool, FLAG_ONLY):
        words, want = [flag], True
    elif typing.get_origin(kind) is list:
        words, want = [flag, "a.txt", flag, "b.txt"], ["a.txt", "b.txt"]
    else:
        text = _TEXT.get(key, {int: "3", float: "0.5", str: "x"}[kind])
        words, want = [flag, text], kind(text)
    argv = [command, "--out", str(tmp_path / "out"), *words]
    for file_flag in _FILE_FLAGS.get(command, ()):
        argv += [file_flag, str(tmp_path / "missing")]
    opts, given = _options(build_parser().parse_args(argv))
    assert key in given
    assert opts[key] == want and type(opts[key]) is type(want)


def test_the_readme_config_key_table_matches_options():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    start = re.search(r"Each\s+subcommand\s+takes\s+only\s+the\s+keys\s+it\s+uses", text).end()
    lines = text[start:].splitlines()[1:]
    table = {}
    for line in lines:
        if table and not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("|") and cells[0].startswith("`"):
            table[cells[0].strip("`")] = re.findall(r"`([^`]+)`", cells[1])
    assert {command: sorted(keys) for command, keys in table.items()} == {
        command: _settable(command) for command in OPTIONS
    }


# Per command, a flag given a value its parser refuses.
_BAD_VALUE = {
    "synth": ["--patients", "x"],
    "ingest": ["--task", "nope"],
    "featurize": ["--pool-channels", "yes"],
    "train": ["--model", "nope"],
    "eval": ["--seed", "1.5"],
    "cv": ["--k", "x"],
    "predict": ["--threshold", "x"],
}


@pytest.mark.parametrize("command", list(OPTIONS))
def test_main_parses_with_the_full_parsers_help_and_errors(command, capsys):
    """main builds only the named command's arguments; its help text, error
    and exit code are the full parser's."""
    with pytest.raises(SystemExit) as full:
        build_parser().parse_args([command, "--help"])
    want = capsys.readouterr()
    with pytest.raises(SystemExit) as got:
        main([command, "--help"])
    assert capsys.readouterr() == want and got.value.code == full.value.code == 0

    argv = [command, *_BAD_VALUE[command], "--out", "unused"]
    argv += ["--features", "unused.csv"] if command in ("train", "eval", "cv", "predict") else []
    argv += ["--model", "unused.json"] if command in ("eval", "predict") else []
    with pytest.raises(ConfigError) as error:
        build_parser().parse_args(argv)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {error.value}\n"
