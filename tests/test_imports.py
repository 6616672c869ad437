"""A module loads when something uses it. A public name of `seizurekit` or
`seizurekit.models` imports its home module on first use, and `synth`,
`ingest` and `featurize` run without the model stack: no model, pipeline,
evaluation or SMOTE module is imported by them."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seizurekit
import seizurekit.models
from tests.test_cli import make_edf_bytes

ENV = dict(os.environ, PYTHONPATH=str(Path(seizurekit.__file__).parents[1]))
PACKAGES = [seizurekit, seizurekit.models]

# The public names whose objects carry no __module__, and their home modules.
_PLAIN_VALUES = {"SPEC_VERSION": "seizurekit.version", "MODELS": "seizurekit.models.registry"}


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_every_public_name_is_its_home_modules_object_and_dir_lists_it(package):
    for name in package.__all__:
        value = getattr(package, name)
        home = _PLAIN_VALUES.get(name) or value.__module__
        assert home.startswith(package.__name__ + ".")
        assert value is getattr(importlib.import_module(home), name), name
    assert set(package.__all__) <= set(dir(package))
    assert package.__all__ == sorted(package.__all__)


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_an_unknown_name_is_an_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_a_star_import_binds_every_public_name(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == package.__all__


def test_a_bare_import_loads_no_submodule_until_one_is_used():
    code = (
        "import sys, seizurekit\n"
        "print(sorted(m for m in sys.modules if m.startswith('seizurekit.')))\n"
        "print(seizurekit.cli.__name__, seizurekit.pipeline.__name__)\n"
        # seizurekit.pipeline imported the module seizurekit.smote; the public
        # name smote is still its function.
        "print(seizurekit.smote is sys.modules['seizurekit.smote'].smote)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "seizurekit.cli seizurekit.pipeline", "True"]


_MODEL_STACK = ("seizurekit.models", "seizurekit.pipeline", "seizurekit.evaluation", "seizurekit.smote")


def _imported(argv, cwd) -> set[str]:
    """The seizurekit modules that `python -m seizurekit argv` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "seizurekit", *argv],
        cwd=cwd, env=ENV, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if "|" in line}
    return {name for name in names if name.startswith("seizurekit")}


def test_synth_ingest_and_featurize_import_no_model_code_and_train_does(tmp_path):
    (tmp_path / "edf").mkdir()
    (tmp_path / "edf" / "p01.edf").write_bytes(make_edf_bytes("p01", 40))
    runs = {
        "synth": ["--patients", "4", "--epochs-per-patient", "40", "--out", "synth"],
        "ingest": ["--edf-dir", "edf", "--out", "store"],
        "featurize": ["--store", "store", "--out", "feat"],
    }
    for command, argv in runs.items():
        modules = _imported([command, *argv], tmp_path)
        assert "seizurekit.cli" in modules
        assert not {m for m in modules if m.startswith(_MODEL_STACK)}, (command, sorted(modules))

    train = _imported(["train", "--features", "synth/features.csv", "--model", "knn", "--out", "t"], tmp_path)
    assert set(_MODEL_STACK) <= train


def test_cli_options_is_one_dict_of_the_seven_commands():
    from seizurekit import cli

    assert cli.OPTIONS is cli.OPTIONS
    assert list(cli.OPTIONS) == ["synth", "ingest", "featurize", "train", "cv", "eval", "predict"]
