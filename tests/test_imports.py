"""A module loads when something uses it. A public name of `seizurekit` or
`seizurekit.models` imports its home module on first use, and `synth`,
`ingest` and `featurize` run without the model stack: no model, pipeline,
evaluation or SMOTE module is imported by them. `train`, `cv`, `eval` and
`predict` import no ingest code and only the model they run, plus kNN's
neighbour search when SMOTE runs."""

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


def _loaded(argv, cwd) -> set[str]:
    """sys.modules once `seizurekit argv` has run in a fresh interpreter.
    (-X importtime lists no module that importlib.import_module loads, as
    MODELS and the packages' public names do, so sys.modules is read.)"""
    code = "import sys\nfrom seizurekit.cli import main\nassert main(sys.argv[1:]) == 0\nprint(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-500:]
    return set(proc.stdout.splitlines()[-1].split())


def test_synth_ingest_and_featurize_import_no_model_code_and_train_does(tmp_path):
    (tmp_path / "edf").mkdir()
    (tmp_path / "edf" / "p01.edf").write_bytes(make_edf_bytes("p01", 40))
    runs = {
        "synth": ["--patients", "4", "--epochs-per-patient", "40", "--out", "synth"],
        "ingest": ["--edf-dir", "edf", "--out", "store"],
        "featurize": ["--store", "store", "--out", "feat"],
    }
    for command, argv in runs.items():
        modules = {m for m in _loaded([command, *argv], tmp_path) if m.startswith("seizurekit")}
        assert "seizurekit.cli" in modules
        assert not {m for m in modules if m.startswith(_MODEL_STACK)}, (command, sorted(modules))

    train = _loaded(["train", "--features", "synth/features.csv", "--model", "knn", "--out", "t"], tmp_path)
    assert set(_MODEL_STACK) <= train


def test_cli_options_is_one_dict_of_the_seven_commands():
    from seizurekit import cli

    assert cli.OPTIONS is cli.OPTIONS
    assert list(cli.OPTIONS) == ["synth", "ingest", "featurize", "train", "cv", "eval", "predict"]


_MODEL_MODULES = {f"seizurekit.models.{m}" for m in ("baseline", "forest", "knn", "logistic", "lstm", "svm")}


def test_a_model_command_loads_no_ingest_code_and_only_the_model_it_runs(tmp_path):
    _loaded(["synth", "--patients", "6", "--epochs-per-patient", "60", "--channels", "2", "--out", "s"], tmp_path)
    (tmp_path / "lr.json").write_text('{"model": "logreg", "model_params": {"max_iters": 20}, "smote": true}')
    (tmp_path / "rf.json").write_text('{"model": "rf", "model_params": {"n_trees": 2, "max_depth": 2}}')
    f = ["--features", "s/features.csv"]
    runs = [  # argv, the model module it runs, and whether SMOTE (which runs kNN's search) runs
        (["train", *f, "--config", "lr.json", "--out", "lr"], "logistic", True),
        (["train", *f, "--config", "rf.json", "--out", "rf"], "forest", False),
        (["cv", *f, "--config", "lr.json", "--k", "2", "--out", "cv"], "logistic", True),
        (["eval", *f, "--model", "rf/model.json", "--out", "eval"], "forest", False),
        (["predict", *f, "--model", "lr/model.json", "--out", "predict"], "logistic", False),
    ]
    bare = subprocess.run([sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
                          env=ENV, capture_output=True, text=True).stdout.split()
    for argv, model, smote in runs:
        modules = _loaded(argv, tmp_path)
        assert not {"seizurekit.edf", "seizurekit.store", "seizurekit.synthetic"} & modules, argv
        want = {f"seizurekit.models.{model}"} | ({"seizurekit.models.knn"} if smote else set())
        assert modules & _MODEL_MODULES == want, argv
        # numpy 1.x loads numpy.ma with numpy; numpy 2's plain np.unique does too.
        assert "numpy.ma" not in modules or bare == ["True"], argv
