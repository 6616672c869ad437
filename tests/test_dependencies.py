"""numpy is the package's only runtime dependency outside the standard
library: every absolute import in src/seizurekit names a standard-library
module or numpy. Relative imports and imports under `if TYPE_CHECKING:`
are exempt."""

import ast
import sys
from pathlib import Path

import pytest

import seizurekit

PACKAGE = Path(seizurekit.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def outside_dependencies(source: str) -> list[str]:
    """The absolute imports in source whose top-level package is neither
    in the standard library nor numpy."""
    tree = ast.parse(source)
    exempt = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and _is_type_checking(block.test)
        for stmt in block.body
        for node in ast.walk(stmt)
    }
    names = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    allowed = sys.stdlib_module_names | {"numpy"}
    return [name for name in names if name.split(".")[0] not in allowed]


def test_the_check_finds_an_outside_import():
    source = (
        "from __future__ import annotations\nimport json, scipy.signal\nfrom . import edf\n"
        "from numpy.linalg import norm\nfrom typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    import pandas\nelse:\n    from sklearn import svm\n"
        "def f():\n    import torch\n"
    )
    assert sorted(outside_dependencies(source)) == ["scipy.signal", "sklearn", "torch"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_the_package_imports_only_the_standard_library_and_numpy(path):
    assert outside_dependencies(path.read_text(encoding="utf-8")) == []
