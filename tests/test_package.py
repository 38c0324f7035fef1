"""The package's public surface: every module's public name is exported by pnrlidar,
and the modules reach each other only through public names."""

import ast
from pathlib import Path

import pytest

import pnrlidar
from pnrlidar import photon_stats, rangefinder_sim, snr_analysis

MODULES = sorted(Path(pnrlidar.__file__).parent.glob("*.py"))
TESTS = Path(__file__).parent


@pytest.mark.parametrize("module", [photon_stats, snr_analysis, rangefinder_sim], ids=lambda m: m.__name__)
def test_public_names_exist_and_are_exported(module):
    for name in module.__all__:
        assert hasattr(module, name), name
        assert getattr(pnrlidar, name, None) is getattr(module, name), name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_only_public_names_of_each_other(path):
    private = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "pnrlidar":
            continue
        private += [
            f"{'.' * node.level}{node.module or ''} import {alias.name}"
            for alias in node.names
            if alias.name.startswith("_") and not (alias.name.startswith("__") and alias.name.endswith("__"))
        ]
    assert not private, private


def imported_modules(path):
    """The top-level names of the modules that ``path`` imports absolutely, anywhere in it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", [*sorted(TESTS.glob("*.py")), TESTS / "data" / "record.py"],
                         ids=lambda p: p.relative_to(TESTS).as_posix())
def test_oracles_stand_apart_from_the_package_and_the_test_modules(path):
    # shared references live in tests/oracles.py, never in a test module, and
    # an oracle that read the code under test would check nothing
    modules = imported_modules(path)
    assert not {name for name in modules if name.startswith("test_")}, path.name
    assert path.name != "oracles.py" or "pnrlidar" not in modules
