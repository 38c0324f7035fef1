"""The package's public surface: every module's public name is exported by pnrlidar,
and the modules reach each other only through public names."""

import ast
from pathlib import Path

import pytest

import pnrlidar
from pnrlidar import photon_stats, rangefinder_sim, snr_analysis

MODULES = sorted(Path(pnrlidar.__file__).parent.glob("*.py"))


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
