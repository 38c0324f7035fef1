"""The package's public surface: every module's public name is exported by pnrlidar."""

import pytest

import pnrlidar
from pnrlidar import photon_stats, rangefinder_sim, snr_analysis


@pytest.mark.parametrize("module", [photon_stats, snr_analysis, rangefinder_sim], ids=lambda m: m.__name__)
def test_public_names_exist_and_are_exported(module):
    for name in module.__all__:
        assert hasattr(module, name), name
        assert getattr(pnrlidar, name, None) is getattr(module, name), name
