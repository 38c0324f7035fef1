"""Photon-number threshold detection: statistics, SNR analysis, simulation."""

# Each module's __all__ is the package's public surface.
from .photon_stats import *
from .snr_analysis import *
from .rangefinder_sim import *

__version__ = "0.1.0"
