"""Photon-number threshold detection: statistics, SNR analysis, simulation."""

from .photon_stats import (
    PhotonPmf,
    PmfTruncationError,
    SourceKind,
    SourceParams,
    build_pmf,
    mixed_pmf,
    mixed_tail,
    mixed_tail_terms,
    poisson_pmf,
    sample_histogram,
    thermal_pmf,
    thermal_tail,
)
from .snr_analysis import (
    BoundaryCurve,
    OptimumPoint,
    SearchError,
    SnrReport,
    ZeroNoiseError,
    classical_snr,
    find_boundary,
    find_optima,
    log_grid,
    quantum_snr,
    quantum_snr_derivative,
    snr_ratio,
    snr_report,
    sweep_ratio,
)
from .rangefinder_sim import (
    DegenerateNoiseError,
    ExpectedResult,
    RatioEstimate,
    SimConfig,
    SimResult,
    UndefinedRatioError,
    estimate_ratio,
    expected_result,
    normalize,
    run_simulation,
)

__version__ = "0.1.0"
