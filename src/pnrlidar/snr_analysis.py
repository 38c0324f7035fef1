"""SNR of threshold detection versus intensity detection.

For a coherent signal of mean n_p buried in thermal background of mean n_th,
intensity detection has

    SNR_c = (n_p + n_th) / n_th,

while a detector that fires only when the photon count reaches N has

    SNR_q = P_mixed(count >= N) / x^N,    x = n_th / (n_th + 1),

the exceedance probability of the signal-plus-noise law over that of noise
alone.  SNR_q is monotone increasing in both n_p and N; whether it beats
SNR_c depends on (n_p, n_th, N).  This module evaluates both closed forms
and the analytic derivative of SNR_q, and maps the advantage region: ratio
sweeps over signal grids, the signal mean that maximizes the ratio at fixed
noise, and the ratio == 1 boundary in the (n_th, n_p) plane (a scan and a
bisection, each in lockstep over thresholds and noise levels).  The
maximizing signal mean is the root of

    rise = n_p S / n_th - P_poisson(n >= N) / x^N,    S = sum_{m<N} p_p(m) x^(-m),

which has the sign of d(ratio)/d(n_p): one scan brackets it, and Newton
steps on rise and its analytic slope refine it.

Every value comes from one array evaluation over whole grids
(:func:`pnrlidar.photon_stats.mixed_tail_parts`), which tabulates the
Poisson terms and running sums once per (n_p, n_th) point, with the term
index as the row, and reads each threshold N from its rows: a sweep over
every threshold is one call, the optimum searches of all thresholds run
in lockstep, and so do the boundary searches of all thresholds and noise
levels.  The boundary scan takes its noise levels in chunks of at most
_SCAN_CHUNK elements per call, so its memory does not grow with the noise
grid.  The scalar functions evaluate a grid of one point, and give the
bits of the matching array element.  Zero thermal noise is a domain error
throughout: the intensity SNR divides by n_th, and the daylight regime this
targets is noise-dominated.  So is noise small enough that x^N underflows
double precision, where SNR_q cannot be represented.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .photon_stats import SourceParams, mixed_tail_parts

__all__ = [
    "ZeroNoiseError",
    "SearchError",
    "SnrReport",
    "OptimumPoint",
    "BoundaryCurve",
    "classical_snr",
    "quantum_snr",
    "snr_ratio",
    "snr_report",
    "quantum_snr_derivative",
    "sweep_ratio",
    "find_optima",
    "find_boundary",
    "log_grid",
]

# Search and root-finding tolerances; module-wide so tables are reproducible.
OPTIMUM_RELATIVE_TOL = 1e-6
OPTIMUM_BRACKET = (1e-3, 1e3)
OPTIMUM_BRACKET_POINTS = 200
BOUNDARY_ABS_TOL = 1e-6
BOUNDARY_RATIO_TOL = 1e-5
BOUNDARY_SCAN_RANGE = (1e-4, 1e4)
BOUNDARY_SCAN_POINTS = 300
# Boundary scan elements (thresholds x noise levels x points) per array
# call: memory stays bounded on long noise grids.  At boundary's defaults
# (4 x 60 x 300; Xeon core, numpy 2.4, best of 15) one level per call took
# 28 ms, calls of 25k elements 14.7 ms, and one call of all 72k 17 ms; the
# traced peak grows with the call, 3.3 MiB at 25k and 9.0 MiB at 100k.
_SCAN_CHUNK = 25_000


class ZeroNoiseError(ValueError):
    """Raised when n_th == 0: the SNR comparison needs a noise floor."""


class SearchError(RuntimeError):
    """Raised when a 1-D search finds no interior optimum in its bracket."""


@dataclass(frozen=True)
class SnrReport:
    """Classical and per-threshold quantum SNR, plus their ratios."""

    params: SourceParams
    classical: float
    quantum: dict[int, float]
    ratio: dict[int, float]


@dataclass(frozen=True)
class OptimumPoint:
    """Signal mean that maximizes the SNR ratio at fixed noise and threshold."""

    threshold_n: int
    n_th_mean: float
    best_n_p_mean: float
    best_ratio: float


@dataclass(frozen=True)
class BoundaryCurve:
    """Locus of ratio == 1 points bounding the threshold-advantage region.

    ``points`` holds (n_th_mean, n_p_mean) pairs, one per grid noise level
    with a crossing; the region below each point has ratio > 1, and
    ``ratios`` holds the SNR ratio at each point (within BOUNDARY_RATIO_TOL
    of 1).  Noise levels without a crossing are listed in ``no_crossing``
    with the scanned ratio's sign ("above" if the ratio stayed above 1
    everywhere, "below" otherwise).  ``multiple_crossings`` flags noise
    levels where the scan saw more than one sign change; the largest-n_p
    crossing is the one kept.
    """

    threshold_n: int
    points: tuple[tuple[float, float], ...]
    ratios: tuple[float, ...] = ()
    no_crossing: tuple[tuple[float, str], ...] = ()
    multiple_crossings: tuple[float, ...] = ()


def _check_params(params: SourceParams) -> SourceParams:
    if params.n_th_mean == 0.0:
        raise ZeroNoiseError("n_th_mean must be > 0 for SNR analysis")
    return params


def _snr_terms(
    n_p: ArrayLike, n_th: ArrayLike, threshold_n: ArrayLike
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(quantum_snr, snr_ratio, quantum_snr_derivative, rise, rise_slope) over broadcast arrays.

    One call of :func:`mixed_tail_parts`, the package's one array kernel;
    ``threshold_n`` broadcasts with ``n_p`` and ``n_th``.  With u = 1/n_th,
    T = P_poisson(n >= N) and S the kernel's ``scaled`` sum, the quantum
    SNR is assembled as T / x^N + S, which is exactly 1 at n_p == 0, and
    its derivative is u S.  The
    ratio's derivative is u rise / (1 + n_p u)^2, so it has the sign of

        rise = n_p u S - T / x^N,

    a difference of positive terms that cancel only at the ratio's maximum.
    Its derivative (1 + n_p u) (u S - p_p(N-1) / x^N) is assembled as

        rise_slope = (1 + n_p u) (u H - p_p(N-1) x^(1-N)),

    with H the kernel's ``head`` (S without its last term): the first form
    subtracts two terms of size x^-N to leave one of size x^(1-N), which
    loses all its digits once the noise is below about 1e-16.

    A value that double precision cannot hold is refused with a ValueError
    naming n_th and N of the first such element in input order (C order of
    the broadcast): x^N below the smallest normal double (tiny noise at a
    deep threshold), or an SNR or derivative that overflows.
    """
    n_th = np.asarray(n_th, dtype=float)
    if not ((n_th > 0.0) & (n_th < math.inf)).all():
        if (n_th == 0.0).any():
            raise ZeroNoiseError("n_th_mean must be > 0 for SNR analysis")
        bad = n_th[~((n_th > 0.0) & (n_th < math.inf))]
        raise ValueError(f"n_th_mean must be finite and >= 0, got {float(bad[0])!r}")
    x = n_th / (n_th + 1.0)
    poisson, scaled, last, head = mixed_tail_parts(threshold_n, n_p, x)
    big_n = np.asarray(threshold_n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # x^2 as x * x, correctly rounded whether N is a scalar or an array:
        # numpy's power loop rounds differently, and takes a scalar exponent
        # 2 to x * x only on long arrays.
        x_n = np.where(big_n == 2, x * x, np.power(x, big_n.astype(float)))
        poisson_part = poisson / x_n
        quantum = poisson_part + scaled
        classical = (n_p + n_th) / n_th
        ratio = quantum / classical
        # u S with u = 1/n_th, not (1/x - 1) S: 1/x - 1 loses log10(n_th)
        # digits to cancellation.
        slope = scaled / n_th
        rise = n_p * slope - poisson_part
        rise_slope = classical * (head / n_th - last * x / x_n)
    underflow = np.broadcast_to(x_n < sys.float_info.min, ratio.shape)
    failed = underflow | ~(np.isfinite(quantum) & np.isfinite(classical) & np.isfinite(slope))
    if failed.any():
        at = np.unravel_index(int(np.argmax(failed)), failed.shape)
        n_th_at = float(np.broadcast_to(n_th, failed.shape)[at])
        n_at = int(np.broadcast_to(big_n, failed.shape)[at])
        if underflow[at]:
            raise ValueError(
                f"n_th = {n_th_at!r} is too small for threshold N = {n_at}: "
                "x^N underflows, so the SNR is not representable"
            )
        raise ValueError(f"SNR at n_th = {n_th_at!r}, threshold N = {n_at} overflows double precision")
    return quantum, ratio, slope, rise, rise_slope


def classical_snr(params: SourceParams) -> float:
    """Intensity-detection SNR: (n_p + n_th) / n_th."""
    _check_params(params)
    value = (params.n_p_mean + params.n_th_mean) / params.n_th_mean
    if value == math.inf:
        raise ValueError(f"intensity SNR at n_th = {params.n_th_mean!r} overflows double precision")
    return value


def quantum_snr(params: SourceParams, threshold_n: int) -> float:
    """Threshold-detection SNR at threshold N: mixed exceedance over x^N.

    Built from the positive terms of the threshold identity, so the value
    is exactly 1 at n_p == 0 and free of cancellation for deep thresholds.
    """
    return float(_snr_terms(params.n_p_mean, params.n_th_mean, threshold_n)[0][0])


def snr_ratio(params: SourceParams, threshold_n: int) -> float:
    """quantum_snr / classical_snr; > 1 where thresholding wins."""
    return float(_snr_terms(params.n_p_mean, params.n_th_mean, threshold_n)[1][0])


def snr_report(params: SourceParams, thresholds: Sequence[int]) -> SnrReport:
    """Evaluate classical and quantum SNR at each threshold."""
    classical = classical_snr(params)
    big_n = np.asarray(thresholds)
    quantum, ratio = _snr_terms(params.n_p_mean, params.n_th_mean, big_n)[:2]
    keys = [int(n) for n in big_n.tolist()]
    return SnrReport(params, classical, dict(zip(keys, quantum.tolist())), dict(zip(keys, ratio.tolist())))


def quantum_snr_derivative(params: SourceParams, threshold_n: int) -> float:
    """d(quantum_snr)/d(n_p) at fixed noise and threshold; strictly positive.

    Closed form (1/x - 1) e^(n_p/x - n_p) Gamma(n_p/x, N) / (N-1)!, computed
    as the rescaled sum sum_{m<N} p_p(m) x^(-m) / n_th so the exponential
    factor never overflows.  One point of an array that
    :func:`find_optima` reads: it is the u S of ``rise`` = n_p u S - T / x^N
    (see ``_snr_terms``), whose root is the optimum.
    """
    return float(_snr_terms(params.n_p_mean, params.n_th_mean, threshold_n)[2][0])


def sweep_ratio(
    n_th_mean: float, thresholds: Sequence[int], n_p_grid: Sequence[float]
) -> np.ndarray:
    """SNR ratio over a signal-mean grid for each threshold, in one array call.

    Returns the (thresholds x grid) array whose element [i, j] is
    snr_ratio at n_p_grid[j] and thresholds[i], bit for bit.
    """
    grid = [float(v) for v in n_p_grid]
    if not grid:
        raise ValueError("n_p_grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_p_grid must be strictly increasing")
    return _snr_terms(np.array(grid), n_th_mean, np.asarray(thresholds)[:, None])[1]


def log_grid(lo: float, hi: float, points: int) -> list[float]:
    """Logarithmically spaced grid, endpoints included."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got {lo!r} and {hi!r}")
    if not (0.0 < lo < hi) or points < 2:
        raise ValueError("need 0 < lo < hi and at least 2 points")
    log_lo = math.log(lo)
    step = (math.log(hi) - log_lo) / (points - 1)
    inner = [math.exp(log_lo + i * step) for i in range(1, points - 1)]
    return [lo, *inner, hi]


def find_optima(n_th_mean: float, thresholds: Sequence[int]) -> list[OptimumPoint]:
    """Signal mean maximizing the SNR ratio at fixed noise, per threshold.

    The maximum is the root of ``rise`` (see ``_snr_terms``), which has the
    sign of d(ratio)/d(n_p).  One log-spaced scan of OPTIMUM_BRACKET_POINTS
    over the bracket brackets each threshold's root by its first cell where
    rise turns from positive to not positive; a threshold without one has
    no interior maximum: SearchError, for the first such threshold in input
    order.  The bracket is OPTIMUM_BRACKET, its lower end lowered to
    0.1 / n_th above n_th = 100, where N = 2's optimum nears 2 / n_th.
    From the secant of rise across that cell, Newton steps in log(n_p)
    refine the root, bisecting instead where a step would leave the
    bracket.  The point reached by the first step of at most
    OPTIMUM_RELATIVE_TOL squared is returned with its ratio: quadratic
    convergence leaves it exact to rounding, where stopping after a step of
    OPTIMUM_RELATIVE_TOL would leave errors up to 7e-12 (n_th = 3000, N = 50).
    A point that neither a step nor bisection can move is returned as it is.  The thresholds are searched in
    lockstep, one array call per step; a threshold's search gives the same
    bits as it does alone.  Results follow the input order.
    """
    if n_th_mean <= 0.0:
        raise ZeroNoiseError("n_th_mean must be > 0 for SNR analysis")
    low = 0.1 / n_th_mean if math.isfinite(n_th_mean) else math.inf
    bracket = (min(OPTIMUM_BRACKET[0], low), OPTIMUM_BRACKET[1])
    big_n = np.asarray(thresholds)
    grid = np.array(log_grid(*bracket, OPTIMUM_BRACKET_POINTS))
    rise = _snr_terms(grid, n_th_mean, big_n[:, None])[3]
    peak = (rise[:, :-1] > 0.0) & (rise[:, 1:] <= 0.0)
    found = peak.any(axis=1)
    if not found.all():
        n = int(big_n[np.argmin(found)])
        raise SearchError(f"no interior ratio maximum for N={n}, n_th={n_th_mean} in bracket {bracket}")
    live, cell = np.arange(big_n.size), np.argmax(peak, axis=1)
    lo, hi, up, down = grid[cell], grid[cell + 1], rise[live, cell], rise[live, cell + 1]
    n_p = np.clip(lo * (hi / lo) ** (up / (up - down)), lo, hi)
    best_n_p, best_ratio, settled = np.empty(big_n.size), np.empty(big_n.size), np.zeros(big_n.size, bool)
    while live.size:
        _, ratio, _, rise, rise_slope = _snr_terms(n_p, n_th_mean, big_n[live])
        lo, hi = np.where(rise > 0.0, n_p, lo), np.where(rise > 0.0, hi, n_p)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = -rise / (n_p * rise_slope)
            newton = n_p * np.exp(step)
        inside = (lo < newton) & (newton < hi)
        following = np.where(inside, newton, np.sqrt(lo) * np.sqrt(hi))
        done = settled | (newton == n_p) | (following <= lo) | (following >= hi)
        best_n_p[live[done]], best_ratio[live[done]] = n_p[done], ratio[done]
        settled = inside & (np.abs(step) <= OPTIMUM_RELATIVE_TOL**2)
        live, n_p, lo, hi, settled = (a[~done] for a in (live, following, lo, hi, settled))
    return [
        OptimumPoint(int(n), float(n_th_mean), p, r)
        for n, p, r in zip(big_n.tolist(), best_n_p.tolist(), best_ratio.tolist())
    ]


def find_boundary(thresholds: Sequence[int], n_th_grid: Sequence[float]) -> list[BoundaryCurve]:
    """Map the ratio == 1 boundary over a grid of noise means, per threshold.

    The search runs in lockstep over thresholds and noise levels.  Each
    (N, n_th) pair is scanned on a log grid of BOUNDARY_SCAN_POINTS over
    BOUNDARY_SCAN_RANGE on the signal axis, every threshold and up to
    _SCAN_CHUNK / (thresholds x points) noise levels in one array call, so
    memory stays bounded on long noise grids.  At each pair the
    largest-n_p sign change of (ratio - 1) bounds the advantage region from
    above, matching a region that sits below the curve.  Every crossing of
    the grid is bisected in one loop, one array call per step; each stops
    once its bracket is within BOUNDARY_ABS_TOL and |ratio - 1| <=
    BOUNDARY_RATIO_TOL at the midpoint, whose ratio is kept with the point,
    and is reported as "unresolved" if its bracket collapses or 300 steps
    pass first.  Levels with no sign change are reported rather than
    guessed, and levels with several crossings are flagged.  Each curve has
    the bits of a search of its threshold alone, one noise level at a time.
    Curves follow the input order.
    """
    big_n = np.asarray(thresholds)
    levels = np.asarray(n_th_grid, dtype=float)
    if (levels <= 0.0).any():
        raise ZeroNoiseError("n_th grid values must be > 0")
    scan = np.array(log_grid(*BOUNDARY_SCAN_RANGE, BOUNDARY_SCAN_POINTS))
    shape = (big_n.size, levels.size)
    crossings, cell = np.zeros(shape, int), np.zeros(shape, int)
    f_lo, above = np.zeros(shape), np.zeros(shape, bool)
    chunk = max(1, _SCAN_CHUNK // (scan.size * max(big_n.size, 1)))
    for start in range(0, levels.size, chunk):
        part = slice(start, start + chunk)
        excess = _snr_terms(scan, levels[part, None], big_n[:, None, None])[1] - 1.0
        change = (excess[..., 1:] > 0.0) != (excess[..., :-1] > 0.0)
        crossings[:, part] = change.sum(axis=-1)
        cell[:, part] = change.shape[-1] - 1 - np.argmax(change[..., ::-1], axis=-1)
        f_lo[:, part] = np.take_along_axis(excess, cell[:, part, None], axis=-1)[..., 0]
        above[:, part] = excess[..., scan.size // 2] > 0.0

    # Lockstep bisection over every crossing, by its flat (threshold, noise level) index.
    lo, hi, f_lo = scan[cell].ravel(), scan[cell + 1].ravel(), f_lo.ravel()
    noise, n_of = np.tile(levels, big_n.size), np.repeat(big_n, levels.size)
    roots, root_ratios = np.full(lo.size, np.nan), np.full(lo.size, np.nan)
    live = np.flatnonzero(crossings)
    for _ in range(300):
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        ratio = _snr_terms(mid, noise[live], n_of[live])[1]
        f_mid = ratio - 1.0
        found = (hi[live] - lo[live] <= BOUNDARY_ABS_TOL) & (np.abs(f_mid) <= BOUNDARY_RATIO_TOL)
        roots[live[found]] = mid[found]
        root_ratios[live[found]] = ratio[found]
        same = (f_lo[live] < 0.0) == (f_mid < 0.0)
        lo[live[same]], f_lo[live[same]] = mid[same], f_mid[same]
        hi[live[~same]] = mid[~same]
        live = live[~found & (hi[live] != lo[live])]

    roots, root_ratios = roots.reshape(shape), root_ratios.reshape(shape)
    side = np.where(crossings > 0, "unresolved", np.where(above, "above", "below"))
    return [
        BoundaryCurve(
            int(n),
            tuple(zip(levels[ok].tolist(), p[ok].tolist())),
            tuple(r[ok].tolist()),
            tuple(zip(levels[~ok].tolist(), s[~ok].tolist())),
            tuple(levels[c > 1].tolist()),
        )
        for n, ok, p, r, s, c in zip(big_n.tolist(), ~np.isnan(roots), roots, root_ratios, side, crossings)
    ]
