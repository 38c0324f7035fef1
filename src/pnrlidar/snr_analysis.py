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
noise, and the ratio == 1 boundary in the (n_th, n_p) plane.  The
maximizing signal mean is the root of

    rise = n_p S / n_th - P_poisson(n >= N) / x^N,    S = sum_{m<N} p_p(m) x^(-m),

which has the sign of d(ratio)/d(n_p), and a boundary point is a root of
ratio - 1, whose slope is a multiple of rise.  Both searches are a scan for
a sign change and then one root loop, shared by both: safeguarded Newton
steps in log(n_p) on the function and its analytic slope, in lockstep over
thresholds and noise levels.  The optimum's scan runs coarse to fine, since
rise changes sign at most once on its grid; the boundary's reads every
point, since it counts every sign change.

Three facts shape these searches.  For N >= 2, rise changes sign once,
from + to -: so the ratio rises from 1 at n_p = 0 to one maximum and then
falls toward x^-N / (1 + n_p / n_th) -> 0, crossing 1 exactly once, above
the maximum (``test_rise_brackets_one_root`` checks rise's single sign
change over the optimum's bracket, for n_th from 1e-2 to 1e6).  For N = 1
the excess of SNR_q over SNR_c is (1 - n_p - e^-n_p) / n_th < 0 for every
n_p > 0, so a click detector, which realises only N = 1, never beats
intensity detection: :func:`find_optima` refuses N = 1 saying so, and so
does the CLI's boundary command when its table is empty
(``test_single_threshold_never_beats_intensity`` checks the closed form
against the exact excess in 40-digit mpmath).  So every
``multiple_crossings`` flag found so far, all at n_th >= 2000, is rounding
noise: ratio - 1 loses its digits there, and an exact excess would show
one crossing.

At both ends of the noise axis the advantage region has closed forms in
the limit.  At high noise, expanding (1 + u)^m in u = 1/n_th turns the
excess of the quantum SNR over the classical one into

    u^2 E[C(min(n, N), 2)] - u E[(n - N)^+] + O(u^3 n_p^3),

n the Poisson count, a difference of positive terms.  At small n_p this
puts the boundary at n_p* -> ((N+1)! / (2 n_th))^(1/(N-1)) (3 / n_th for
N = 2) and the maximizing signal mean at (N! / n_th)^(1/(N-1)), each to a
relative O(n_p*).  At low noise the boundary lies on the saturated branch,
where P_poisson(n >= N) -> 1 and S -> 0 up to e^-n_p, so the ratio
tends to x^-N / (1 + n_p / n_th) and n_p* -> n_th ((1 + 1/n_th)^N - 1).
The tests check the three limits against mpmath roots of the exact ratio.

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
# The optimum's cells: a log grid of OPTIMUM_BRACKET_POINTS over the bracket,
# which the scan reads coarse to fine (every _OPTIMUM_COARSE_STEP-th point and
# the last, then the points of each threshold's bracketing coarse cell).
OPTIMUM_BRACKET_POINTS = 200
# At n_th = 1 and N = 2..20, steps 2, 3, 4, 5, 6, 8 and 13 gave find_optima
# traced peaks of 161, 172, 154, 145, 140, 162 and 265 KB (260 KB reading
# every point), and at N = 2..40 steps 4, 5 and 6 gave 272, 349 and 427 KB:
# the fine call's kernel floor grows with its elements (Xeon, numpy 2.4).
_OPTIMUM_COARSE_STEP = 4
BOUNDARY_RATIO_TOL = 1e-5
BOUNDARY_SCAN_RANGE = (1e-4, 1e4)
BOUNDARY_SCAN_POINTS = 300
# Boundary scan elements (thresholds x noise levels x points) per array
# call: memory stays bounded on long noise grids.  At boundary's defaults
# (4 x 60 x 300; Xeon core, numpy 2.4, best of 15) one level per call took
# 17.9 ms, calls of 25k elements 9.3 ms, and one call of all 72k 9.9 ms; the
# traced peak grows with the call, 2.4 MiB at 25k and 9.8 MiB at 100k (on
# 1000 levels).
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
    with a resolved crossing; the region below each point has ratio > 1,
    and ``ratios`` holds the SNR ratio at each point (1 to rounding, and
    always within BOUNDARY_RATIO_TOL of 1).  Every other noise level is
    listed in ``no_crossing`` with a side: without a crossing, the scanned
    ratio's sign ("above" if the ratio stayed above 1 everywhere, "below"
    otherwise); with one, "unresolved", where the root search ended on a
    point more than BOUNDARY_RATIO_TOL from ratio == 1.
    ``multiple_crossings`` flags noise levels where the scan saw more than
    one sign change, as (n_th_mean, sign changes) pairs; the largest-n_p
    crossing is the one kept.
    """

    threshold_n: int
    points: tuple[tuple[float, float], ...]
    ratios: tuple[float, ...] = ()
    no_crossing: tuple[tuple[float, str], ...] = ()
    multiple_crossings: tuple[tuple[float, int], ...] = ()


def _check_params(params: SourceParams) -> SourceParams:
    if params.n_th_mean == 0.0:
        raise ZeroNoiseError("n_th_mean must be > 0 for SNR analysis")
    return params


def _snr_terms(
    n_p: ArrayLike, n_th: ArrayLike, threshold_n: ArrayLike, rise_slope: bool = False
) -> tuple[np.ndarray, ...]:
    """(quantum_snr, snr_ratio, quantum_snr_derivative, rise) over broadcast arrays,
    and with ``rise_slope=True`` rise's derivative in n_p fifth.

    One call of :func:`mixed_tail_parts`, the package's one array kernel;
    ``threshold_n`` broadcasts with ``n_p`` and ``n_th``.  Only the Newton
    steps of :func:`find_optima` ask for the slope: the kernel then reads
    its two slope parts too, 16 B more an element at its traced peak.  With
    u = 1/n_th, T = P_poisson(n >= N) and S the kernel's ``scaled`` sum, the
    quantum SNR is assembled as T / x^N + S, which is exactly 1 at
    n_p == 0, and its derivative is u S.  The ratio's derivative is
    u rise / (1 + n_p u)^2, so it has the sign of

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
        raise ValueError(f"n_th_mean must be finite and > 0, got {float(bad[0])!r}")
    x = n_th / (n_th + 1.0)
    poisson, scaled, *slope_parts = mixed_tail_parts(threshold_n, n_p, x, slope_parts=rise_slope)
    big_n = np.asarray(threshold_n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # x^2 as x * x, correctly rounded whether N is a scalar or an array:
        # numpy's power loop rounds differently, and takes a scalar exponent
        # 2 to x * x only on long arrays.
        x_n = np.where(big_n == 2, x * x, np.power(x, big_n.astype(float)))
        classical = (n_p + n_th) / n_th
        # in place, each operation as the docstring writes it: rise_slope in
        # head, slope in scaled, rise in poisson; quantum and the ratio in
        # new arrays, made after the kernel's peak
        if slope_parts:
            last, head = slope_parts
            np.divide(head, n_th, out=head)
            np.divide(np.multiply(last, x, out=last), x_n, out=last)
            slope_parts = [np.multiply(classical, np.subtract(head, last, out=head), out=head)]
            del last, head
        poisson_part = np.divide(poisson, x_n, out=poisson)
        quantum = np.add(poisson_part, scaled)
        # u S with u = 1/n_th, not (1/x - 1) S: 1/x - 1 loses log10(n_th)
        # digits to cancellation.
        slope = np.divide(scaled, n_th, out=scaled)
        ratio = np.multiply(n_p, slope)
        rise = np.subtract(ratio, poisson_part, out=poisson)
        np.divide(quantum, classical, out=ratio)
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
    return (quantum, ratio, slope, rise, *slope_parts)


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


def _lockstep_roots(terms, lo, hi, up, down) -> tuple[np.ndarray, np.ndarray]:
    """Roots of f in brackets lo < hi with f(lo) = up >= 0 >= down = f(hi), up > down.

    ``terms(n_p, live)`` gives, from one array call, f, its slope in log(n_p)
    and a value to keep at the points n_p of the searches numbered ``live``.
    Each search starts from the secant of f in log(n_p) across its bracket
    and takes Newton steps in log(n_p), bisecting (geometrically) instead
    where a step would leave the bracket; every evaluation shrinks the
    bracket to the side where f changes sign.  A root is the point reached
    by the first step of at most OPTIMUM_RELATIVE_TOL squared, or a point
    that no step can move, and is returned with its value.  The searches run
    in lockstep, one call per step, and each gives the bits it gives alone.
    """
    live = np.arange(lo.size)
    n_p = np.clip(lo * (hi / lo) ** (up / (up - down)), lo, hi)
    roots, values, settled = np.empty(lo.size), np.empty(lo.size), np.zeros(lo.size, bool)
    while live.size:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            f, slope, value = terms(n_p, live)
            lo, hi = np.where(f > 0.0, n_p, lo), np.where(f > 0.0, hi, n_p)
            step = -f / slope
            newton = n_p * np.exp(step)
        inside = (lo < newton) & (newton < hi)
        following = np.where(inside, newton, np.sqrt(lo) * np.sqrt(hi))
        done = settled | (newton == n_p) | (following <= lo) | (following >= hi)
        roots[live[done]], values[live[done]] = n_p[done], value[done]
        settled = inside & (np.abs(step) <= OPTIMUM_RELATIVE_TOL**2)
        live, n_p, lo, hi, settled = (a[~done] for a in (live, following, lo, hi, settled))
    return roots, values


def find_optima(n_th_mean: float, thresholds: Sequence[int]) -> list[OptimumPoint]:
    """Signal mean maximizing the SNR ratio at fixed noise, per threshold.

    The maximum is the root of ``rise`` (see ``_snr_terms``), which has the
    sign of d(ratio)/d(n_p).  Each threshold's root is bracketed by the
    first cell of a log-spaced grid of OPTIMUM_BRACKET_POINTS over the
    bracket where rise turns from positive to not positive, found coarse
    to fine.  A coarse scan reads every _OPTIMUM_COARSE_STEP-th grid point
    and the last; a threshold without a positive to not positive coarse
    cell has no interior maximum: SearchError, for the first such threshold
    in input order; for N = 1 it states the theorem that N = 1 never beats
    intensity.  A second call reads the grid points inside each threshold's
    first such coarse cell, whose ends it takes from the coarse scan, and
    keeps the first positive to not positive grid cell there.
    Rise changes sign at most once on this grid (the tests check it over
    the bracket and noise levels from 1e-2 to 1e6), so the first such cell
    of the whole grid lies in the first such coarse cell, and a kernel
    element's bits do not depend on the other elements of its call: the
    cell, its ends' values and every bit below are those of a scan of the
    whole grid, from about a quarter of its elements.  The bracket is
    OPTIMUM_BRACKET, its lower end lowered to 0.1 / n_th above n_th = 100,
    where N = 2's optimum nears 2 / n_th.
    The root loop that the boundary search shares (``_lockstep_roots``)
    refines each root from that cell by safeguarded Newton steps in
    log(n_p) on rise and its analytic slope, from the scan's values at the
    cell's ends and one array call per step over every threshold.  A root
    is returned with its ratio: stopping at the first step of
    OPTIMUM_RELATIVE_TOL squared leaves it exact to rounding, where stopping
    after a step of OPTIMUM_RELATIVE_TOL would leave errors up to 7e-12
    (n_th = 3000, N = 50).  A threshold's search gives the same bits as it
    does alone.  Results follow the input order.
    """
    if n_th_mean <= 0.0:
        raise ZeroNoiseError("n_th_mean must be > 0 for SNR analysis")
    low = 0.1 / n_th_mean if math.isfinite(n_th_mean) else math.inf
    bracket = (min(OPTIMUM_BRACKET[0], low), OPTIMUM_BRACKET[1])
    big_n = np.asarray(thresholds)
    grid = np.array(log_grid(*bracket, OPTIMUM_BRACKET_POINTS))
    coarse = np.r_[0 : grid.size - 1 : _OPTIMUM_COARSE_STEP, grid.size - 1]
    rise = _snr_terms(grid[coarse], n_th_mean, big_n[:, None])[3]
    peak = (rise[:, :-1] > 0.0) & (rise[:, 1:] <= 0.0)
    found = peak.any(axis=1)
    if not found.all():
        n = int(big_n[np.argmin(found)])
        if n == 1:
            raise SearchError("N = 1 never beats intensity: ratio < 1 for every n_p > 0")
        raise SearchError(f"no interior ratio maximum for N={n}, n_th={n_th_mean} in bracket {bracket}")

    # each threshold's first falling coarse cell at its grid points: its ends
    # from the coarse scan, the points inside from a second call (the last
    # cell is shorter, and repeats its upper end)
    wide = np.argmax(peak, axis=1)
    at = np.minimum(coarse[wide, None] + np.arange(_OPTIMUM_COARSE_STEP + 1), coarse[wide + 1, None])
    ends = np.take_along_axis(rise, wide[:, None] + [0, 1], axis=1)
    inner = _snr_terms(grid[at[:, 1:-1]], n_th_mean, big_n[:, None])[3]
    rise = np.hstack((ends[:, :1], inner, ends[:, 1:]))
    step = np.argmax((rise[:, :-1] > 0.0) & (rise[:, 1:] <= 0.0), axis=1)[:, None] + [0, 1]

    def terms(n_p, live):
        _, ratio, _, rise, rise_slope = _snr_terms(n_p, n_th_mean, big_n[live], rise_slope=True)
        return rise, n_p * rise_slope, ratio

    cell = grid[np.take_along_axis(at, step, axis=1)]
    best_n_p, best_ratio = _lockstep_roots(terms, *cell.T, *np.take_along_axis(rise, step, axis=1).T)
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
    above, matching a region that sits below the curve.  The root loop that
    the optimum search shares (``_lockstep_roots``) refines every crossing
    at once, one array call per step, by safeguarded Newton steps in
    log(n_p) on s (ratio - 1), s the sign of ratio - 1 at the cell's low
    end, with the slope s n_p rise / (n_th (1 + n_p / n_th)^2) from the same
    call and the cell's ends from the scan.  A root is kept with its ratio
    where |ratio - 1| <= BOUNDARY_RATIO_TOL, and reported as "unresolved"
    otherwise.  Levels with no sign change are reported rather than guessed,
    and levels with several crossings are flagged.  Each curve has the bits
    of a search of its threshold alone, one noise level at a time.  Curves
    follow the input order.
    """
    big_n = np.asarray(thresholds)
    levels = np.asarray(n_th_grid, dtype=float)
    if (levels <= 0.0).any():
        raise ZeroNoiseError("n_th grid values must be > 0")
    scan = np.array(log_grid(*BOUNDARY_SCAN_RANGE, BOUNDARY_SCAN_POINTS))
    shape = (big_n.size, levels.size)
    crossings, cell = np.zeros(shape, int), np.zeros(shape, int)
    ends, above = np.zeros(shape + (2,)), np.zeros(shape, bool)
    chunk = max(1, _SCAN_CHUNK // (scan.size * max(big_n.size, 1)))
    for start in range(0, levels.size, chunk):
        part = slice(start, start + chunk)
        excess = _snr_terms(scan, levels[part, None], big_n[:, None, None])[1] - 1.0
        change = (excess[..., 1:] > 0.0) != (excess[..., :-1] > 0.0)
        crossings[:, part] = change.sum(axis=-1)
        cell[:, part] = change.shape[-1] - 1 - np.argmax(change[..., ::-1], axis=-1)
        ends[:, part] = np.take_along_axis(excess, cell[:, part, None] + [0, 1], axis=-1)
        above[:, part] = excess[..., scan.size // 2] > 0.0

    # Every crossing, by its (threshold, noise level) index.
    at = np.nonzero(crossings)
    noise, n_of, cell, ends = levels[at[1]], big_n[at[0]], cell[at], ends[at]
    sign = np.where(ends[:, 0] > 0.0, 1.0, -1.0)

    def terms(n_p, live):
        _, ratio, _, rise = _snr_terms(n_p, noise[live], n_of[live])
        slope = n_p * rise / (noise[live] * (1.0 + n_p / noise[live]) ** 2)
        return sign[live] * (ratio - 1.0), sign[live] * slope, ratio

    found, found_ratios = _lockstep_roots(terms, scan[cell], scan[cell + 1], *(sign * ends.T))
    found[np.abs(found_ratios - 1.0) > BOUNDARY_RATIO_TOL] = np.nan
    roots, root_ratios = np.full((2, *shape), np.nan)
    roots[at], root_ratios[at] = found, found_ratios
    side = np.where(crossings > 0, "unresolved", np.where(above, "above", "below"))
    return [
        BoundaryCurve(
            int(n),
            tuple(zip(levels[ok].tolist(), p[ok].tolist())),
            tuple(r[ok].tolist()),
            tuple(zip(levels[~ok].tolist(), s[~ok].tolist())),
            tuple(zip(levels[c > 1].tolist(), c[c > 1].tolist())),
        )
        for n, ok, p, r, s, c in zip(big_n.tolist(), ~np.isnan(roots), roots, root_ratios, side, crossings)
    ]
