"""SNR formula checks against independent oracles and qualitative structure."""

import json
import math
import operator
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from pnrlidar.photon_stats import SourceParams, mixed_pmf, thermal_pmf
from pnrlidar.snr_analysis import (
    BOUNDARY_RATIO_TOL,
    BOUNDARY_SCAN_POINTS,
    BOUNDARY_SCAN_RANGE,
    OPTIMUM_BRACKET,
    OPTIMUM_BRACKET_POINTS,
    OPTIMUM_RELATIVE_TOL,
    BoundaryCurve,
    SearchError,
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
from pnrlidar.snr_analysis import _snr_terms

BOUNDARY_REFERENCE = json.loads((Path(__file__).parent / "data" / "boundary_reference.json").read_text())["cases"]
SIGNAL_GRID = (0.0, 0.5, 1.0, 3.0, 10.0)
NOISE_GRID = (0.2, 1.0, 5.0)


def rise_terms_mp(n_p, n_th, big_n, digits):
    """The two positive terms of rise, n_p u S and T / x^N, in mpmath (oracle).

    T = P_poisson(n >= N) is the regularized lower incomplete gamma
    function, so it keeps its digits where T is tiny.
    """
    with mpmath.workdps(digits):
        n_p, n_th = mpmath.mpf(n_p), mpmath.mpf(n_th)
        x = n_th / (n_th + 1)
        scaled = mpmath.fsum(
            mpmath.exp(-n_p) * n_p**m / mpmath.factorial(m) / x**m for m in range(big_n)
        )
        return n_p * scaled / n_th, mpmath.gammainc(big_n, 0, n_p, regularized=True) / x**big_n


def optimum_mp(n_th, big_n, lo, hi, digits=50):
    """mpmath's root of rise in [lo, hi], a bracket it checks (oracle)."""
    def relative_rise(n_p):
        gain, loss = rise_terms_mp(n_p, n_th, big_n, digits)
        return (gain - loss) / (gain + loss)

    with mpmath.workdps(digits):
        assert relative_rise(lo) > 0 > relative_rise(hi)
        return mpmath.findroot(relative_rise, (mpmath.mpf(lo), mpmath.mpf(hi)), solver="anderson")


def ratio_mp(n_p, n_th, big_n, digits=40):
    """snr_ratio at n_p > 0 in mpmath, (T / x^N + S) / (1 + n_p / n_th), from rise's terms (oracle)."""
    with mpmath.workdps(digits):
        gain, loss = rise_terms_mp(n_p, n_th, big_n, digits)
        return (loss + gain * n_th / n_p) / (1 + mpmath.mpf(n_p) / n_th)


def log_bisect_mp(f, lo, hi, steps=100):
    """The root of f in [lo, hi], a bracket with f(lo) > 0 > f(hi) that it
    checks, by bisection in log scale: 100 steps from a factor of 16 leave
    it within 3e-30 relative (oracle)."""
    assert f(lo) > 0 > f(hi)
    for _ in range(steps):
        mid = mpmath.sqrt(lo * hi)
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    return lo


def central_diff(f, a, h=1e-5):
    return (f(a + h) - f(a - h)) / (2.0 * h)


def forward_diff(f, a, h=1e-5):
    # second-order one-sided stencil for the n_p = 0 edge
    return (-3.0 * f(a) + 4.0 * f(a + h) - f(a + 2.0 * h)) / (2.0 * h)


class TestClassicalSnr:
    def test_values(self):
        assert classical_snr(SourceParams(10.0, 1.0)) == 11.0
        assert classical_snr(SourceParams(1.0, 2.0)) == 1.5

    def test_no_signal_is_unity(self):
        for n_th in NOISE_GRID:
            assert classical_snr(SourceParams(0.0, n_th)) == 1.0

    def test_zero_noise_rejected(self):
        with pytest.raises(ZeroNoiseError):
            classical_snr(SourceParams(1.0, 0.0))

    def test_overflow_refused(self):
        with pytest.raises(ValueError, match="n_th = 1e-300"):
            classical_snr(SourceParams(1e10, 1e-300))


class TestQuantumSnr:
    def test_no_signal_is_exactly_unity(self):
        for n_th in NOISE_GRID:
            for big_n in range(1, 8):
                assert quantum_snr(SourceParams(0.0, n_th), big_n) == 1.0

    def test_single_threshold_closed_form(self):
        expected = (1.0 - 0.5 * math.exp(-1.0)) / 0.5
        assert quantum_snr(SourceParams(1.0, 1.0), 1) == pytest.approx(expected, rel=1e-14)

    def test_strong_target_ratio_matches_reported_value(self):
        value = quantum_snr(SourceParams(10.0, 1.0), 5)
        assert value / 11.0 == pytest.approx(2.86, abs=0.05)

    def test_zero_noise_rejected(self):
        with pytest.raises(ZeroNoiseError):
            quantum_snr(SourceParams(1.0, 0.0), 2)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            quantum_snr(SourceParams(1.0, 1.0), 0)

    @pytest.mark.parametrize("n_th", NOISE_GRID)
    @pytest.mark.parametrize("n_p", SIGNAL_GRID)
    def test_at_least_unity_with_equality_only_at_zero_signal(self, n_p, n_th):
        for big_n in range(1, 11):
            value = quantum_snr(SourceParams(n_p, n_th), big_n)
            if n_p == 0.0:
                assert value == 1.0
            else:
                assert value > 1.0

    @pytest.mark.parametrize("n_th", NOISE_GRID)
    @pytest.mark.parametrize("n_p", SIGNAL_GRID)
    def test_monotone_in_signal(self, n_p, n_th):
        for big_n in range(1, 11):
            lo = quantum_snr(SourceParams(n_p, n_th), big_n)
            hi = quantum_snr(SourceParams(n_p + 0.1, n_th), big_n)
            assert hi > lo

    @pytest.mark.parametrize("n_th", NOISE_GRID)
    @pytest.mark.parametrize("n_p", SIGNAL_GRID[1:])
    def test_monotone_in_threshold(self, n_p, n_th):
        values = [quantum_snr(SourceParams(n_p, n_th), n) for n in range(1, 11)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_oracle_equivalence_spot_check(self):
        # closed form vs truncated PMF tail quotient
        params = SourceParams(3.0, 1.0)
        for big_n in (1, 3, 5, 10):
            mixed = math.fsum(mixed_pmf(n, params) for n in range(big_n, 200))
            thermal = math.fsum(thermal_pmf(n, 1.0) for n in range(big_n, 200))
            assert quantum_snr(params, big_n) == pytest.approx(mixed / thermal, rel=1e-9)


class TestSnrRatio:
    def test_no_signal_unity(self):
        assert snr_ratio(SourceParams(0.0, 1.0), 3) == 1.0

    def test_reported_weak_target_values(self):
        assert snr_ratio(SourceParams(0.5, 1.0), 2) == pytest.approx(1.05, abs=0.02)
        assert snr_ratio(SourceParams(0.5, 1.0), 5) == pytest.approx(1.10, abs=0.02)

    def test_report_structure(self):
        report = snr_report(SourceParams(2.0, 1.0), [2, 3, 5])
        assert report.classical == 3.0
        assert set(report.quantum) == {2, 3, 5}
        assert report.quantum[3] > report.quantum[2]
        for n, q in report.quantum.items():
            assert report.ratio[n] == q / report.classical

    @pytest.mark.parametrize("big_n", [2, 3, 4, 5])
    def test_high_noise_low_signal_advantage(self, big_n):
        for factor in (2.0, 3.0, 5.0, 10.0):
            for n_p in (0.001, 0.01, 0.05, 0.1):
                params = SourceParams(n_p, factor * big_n)
                assert snr_ratio(params, big_n) > 1.0


class TestDerivative:
    @pytest.mark.parametrize("n_th", NOISE_GRID)
    @pytest.mark.parametrize("n_p", SIGNAL_GRID)
    def test_matches_finite_differences(self, n_p, n_th):
        for big_n in (1, 2, 5, 10):
            analytic = quantum_snr_derivative(SourceParams(n_p, n_th), big_n)
            f = lambda a: quantum_snr(SourceParams(a, n_th), big_n)
            numeric = forward_diff(f, 0.0) if n_p == 0.0 else central_diff(f, n_p)
            assert analytic == pytest.approx(numeric, rel=1e-4)
            assert analytic > 0.0

    def test_zero_signal_value_is_inverse_noise(self):
        # Gamma(0, N)/(N-1)! = 1, so the slope at n_p = 0 is (1 - x)/x
        for n_th in (0.5, 1.0, 4.0):
            for big_n in (1, 2, 6):
                assert quantum_snr_derivative(SourceParams(0.0, n_th), big_n) == pytest.approx(
                    1.0 / n_th, rel=1e-12
                )

    def test_zero_noise_rejected(self):
        with pytest.raises(ZeroNoiseError):
            quantum_snr_derivative(SourceParams(1.0, 0.0), 2)

    @pytest.mark.parametrize("n_th", [1e-25, 1e-3, 1.0, 100.0, 1e4])
    def test_rise_slope_matches_mpmath(self, n_th):
        # d(rise)/dn_p against mpmath's derivatives of rise's two terms, on
        # the scale of those terms: the slope itself is 0 where rise peaks
        grid = [1e-3, 0.1, 1.0, 3.0, 30.0]
        for big_n in (1, 2, 5, 12):
            slopes = _snr_terms(np.array(grid), n_th, big_n, rise_slope=True)[4]
            for n_p, slope in zip(grid, slopes.tolist()):
                with mpmath.workdps(40):
                    h = mpmath.mpf(n_p) * mpmath.mpf("1e-15")
                    ahead, behind = (rise_terms_mp(n_p + d, n_th, big_n, 40) for d in (h, -h))
                    gain, loss = ((a - b) / (2 * h) for a, b in zip(ahead, behind))
                    assert abs(slope - (gain - loss)) <= 1e-12 * (abs(gain) + abs(loss))


def threshold_gap(params, big_n):
    """quantum_snr(N+1) - quantum_snr(N) by the threshold-step identity."""
    x = params.x
    return (1.0 - x) / x ** (big_n + 1) * stats.poisson.sf(big_n, params.n_p_mean)


class TestThresholdGap:
    # The step between thresholds, quantum_snr(N+1) - quantum_snr(N),
    # equals (1 - x) / x^(N+1) * P_poisson(n >= N+1); zero only at n_p == 0.
    def test_zero_at_no_signal(self):
        for big_n in (1, 4, 9):
            params = SourceParams(0.0, 1.0)
            assert quantum_snr(params, big_n + 1) - quantum_snr(params, big_n) == 0.0
            assert threshold_gap(params, big_n) == 0.0

    @pytest.mark.parametrize("n_th", NOISE_GRID)
    @pytest.mark.parametrize("n_p", SIGNAL_GRID[1:])
    def test_positive_and_equals_direct_difference(self, n_p, n_th):
        params = SourceParams(n_p, n_th)
        for big_n in range(1, 10):
            gap = threshold_gap(params, big_n)
            direct = quantum_snr(params, big_n + 1) - quantum_snr(params, big_n)
            assert gap > 0.0
            assert gap == pytest.approx(direct, abs=1e-8)

    def test_specific_case(self):
        params = SourceParams(3.0, 1.0)
        direct = quantum_snr(params, 3) - quantum_snr(params, 2)
        assert threshold_gap(params, 2) == pytest.approx(direct, abs=1e-8)


class TestSweep:
    def test_single_point_grid_reproduces_ratio(self):
        ratios = sweep_ratio(1.0, [4], [2.5])
        assert ratios.shape == (1, 1)
        assert ratios[0, 0] == snr_ratio(SourceParams(2.5, 1.0), 4)

    def test_row_count(self):
        grid = log_grid(0.1, 10.0, 25)
        ratios = sweep_ratio(1.0, [2, 3, 4], grid)
        assert ratios.shape == (3, 25)
        assert ratios[0, 0] == snr_ratio(SourceParams(grid[0], 1.0), 2)
        assert ratios[2, 24] == snr_ratio(SourceParams(grid[24], 1.0), 4)

    @pytest.mark.parametrize("big_n", [2, 3, 4, 5])
    def test_single_interior_maximum(self, big_n):
        grid = log_grid(0.01, 100.0, 120)
        values = sweep_ratio(1.0, [big_n], grid)[0].tolist()
        rises = [i for i in range(1, len(values) - 1)
                 if values[i] > values[i - 1] and values[i] > values[i + 1]]
        assert len(rises) == 1
        assert 0 < rises[0] < len(values) - 1

    def test_crosses_unity_from_above_at_boundary(self):
        curve = find_boundary([5], [1.0])[0]
        (n_th, n_p), = curve.points
        assert snr_ratio(SourceParams(n_p * 0.9, n_th), 5) > 1.0
        assert snr_ratio(SourceParams(n_p * 1.1, n_th), 5) < 1.0

    def test_memory_per_element_is_bounded(self):
        # The sweep's 38000 elements (19 thresholds x 2000 points): at the
        # kernel's peak its three reads and flat read index take 32 B an
        # element and its table block about one 24 B cell an element, about
        # 2.7 MB in all.  The boundary's scan calls hold 25000 elements, about
        # 2.1 MB at their peak.  Reading the two slope parts as well, which
        # only the optimum's Newton steps use, reaches 3.3 and 2.5 MB.
        searches = [
            (sweep_ratio, (1.0, range(2, 21), log_grid(0.01, 100.0, 2000)), 3.0e6),
            (find_boundary, ([2, 3, 4, 5], log_grid(0.2, 40, 60)), 2.3e6),
        ]
        for search, args, bound in searches:
            tracemalloc.start()
            try:
                search(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep_ratio(1.0, [2], [])
        with pytest.raises(ValueError):
            sweep_ratio(1.0, [2], [1.0, 0.5])


class TestFindOptimum:
    def test_optimum_near_threshold(self):
        for big_n in range(2, 9):
            opt = find_optima(1.0, [big_n])[0]
            assert big_n / 2.0 <= opt.best_n_p_mean <= 2.0 * big_n

    def test_local_optimality(self):
        opt = find_optima(1.0, [4])[0]
        for bump in (0.99, 1.01):
            assert snr_ratio(SourceParams(opt.best_n_p_mean * bump, 1.0), 4) <= opt.best_ratio

    def test_dominates_reported_strong_target(self):
        assert find_optima(1.0, [5])[0].best_ratio >= 2.86

    def test_single_photon_threshold_has_no_interior_maximum(self):
        # ratio at N = 1 declines from unity for all n_p > 0
        with pytest.raises(SearchError):
            find_optima(1.0, [1])

    def test_zero_noise_rejected(self):
        with pytest.raises(ZeroNoiseError):
            find_optima(0.0, [3])

    # (3000, 50) and (1e4, 30) converge slowest: a search that stops after
    # a Newton step of OPTIMUM_RELATIVE_TOL, not its square, is 2e-12 off there.
    # At n_th = 1e-25 a slope of rise built from S and p_p(N-1) is all
    # rounding, and Newton stops 5e-4 off.
    @pytest.mark.parametrize("n_th, big_n", [
        *((n_th, big_n) for n_th in (1.0, 100.0, 1000.0) for big_n in (2, 5, 20)),
        (1e4, 5), (1e4, 20), (3000.0, 50), (1e4, 30), (1e-25, 2), (1e-25, 5),
    ])
    def test_matches_mpmath_root(self, n_th, big_n):
        best = find_optima(n_th, [big_n])[0].best_n_p_mean
        root = optimum_mp(n_th, big_n, best * 0.99, best * 1.01)
        assert abs(float(best / root - 1)) <= 1e-12


class TestFindBoundary:
    def test_points_sit_on_unity_ratio(self):
        curve = find_boundary([3], log_grid(0.5, 8.0, 7))[0]
        assert len(curve.points) == 7
        for n_th, n_p in curve.points:
            assert abs(snr_ratio(SourceParams(n_p, n_th), 3) - 1.0) <= 1e-5

    def test_no_advantage_reported_not_guessed(self):
        # N = 1 never beats intensity detection at n_th = 1
        curve = find_boundary([1], [1.0])[0]
        assert curve.points == ()
        assert curve.no_crossing == ((1.0, "below"),)

    def test_advantage_region_is_below_curve(self):
        curve = find_boundary([4], [2.0])[0]
        (n_th, n_p), = curve.points
        assert snr_ratio(SourceParams(n_p / 2.0, n_th), 4) > 1.0

    def test_zero_noise_grid_rejected(self):
        with pytest.raises(ZeroNoiseError):
            find_boundary([2], [0.0, 1.0])

    def test_bits_match_recorded_reference(self):
        # stored curves, not a second search of the same kernel: the command's
        # defaults, N = 2 up to n_th = 5000 (spurious multiple crossings from
        # ratio - 1 at rounding level), N = 1, 2 at n_th = 1e3..1e4, and
        # unsorted, repeated thresholds; the file names the numpy version
        for case in BOUNDARY_REFERENCE:
            grid = log_grid(case["nth_min"], case["nth_max"], case["nth_points"])
            curves = find_boundary(case["thresholds"], grid)
            assert [
                {
                    "threshold_n": curve.threshold_n,
                    "points": [[n_th.hex(), n_p.hex()] for n_th, n_p in curve.points],
                    "ratios": [ratio.hex() for ratio in curve.ratios],
                    "no_crossing": [[n_th.hex(), side] for n_th, side in curve.no_crossing],
                    "multiple_crossings": [n_th.hex() for n_th, _ in curve.multiple_crossings],
                }
                for curve in curves
            ] == case["curves"], case["thresholds"]

    def test_recorded_points_sit_on_unity_ratio_to_rounding(self):
        # every point of the recorded cases against 40-digit mpmath: the
        # Newton steps end on ratio == 1 to rounding
        for case in BOUNDARY_REFERENCE:
            grid = log_grid(case["nth_min"], case["nth_max"], case["nth_points"])
            for curve in find_boundary(case["thresholds"], grid):
                for n_th, n_p in curve.points:
                    assert abs(ratio_mp(n_p, n_th, curve.threshold_n) - 1) <= 1e-13, (curve.threshold_n, n_th)

    def test_scan_memory_is_bounded(self):
        # the scan runs in chunks of noise levels, so 1000 levels hold about
        # what 60 do, not a (4 x 1000 x 300) excess array per kernel plane
        grid = log_grid(0.2, 40.0, 1000)
        tracemalloc.start()
        try:
            find_boundary([2, 3, 4, 5], grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


# The reference bisection's bracket width: its points sit within this of
# find_boundary's, which are exact to rounding.
BISECTION_TOL = 1e-6


def per_level_boundary(threshold_n, n_th_grid):
    """find_boundary one noise level at a time, by scalar bisection (reference)."""
    scan = np.array(log_grid(*BOUNDARY_SCAN_RANGE, BOUNDARY_SCAN_POINTS))
    points, no_crossing, multiple = [], [], []
    for n_th in n_th_grid:
        def excess(n_p):
            return snr_ratio(SourceParams(n_p, n_th), threshold_n) - 1.0

        values = _snr_terms(scan, n_th, threshold_n)[1] - 1.0
        changes = np.flatnonzero((values[:-1] > 0.0) != (values[1:] > 0.0))
        if not changes.size:
            no_crossing.append((n_th, "above" if values[scan.size // 2] > 0.0 else "below"))
            continue
        if changes.size > 1:
            multiple.append((n_th, changes.size))
        lo, hi = scan[changes[-1]], scan[changes[-1] + 1]
        f_lo, root = excess(lo), None
        for _ in range(300):
            mid = 0.5 * (lo + hi)
            f_mid = excess(mid)
            if hi - lo <= BISECTION_TOL and abs(f_mid) <= BOUNDARY_RATIO_TOL:
                root = mid
                break
            if (f_lo < 0.0) == (f_mid < 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
            if hi == lo:
                break
        if root is None:
            no_crossing.append((n_th, "unresolved"))
        else:
            points.append((n_th, root))
    return points, no_crossing, multiple


class TestClosedFormLimits:
    """The advantage region's closed-form limits (snr_analysis's docstring)
    against 60-digit mpmath roots of the exact ratio, with no package code:
    the boundary is the root of ratio - 1, the optimum that of rise."""

    @pytest.mark.parametrize("big_n", [2, 3, 5])
    @pytest.mark.parametrize("n_th", [1e2, 1e3, 1e4, 1e5, 1e6])
    def test_high_noise_boundary_and_optimum(self, big_n, n_th):
        # each limit is off by O(n_p*): the boundary by about n_p*/6 (N = 2)
        # to 0.3 n_p* (N = 3), the optimum by n_p*/3 to 0.375 n_p*
        with mpmath.workdps(60):
            boundary = (mpmath.factorial(big_n + 1) / (2 * n_th)) ** (mpmath.mpf(1) / (big_n - 1))
            optimum = (mpmath.factorial(big_n) / n_th) ** (mpmath.mpf(1) / (big_n - 1))
            root = log_bisect_mp(lambda n_p: ratio_mp(n_p, n_th, big_n, 60) - 1, boundary / 4, boundary * 4)
            best = log_bisect_mp(lambda n_p: operator.sub(*rise_terms_mp(n_p, n_th, big_n, 60)), optimum / 4, optimum * 4)
            assert abs(root / boundary - 1) <= boundary / 2
            assert abs(best / optimum - 1) <= optimum / 2

    @pytest.mark.parametrize("big_n", [2, 3, 5])
    @pytest.mark.parametrize("n_th", [1e-3, 1e-2, 0.03, 0.1])
    def test_low_noise_boundary(self, big_n, n_th):
        # on the saturated branch the corrections are of order e^-n_p*:
        # 7.4e-5 at N = 2, n_th = 0.1 (n_p* = 12), below the bisection's
        # 3e-30 from n_p* = 102 up
        with mpmath.workdps(60):
            boundary = n_th * ((1 + 1 / mpmath.mpf(n_th)) ** big_n - 1)
            root = log_bisect_mp(lambda n_p: ratio_mp(n_p, n_th, big_n, 60) - 1, boundary / 4, boundary * 4)
            assert abs(root / boundary - 1) <= boundary**big_n * mpmath.exp(-boundary) + 1e-29


class TestArrayKernel:
    @pytest.mark.parametrize("n_th", [0.01, 1.0, 100.0])
    def test_scalar_wrappers_are_array_elements(self, n_th):
        grid = [0.0, *log_grid(1e-3, 1e3, 41)]
        for big_n in (1, 2, 7, 20):
            quantum, ratio, slope = _snr_terms(np.array(grid), n_th, big_n)[:3]
            params = [SourceParams(n_p, n_th) for n_p in grid]
            assert [quantum_snr(p, big_n) for p in params] == quantum.tolist()
            assert [snr_ratio(p, big_n) for p in params] == ratio.tolist()
            assert [quantum_snr_derivative(p, big_n) for p in params] == slope.tolist()

    @pytest.mark.parametrize("n_th", [0.5, 2.0])
    @pytest.mark.parametrize("big_n", [2, 5, 10])
    def test_nested_scans_match_dense_scan(self, big_n, n_th):
        opt = find_optima(n_th, [big_n])[0]
        dense = np.geomspace(1e-3, 1e3, 100_000)
        i = int(np.argmax(_snr_terms(dense, n_th, big_n)[1]))
        dense = np.geomspace(dense[i - 1], dense[i + 1], 100_000)
        best = dense[np.argmax(_snr_terms(dense, n_th, big_n)[1])]
        assert abs(math.log(opt.best_n_p_mean / best)) <= OPTIMUM_RELATIVE_TOL
        assert opt.best_ratio == snr_ratio(SourceParams(opt.best_n_p_mean, n_th), big_n)

    @pytest.mark.parametrize("thresholds, grid", [
        *(pytest.param([big_n], log_grid(0.2, 40.0, 60), id=str(big_n)) for big_n in (2, 3, 4, 5)),
        pytest.param([], log_grid(0.2, 40.0, 60), id="no-threshold"),
        pytest.param([3, 2], [], id="empty-grid"),
    ])
    def test_lockstep_boundary_matches_per_level_bisection(self, thresholds, grid):
        curves = find_boundary(thresholds, grid)
        assert [curve.threshold_n for curve in curves] == thresholds
        for curve in curves:
            points, no_crossing, multiple = per_level_boundary(curve.threshold_n, grid)
            assert [t for t, _ in curve.points] == [t for t, _ in points]
            np.testing.assert_allclose(
                [p for _, p in curve.points], [p for _, p in points], rtol=0.0, atol=BISECTION_TOL
            )
            assert curve.no_crossing == tuple(no_crossing)
            assert curve.multiple_crossings == tuple(multiple)

    @pytest.mark.parametrize("n_th", [0.01, 1.0, 100.0])
    def test_threshold_axis_matches_per_threshold_calls(self, n_th):
        # unsorted and repeated thresholds, including the log-space terms
        # above N = 30; every output equals the one-threshold call bit for bit
        big_n = np.concatenate([np.random.default_rng(0).permutation(np.arange(1, 51)), [7, 31, 1]])
        grid = np.array([0.0, *log_grid(1e-3, 1e3, 41)])
        arrays = _snr_terms(grid, n_th, big_n[:, None], rise_slope=True)
        assert len(arrays) == 5
        # without the slope, the kernel reads two parts fewer: the other four keep their bits
        for array, full in zip(_snr_terms(grid, n_th, big_n[:, None]), arrays[:4], strict=True):
            assert array.tolist() == full.tolist()
        for i, n in enumerate(big_n.tolist()):
            for array, single in zip(arrays, _snr_terms(grid, n_th, n, rise_slope=True)):
                assert array[i].tolist() == single.tolist()

    def test_noise_axis_matches_scalar_calls(self):
        # long noise and threshold axes take numpy's vector loops, where a
        # power can round differently from a one-point call; each element
        # still equals its one-point call
        levels = log_grid(0.05, 50.0, 300)
        thresholds = [1, 2, 3, 40]
        arrays = _snr_terms(2.0, np.array(levels)[:, None], thresholds)
        params = [SourceParams(2.0, n_th) for n_th in levels]
        for j, big_n in enumerate(thresholds):
            for array, scalar in zip(arrays, (quantum_snr, snr_ratio, quantum_snr_derivative)):
                assert array[:, j].tolist() == [scalar(p, big_n) for p in params]

    def test_sweep_elements_are_scalar_ratios(self):
        grid = log_grid(0.05, 60.0, 9)
        thresholds = [9, 2, 40, 2]
        ratios = sweep_ratio(0.7, thresholds, grid)
        assert ratios.tolist() == [
            [snr_ratio(SourceParams(n_p, 0.7), n) for n_p in grid] for n in thresholds
        ]

    @pytest.mark.parametrize("n_th", [0.5, 1.0, 4.0])
    def test_lockstep_optima_equal_single_threshold_searches(self, n_th):
        thresholds = [5, 2, 12, 5, 3]
        assert find_optima(n_th, thresholds) == [find_optima(n_th, [n])[0] for n in thresholds]

    @pytest.mark.parametrize("thresholds, grid", [
        pytest.param([2, 3, 4, 5], log_grid(0.2, 40.0, 60), id="defaults"),
        pytest.param([5, 2, 12, 5, 3, 1], log_grid(0.05, 300.0, 37), id="unsorted"),
        pytest.param([2], log_grid(1.0, 5000.0, 40), id="high-noise"),
    ])
    def test_lockstep_boundary_equals_single_searches(self, thresholds, grid):
        # each curve has the bits of its threshold searched alone, one noise
        # level at a time, unresolved and multiple crossings included
        fields = ("points", "ratios", "no_crossing", "multiple_crossings")
        for n, curve in zip(thresholds, find_boundary(thresholds, grid)):
            alone = [find_boundary([n], [level])[0] for level in grid]
            assert curve == BoundaryCurve(n, *(sum((getattr(a, f) for a in alone), ()) for f in fields))

    @pytest.mark.parametrize("thresholds", [[3, 1], [1, 3], [3, 1, 2]])
    def test_optima_refuse_the_first_threshold_without_maximum(self, thresholds):
        with pytest.raises(SearchError) as error:
            find_optima(1.0, thresholds)
        assert str(error.value) == "no interior ratio maximum for N=1, n_th=1.0 in bracket (0.001, 1000.0)"

    @pytest.mark.parametrize("call, first", [
        (lambda: find_optima(1e-100, [2, 5, 3, 7]), "n_th = 1e-100 is too small for threshold N = 5:"),
        (lambda: find_optima(1e-100, [7, 5]), "n_th = 1e-100 is too small for threshold N = 7:"),
        (lambda: sweep_ratio(1e-100, [3, 2, 6, 5], [0.5, 1.0]), "threshold N = 6:"),
        (lambda: _snr_terms(1.0, [1.0, 1e-120, 1e-200], 3), "n_th = 1e-120 is too small"),
        (lambda: _snr_terms(1.0, np.array([1.0, 1e-200])[:, None], [1, 3, 2]),
         "n_th = 1e-200 is too small for threshold N = 3:"),
    ])
    def test_tiny_noise_names_the_first_failing_element(self, call, first):
        with pytest.raises(ValueError, match=first):
            call()

    @pytest.mark.parametrize("big_n", [2, 5])
    def test_boundary_carries_the_ratio_at_each_point(self, big_n):
        curve = find_boundary([big_n], log_grid(0.2, 40.0, 12))[0]
        assert len(curve.ratios) == len(curve.points) > 0
        assert list(curve.ratios) == [snr_ratio(SourceParams(n_p, n_th), big_n) for n_th, n_p in curve.points]

    @pytest.mark.parametrize("call", [
        lambda: quantum_snr(SourceParams(1.0, 1e-200), 2),
        lambda: quantum_snr(SourceParams(1e-5, 1e-155), 2),  # x^N subnormal, SNR finite
        lambda: snr_ratio(SourceParams(1.0, 1e-110), 3),
        lambda: quantum_snr_derivative(SourceParams(1.0, 1e-200), 2),
        lambda: sweep_ratio(1e-300, [2], [0.5, 1.0]),
        lambda: find_optima(1e-200, [2]),
        lambda: find_boundary([2], [1e-200, 1.0]),
        lambda: snr_ratio(SourceParams(1e10, 1e-300), 1),
    ])
    def test_unrepresentable_snr_refused(self, call):
        with pytest.raises(ValueError, match=r"n_th = 1e-\d+.*N = \d"):
            call()


PROPERTY_SETTINGS = settings(max_examples=60)  # derandomized by the conftest profile
noise = st.floats(0.1, 10.0)
signal = st.floats(1e-3, 100.0)
threshold = st.integers(1, 20)


class TestProperties:
    @PROPERTY_SETTINGS
    @given(st.floats(1e-3, 1e3), st.integers(1, 50))
    def test_no_signal_is_exactly_unity(self, n_th, big_n):
        assert quantum_snr(SourceParams(0.0, n_th), big_n) == 1.0

    @PROPERTY_SETTINGS
    @given(signal, st.floats(1e-3, 1.0), noise, threshold)
    def test_monotone_in_signal(self, n_p, step, n_th, big_n):
        low = quantum_snr(SourceParams(n_p, n_th), big_n)
        assert quantum_snr(SourceParams(n_p * (1.0 + step), n_th), big_n) >= low

    @PROPERTY_SETTINGS
    @given(signal, noise, threshold)
    def test_monotone_in_threshold(self, n_p, n_th, big_n):
        params = SourceParams(n_p, n_th)
        assert quantum_snr(params, big_n + 1) >= quantum_snr(params, big_n)

    @PROPERTY_SETTINGS
    @given(
        st.integers(2, 50),
        st.floats(math.log(0.05), math.log(3000.0)).map(math.exp),
        st.floats(*map(math.log, OPTIMUM_BRACKET)).map(math.exp),
    )
    def test_rise_brackets_one_root(self, big_n, n_th, n_p):
        # the optimum scan sees at most one sign change of rise, and rise
        # has mpmath's sign wherever its terms differ by more than rounding
        scan = np.array(log_grid(*OPTIMUM_BRACKET, OPTIMUM_BRACKET_POINTS))
        rise = _snr_terms(scan, n_th, big_n)[3]
        assert np.count_nonzero((rise[1:] > 0.0) != (rise[:-1] > 0.0)) <= 1
        gain, loss = rise_terms_mp(n_p, n_th, big_n, 40)
        assume(abs(gain - loss) > 1e-10 * (gain + loss))
        assert (_snr_terms(n_p, n_th, big_n)[3][0] > 0.0) == (gain > loss)

    @PROPERTY_SETTINGS
    @given(st.floats(0.0, 0.99), st.floats(1e-3, 1.0), noise, st.integers(2, 8))
    def test_ratio_rises_below_the_optimum(self, fraction, step, n_th, big_n):
        best = find_optima(n_th, [big_n])[0].best_n_p_mean
        low = best * fraction / (1.0 + step)
        high = best * fraction
        assert snr_ratio(SourceParams(high, n_th), big_n) >= snr_ratio(SourceParams(low, n_th), big_n)


class TestLogGrid:
    def test_endpoints_and_monotone(self):
        grid = log_grid(0.1, 10.0, 21)
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(10.0)
        assert all(b > a for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("lo, hi, points", [(0.01, 100.0, 200), (0.2, 40.0, 60), (0.5, 8.0, 2)])
    def test_endpoints_exact(self, lo, hi, points):
        grid = log_grid(lo, hi, points)
        assert len(grid) == points
        assert (grid[0], grid[-1]) == (lo, hi)
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            log_grid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            log_grid(1.0, 10.0, 1)
