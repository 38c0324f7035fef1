"""Distribution-level checks: recurrences vs defining sums, tails, the sampler."""

import functools
import itertools
import json
import math
import operator
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy import stats

from pnrlidar.photon_stats import (
    SourceParams,
    build_pmf,
    mixed_pmf,
    mixed_tail,
    mixed_tail_parts,
    poisson_pmf,
    sample_histogram,
    thermal_pmf,
    thermal_tail,
)
from pnrlidar.photon_stats import (
    _TAIL_STEPPED, _mixed_tail, _multinomial, _overflow_weights, _poisson_rows, _rekey,
)
from pnrlidar import photon_stats

MEAN_GRID = (0.0, 0.5, 1.0, 3.0, 10.0)


def convolved_pmf(n, n_p, n_th):
    """Defining convolution of the Poisson and thermal laws (test oracle)."""
    return math.fsum(poisson_pmf(m, n_p) * thermal_pmf(n - m, n_th) for m in range(n + 1))


def tail_beyond(params, n_max):
    """The law's mass beyond row n_max by total probability over the Poisson
    part P: P > n_max, or P = k <= n_max and the geometric part reaches
    n_max + 1 - k (scipy oracle)."""
    mean, x = params.n_p_mean, params.x
    geometric = 0.0
    if x:
        k = np.arange(n_max + 1)
        geometric = math.fsum(stats.poisson.pmf(k, mean) * x ** (n_max + 1 - k))
    return stats.poisson.sf(n_max, mean) + geometric


def tail_beyond_mp(n_p, n_th, n_max, digits=40):
    """:func:`tail_beyond` in mpmath, with the regularized incomplete gamma
    function for the Poisson tail and the exact thermal ratio (oracle)."""
    with mpmath.workdps(digits):
        mean = mpmath.mpf(n_p)
        x = mpmath.mpf(n_th) / (mpmath.mpf(n_th) + 1)
        poisson = mpmath.gammainc(n_max + 1, 0, mean, regularized=True) if mean else 0
        return poisson + mpmath.fsum(
            mpmath.exp(-mean) * mean**k / mpmath.factorial(k) * x ** (n_max + 1 - k) for k in range(n_max + 1)
        )


def cell_mp(n, n_p, n_th, digits=40):
    """p(n) of the law as the convolution sum in mpmath, with the exact thermal ratio (oracle)."""
    with mpmath.workdps(digits):
        n_p, n_th = mpmath.mpf(n_p), mpmath.mpf(n_th)
        x = n_th / (n_th + 1)
        return mpmath.fsum(mpmath.exp(-n_p) * n_p**m / mpmath.factorial(m) * x ** (n - m) / (n_th + 1)
                           for m in range(n + 1))


def tail_parts_mp(big_n, n_p, x, digits=40):
    """The outputs of mixed_tail_parts and the tail P(n >= N) at one element,
    from their defining sums over p_p(m) and the regularized incomplete gamma
    function in mpmath; scaled and head are infinite at x == 0 (oracle)."""
    with mpmath.workdps(digits):
        lam, x = mpmath.mpf(n_p), mpmath.mpf(x)
        p = [mpmath.exp(-lam) * lam**m / mpmath.factorial(m) for m in range(big_n)]
        scaled = [p_m / x**m for m, p_m in enumerate(p)] if x else [mpmath.inf] * big_n
        poisson = mpmath.gammainc(big_n, 0, lam, regularized=True) if lam else mpmath.mpf(0)
        return {"tail": poisson + mpmath.fsum(p_m * x ** (big_n - m) for m, p_m in enumerate(p)),
                "poisson": poisson, "scaled": mpmath.fsum(scaled), "last": p[-1], "head": mpmath.fsum(scaled[:-1])}


def relative_error(value, exact):
    """|value - exact| / |exact|, and |value| where exact is 0."""
    return float(abs(value - exact) / abs(exact)) if exact else abs(value)


class TestThermalPmf:
    def test_unit_noise_values(self):
        assert thermal_pmf(0, 1.0) == 0.5
        assert thermal_pmf(2, 1.0) == 0.125

    def test_vacuum_limit(self):
        assert thermal_pmf(0, 0.0) == 1.0
        assert thermal_pmf(2, 0.0) == 0.0

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            thermal_pmf(0, bad)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            thermal_pmf(-1, 1.0)


class TestPoissonPmf:
    def test_vacuum(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0

    def test_unit_mean(self):
        assert poisson_pmf(0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_recurrence_at_mean(self):
        # p(n) = p(n-1) * mean / n is exact at n == mean
        assert poisson_pmf(3, 3.0) == poisson_pmf(2, 3.0)

    def test_log_space_matches_exact_rationals(self):
        # large-argument path against an exact big-integer evaluation
        for n, mean in [(40, 35.0), (100, 8.0), (31, 31.0)]:
            exact = (
                int(mean) ** n / math.factorial(n) * math.exp(-mean)
                if mean == int(mean)
                else None
            )
            if exact is not None:
                assert poisson_pmf(n, mean) == pytest.approx(exact, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            poisson_pmf(1, -0.5)


class TestPoissonRows:
    # poisson_pmf is the scalar reference: the rows take np.exp and np.log
    # where it takes math.exp and math.log, so they agree to about an ulp.
    MEANS = np.array([0.0, 1e-160, 1.0, 30.0, 31.0, 500.0, 3e4])

    def rows(self, start, count, before=None):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return _poisson_rows(np.empty((count, self.MEANS.size)), self.MEANS, start, before)

    def assert_scalar_rows(self, p, start):
        want = [[poisson_pmf(start + i, mean) for mean in self.MEANS.tolist()] for i in range(len(p))]
        np.testing.assert_allclose(p, want, rtol=1e-13, atol=0.0)  # a 0 of poisson_pmf is an exact 0

    def test_rows_match_the_scalar_reference(self):
        self.assert_scalar_rows(self.rows(0, 40), 0)
        for start in (480, 29_990):
            self.assert_scalar_rows(self.rows(start, 40), start)

    def test_blocks_continue_the_recurrence(self):
        # rows 29..32 cross the switch to log space; each block after the
        # first starts from the row before it, and the bits do not move
        whole, blocks, start = self.rows(0, 40), [], 0
        for count in (29, 4, 7):
            blocks.append(self.rows(start, count, blocks[-1][-1] if blocks else None))
            start += count
        self.assert_scalar_rows(blocks[1], 29)
        assert np.concatenate(blocks).view(np.int64).tolist() == whole.view(np.int64).tolist()


class TestMixedPmf:
    def test_no_signal_reduces_to_thermal(self):
        params = SourceParams(0.0, 1.0)
        for n in range(8):
            assert mixed_pmf(n, params) == thermal_pmf(n, 1.0)

    def test_no_noise_reduces_to_poisson(self):
        params = SourceParams(2.0, 0.0)
        for n in range(8):
            assert mixed_pmf(n, params) == poisson_pmf(n, 2.0)

    def test_zero_count_is_product_of_vacua(self):
        params = SourceParams(1.0, 1.0)
        assert mixed_pmf(0, params) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-14)

    def test_matches_convolution_at_single_point(self):
        params = SourceParams(2.0, 1.0)
        assert mixed_pmf(4, params) == pytest.approx(convolved_pmf(4, 2.0, 1.0), abs=1e-12)

    @pytest.mark.parametrize("n_p", MEAN_GRID)
    @pytest.mark.parametrize("n_th", MEAN_GRID)
    def test_convolution_identity_on_grid(self, n_p, n_th):
        params = SourceParams(n_p, n_th)
        for n in range(61):
            assert mixed_pmf(n, params) == pytest.approx(
                convolved_pmf(n, n_p, n_th), abs=1e-10
            )

    def test_log_space_fallback(self):
        # n_p / x far beyond exp range; compare against the convolution
        params = SourceParams(5.0, 0.005)
        for n in range(4):
            assert mixed_pmf(n, params) == pytest.approx(
                convolved_pmf(n, 5.0, 0.005), rel=1e-10
            )


class TestBuildPmf:
    def test_zero_noise_thermal_is_vacuum(self):
        pmf = build_pmf(SourceParams(0.0, 0.0), 1e-12)
        assert pmf.probs == (1.0,)
        assert pmf.residual == 0.0
        assert pmf.n_max == 0

    def test_unit_noise_truncation_bound(self):
        # geometric tail 2^-(n_max+1) first reaches 1e-12 at n_max = 39
        pmf = build_pmf(SourceParams(0.0, 1.0), 1e-12)
        assert pmf.n_max == 39
        assert pmf.residual == pytest.approx(2.0**-40)

    def test_poisson_mass_captured(self):
        pmf = build_pmf(SourceParams(10.0, 0.0), 1e-12)
        assert math.fsum(pmf.probs) >= 1.0 - 1e-12

    @pytest.mark.parametrize("tolerance", [1e-9, 1e-12, 1e-15])
    @pytest.mark.parametrize("n_p", MEAN_GRID)
    @pytest.mark.parametrize("n_th", MEAN_GRID)
    def test_normalization_with_residual(self, tolerance, n_p, n_th):
        # n_p = 0 is the thermal law, n_th = 0 the Poisson law
        pmf = build_pmf(SourceParams(n_p, n_th), tolerance)
        assert pmf.residual <= tolerance
        assert math.fsum(pmf.probs) + pmf.residual == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= p <= 1.0 for p in pmf.probs)

    def test_fixed_bound_table(self):
        params = SourceParams(2.0, 1.0)
        pmf = build_pmf(params, n_max=30)
        assert pmf.n_max == 30 and len(pmf.probs) == 31
        assert list(pmf.probs) == [mixed_pmf(n, params) for n in range(31)]
        assert pmf.residual == pytest.approx(mixed_tail(31, params), abs=1e-15)

    def test_fixed_bound_reaches_past_the_cap(self):
        # a wide geometric part: the tolerance-mode table ends at the first row
        # within tolerance, and a fixed bound far past it holds its tail mass
        params = SourceParams(1.0, 40.0)
        pmf = build_pmf(params, 1e-12)
        assert tail_beyond(params, pmf.n_max) <= 1e-12
        assert tail_beyond(params, pmf.n_max - 1) > 1e-12
        wide = build_pmf(params, n_max=1500)
        assert wide.probs[: pmf.n_max + 1] == pmf.probs
        for table in (pmf, wide):
            assert table.residual == pytest.approx(tail_beyond(params, table.n_max), rel=1e-12)

    @pytest.mark.parametrize("bad", [-1, 2.5])
    def test_fixed_bound_domain(self, bad):
        with pytest.raises(ValueError):
            build_pmf(SourceParams(0.0, 1.0), n_max=bad)

    def test_tolerance_domain(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                build_pmf(SourceParams(0.0, 1.0), bad)

    def test_deep_thermal_table_reaches_tolerance(self):
        # n_th = 10 needs 362 rows for 1e-15: x^363 <= 1e-15 < x^362
        x = SourceParams(0.0, 10.0).x
        pmf = build_pmf(SourceParams(0.0, 10.0), 1e-15)
        assert pmf.n_max == 362
        assert x**363 <= 1e-15 < x**362
        assert pmf.residual == pytest.approx(x**363, rel=1e-13)

    def test_tolerance_walk_sums_each_block_once(self, monkeypatch):
        # one fsum a table, for the side its residual is summed from; the
        # residual is the tail mass itself, so Poisson 1000 reaches 1e-15
        # although its log-space cells sum to about 1 - 2.5e-13
        calls = []
        monkeypatch.setattr(math, "fsum", lambda values, fsum=math.fsum: calls.append(1) or fsum(values))
        pmf = build_pmf(SourceParams(1000.0, 0.0), 1e-15)
        assert len(calls) == 1
        assert stats.poisson.sf(pmf.n_max, 1000.0) <= 1e-15 < stats.poisson.sf(pmf.n_max - 1, 1000.0)
        assert pmf.residual == pytest.approx(stats.poisson.sf(pmf.n_max, 1000.0), rel=1e-6)

    @pytest.mark.parametrize("n_th", [0.5, 1.0, 10.0, 1e4])
    def test_thermal_table_is_made_to_its_last_row(self, monkeypatch, n_th):
        # a law with one part gives it the whole tolerance, so the bound asks for
        # exactly the rows kept: at n_th = 1e4 a tolerance split between the
        # parts made 283,256 rows for a 276,325-row table
        stops = []
        column = photon_stats._poisson_column

        def counted(n_p, start, stop, rows):
            if start == 0:  # the table's rows; the residual's walk starts past them
                stops.append(stop)
            return column(n_p, start, stop, rows)

        monkeypatch.setattr(photon_stats, "_poisson_column", counted)
        pmf = build_pmf(SourceParams(0.0, n_th), 1e-12)
        assert stops == [pmf.n_max + 1]
        assert pmf.residual <= 1e-12 < pmf.residual + pmf.probs[-1]

    @pytest.mark.parametrize("n_th", [2.0, 1e3, 1e6, 1e8])
    @pytest.mark.parametrize("n_p", [0.0, 0.5, 1.0, 3.0, 10.0])
    def test_cells_keep_their_digits_at_wide_noise(self, n_p, n_th):
        # the geometric weight 1 - x taken from a rounded x loses about
        # log10(n_th) digits (5e-11 relative at n_th = 1e6); 1 / (n_th + 1) keeps them
        for n, cell in enumerate(build_pmf(SourceParams(n_p, n_th), n_max=5).probs):
            exact = cell_mp(n, n_p, n_th)
            assert abs(cell - exact) <= 1e-15 * exact, n
            if n_p == 0.0:
                assert abs(thermal_pmf(n, n_th) - exact) <= 1e-15 * exact, n

    @pytest.mark.parametrize("n_p,n_th", [(n_p, 0.0) for n_p in (1e2, 1e3, 1e4, 1e5, 1e6)] + [(1e4, 2.0)])
    def test_residual_is_the_tail_mass(self, n_p, n_th):
        # the mass beyond n_max in positive terms, not 1 - sum(probs), which
        # inherits every cell's error and at 1e4 and up hides the tail
        params = SourceParams(n_p, n_th)
        pmf = build_pmf(params, 1e-12)
        assert pmf.residual <= 1e-12
        assert pmf.residual == pytest.approx(tail_beyond(params, pmf.n_max), rel=1e-6)

    @pytest.mark.parametrize(
        "n_p,n_th", [(n_p, n_th) for n_p in MEAN_GRID for n_th in MEAN_GRID] + [(500.0, 0.0), (2000.0, 0.0)]
    )
    def test_tolerance_table_ends_at_the_first_row_within_tolerance(self, n_p, n_th):
        params = SourceParams(n_p, n_th)
        pmf = build_pmf(params, 1e-12)
        assert tail_beyond(params, pmf.n_max) <= 1e-12
        assert pmf.n_max == 0 or tail_beyond(params, pmf.n_max - 1) > 1e-12


class TestTails:
    def test_thermal_tail_values(self):
        assert thermal_tail(2, 1.0) == 0.25
        assert thermal_tail(1, 0.0) == 0.0

    @pytest.mark.parametrize("n_th", [0.5, 1.0, 3.0, 10.0])
    def test_thermal_tail_complement_identity(self, n_th):
        for big_n in range(1, 11):
            partial = math.fsum(thermal_pmf(n, n_th) for n in range(big_n))
            assert thermal_tail(big_n, n_th) == pytest.approx(1.0 - partial, abs=1e-12)

    def test_mixed_tail_reduces_to_thermal(self):
        params = SourceParams(0.0, 1.0)
        for big_n in range(1, 8):
            assert mixed_tail(big_n, params) == thermal_tail(big_n, 1.0)

    def test_mixed_tail_single_threshold_value(self):
        params = SourceParams(1.0, 1.0)
        assert mixed_tail(1, params) == pytest.approx(1.0 - 0.5 * math.exp(-1.0), rel=1e-14)

    def test_mixed_tail_matches_pmf_summation(self):
        params = SourceParams(10.0, 1.0)
        below = math.fsum(mixed_pmf(n, params) for n in range(5))
        assert mixed_tail(5, params) == pytest.approx(1.0 - below, abs=1e-10)

    @pytest.mark.parametrize("n_p", MEAN_GRID)
    @pytest.mark.parametrize("n_th", MEAN_GRID[1:])
    def test_mixed_tail_complement_identity_on_grid(self, n_p, n_th):
        params = SourceParams(n_p, n_th)
        for big_n in range(1, 11):
            below = math.fsum(mixed_pmf(n, params) for n in range(big_n))
            assert mixed_tail(big_n, params) == pytest.approx(1.0 - below, abs=1e-10)

    def test_zero_noise_mixed_tail_is_poisson_tail(self):
        params = SourceParams(2.0, 0.0)
        below = math.fsum(poisson_pmf(n, 2.0) for n in range(3))
        assert mixed_tail(3, params) == pytest.approx(1.0 - below, rel=1e-12)

    def test_poisson_tail_sides(self):
        # deep tail keeps relative precision; saturated tail does not underflow
        assert mixed_tail_parts(10, 0.5, 0.0)[0][0] == pytest.approx(
            math.fsum(poisson_pmf(n, 0.5) for n in range(10, 40)), rel=1e-12
        )
        assert mixed_tail_parts(5, 10000.0, 0.0)[0][0] == 1.0

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            thermal_tail(0, 1.0)
        with pytest.raises(ValueError):
            mixed_tail(0, SourceParams(1.0, 1.0))

    @pytest.mark.parametrize("big_n", [0, -3, 2.5, math.nan])
    def test_threshold_refusals_share_one_message(self, big_n):
        message = f"threshold must be a positive integer, got {big_n!r}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            thermal_tail(big_n, 1.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            mixed_tail(big_n, SourceParams(1.0, 1.0))


class TestMixedTailTerms:
    # x is taken as 1 - p, so the kernel and the oracle see the same law: p
    # rounds, and 1 - p is exact.
    SIGNAL = np.geomspace(1e-4, 1e4, 41)
    P_NOISE = 1.0 / (1.0 + np.geomspace(1e-3, 1e3, 13))

    def test_scipy_oracle(self):
        # P(S >= N) for S = Poisson(n_p) + Geometric, by total probability
        # over the Poisson count: stats.poisson and stats.nbinom(1, p).
        x = 1.0 - self.P_NOISE[:, None]
        for big_n in range(1, 51):
            poisson, scaled, _, head = mixed_tail_parts(big_n, self.SIGNAL, x)
            tail = np.array([[_mixed_tail(big_n, n_p, x_i) for n_p in self.SIGNAL.tolist()] for x_i in x.ravel().tolist()])
            m = np.arange(big_n)[:, None, None]
            pmf = stats.poisson.pmf(m, self.SIGNAL)
            oracle = stats.poisson.sf(big_n - 1, self.SIGNAL)
            geometric = stats.nbinom.sf(big_n - 1 - m, 1, self.P_NOISE[:, None])
            np.testing.assert_allclose(poisson, np.broadcast_to(oracle, poisson.shape), rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(tail, oracle + (pmf * geometric).sum(axis=0), rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(scaled, (pmf * x**-m).sum(axis=0), rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(head, (pmf * x**-m)[:-1].sum(axis=0), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_th", [0.0, 1e-3, 1.0, 40.0])
    def test_scalar_wrapper_is_array_element(self, n_th):
        # the scalar tail is the helper's at params.x, and that is the array
        # kernel's identity: its Poisson tail element exactly when x == 0
        x = SourceParams(0.0, n_th).x
        grid = [0.0, *self.SIGNAL.tolist()]
        for big_n in (1, 2, 7, 31, 50):
            tail = [mixed_tail(big_n, SourceParams(n_p, n_th)) for n_p in grid]
            assert [t.hex() for t in tail] == [_mixed_tail(big_n, n_p, x).hex() for n_p in grid]
            poisson, scaled = mixed_tail_parts(big_n, grid, x)[:2]
            if x == 0.0:
                assert tail == poisson.tolist()
            else:
                np.testing.assert_allclose(tail, poisson + x**big_n * scaled, rtol=1e-14, atol=0.0)

    def test_threshold_axis_matches_per_threshold_calls(self):
        # unsorted and repeated thresholds, including the log-space terms
        # above N = 30; every output equals the one-threshold call bit for bit
        big_n = np.concatenate([np.random.default_rng(0).permutation(np.arange(1, 51)), [7, 31, 1]])
        big_n = big_n[:, None, None]
        x = 1.0 - self.P_NOISE[:, None]
        signal = np.array([0.0, *self.SIGNAL.tolist()])
        arrays = mixed_tail_parts(big_n, signal, x)
        assert [a.shape for a in arrays] == [(53, 13, 42)] * 4
        for i, n in enumerate(big_n.ravel().tolist()):
            for array, single in zip(arrays, mixed_tail_parts(n, signal, x)):
                assert array[i].tolist() == np.broadcast_to(single, array[i].shape).tolist()

    def test_last_term_is_the_poisson_pmf_below_threshold(self):
        # last = p_p(N - 1), in both regimes of poisson_pmf, and each
        # element of a threshold-axis call is the one-threshold value
        signal = np.array([0.0, *self.SIGNAL.tolist()])
        big_n = np.random.default_rng(1).permutation(np.arange(1, 51))
        last = mixed_tail_parts(big_n[:, None], signal, 0.5)[2]
        for i, n in enumerate(big_n.tolist()):
            pmf = [poisson_pmf(n - 1, n_p) for n_p in signal.tolist()]
            np.testing.assert_allclose(last[i], pmf, rtol=1e-13, atol=0.0)
            assert last[i].tolist() == mixed_tail_parts(n, signal, 0.5)[2].tolist()

    def test_stepped_upper_tail_matches_one_element_calls(self):
        # more than twice the elements that switch the upper tail from
        # stepped passes to block passes: the call steps, one-element calls
        # take blocks, and every output agrees bit for bit
        big_n = np.arange(2, 21)[:, None]
        signal = np.array([1e-160, *np.geomspace(0.01, 100.0, 200).tolist(), 1e-160])
        arrays = mixed_tail_parts(big_n, signal, 0.5)
        assert np.count_nonzero(stats.poisson.cdf(big_n - 1, signal) >= 0.5) > 2 * _TAIL_STEPPED
        for i, n in enumerate(big_n.ravel().tolist()):
            singles = [mixed_tail_parts(n, n_p, 0.5) for n_p in signal.tolist()]
            for array, single in zip(arrays, zip(*singles)):
                assert array[i].tolist() == np.concatenate(single).tolist()

    @pytest.mark.parametrize("big_n", [2, 3])
    def test_per_element_thermal_ratios_match_one_element_calls(self, big_n):
        # the boundary root search's shape: one threshold, one x per element,
        # more x values than a vector register holds; x^-1 from a broadcast
        # exponent would round differently from numpy's power loop
        n_th = np.geomspace(0.2, 40.0, 64)
        x = n_th / (n_th + 1.0)
        signal = np.geomspace(1e-3, 60.0, 64)
        arrays = mixed_tail_parts(big_n, signal, x)
        for i in range(signal.size):
            single = np.concatenate(mixed_tail_parts(big_n, signal[i], x[i]))
            got = np.array([a[i] for a in arrays])
            assert got.view(np.int64).tolist() == single.view(np.int64).tolist()

    def test_bits_match_recorded_reference(self):
        # stored bits, not a second call of the same kernel: a change that
        # moves an array and its one-element calls alike fails here.  The
        # cases hold elements whose x^-1 a broadcast exponent rounds
        # differently, means 0, 1e-160, 30, 31 and e^9, and a table of
        # several row blocks.  The bits come from numpy's float64 loops: the
        # file names the numpy version and machine that recorded them.  The
        # parts are checked in test_parts_and_scalar_tail_match_recorded_reference;
        # here every recorded tail, through the scalar path at its own x.
        reference = json.loads((Path(__file__).parent / "data" / "mixed_tail_reference.json").read_text())
        floats = lambda hexes: np.array([float.fromhex(h) for h in hexes])
        tails = 0
        for case in reference["cases"]:
            big_n, n_p, x = np.array(case["threshold_n"]), floats(case["n_p"]), floats(case["x"])
            n_p, x = np.broadcast_arrays(n_p, x)
            for element, tail in zip(case["elements"], case["outputs"]["tail"]):
                row, col = np.unravel_index(element, (big_n.size, n_p.size))
                assert _mixed_tail(int(big_n[row]), float(n_p[col]), float(x[col])).hex() == tail, (big_n[row], col)
                tails += 1
        assert tails == 56

    def test_recorded_reference_matches_mpmath(self):
        # the recorded bits against the parts' defining sums: within 1e-12
        # relative (the worst is 7.7e-13, Poisson tails of 700 terms at a
        # mean of 621), or within the smallest subnormal where the exact
        # value underflows
        reference = json.loads((Path(__file__).parent / "data" / "mixed_tail_reference.json").read_text())
        checked = 0
        for case in reference["cases"]:
            big_n = np.array(case["threshold_n"])[:, None]
            n_p, x = (np.array([float.fromhex(h) for h in case[key]]) for key in ("n_p", "x"))
            shape = np.broadcast_shapes(big_n.shape, n_p.shape, x.shape)
            inputs = [np.broadcast_to(a, shape).ravel()[case["elements"]].tolist() for a in (big_n, n_p, x)]
            for i, element in enumerate(zip(*inputs)):
                exact = tail_parts_mp(*element)
                for name, values in case["outputs"].items():
                    value = float.fromhex(values[i])
                    assert relative_error(value, exact[name]) <= 1e-12 or abs(value - exact[name]) <= 2**-1074, (
                        name, element)
                    checked += 1
        assert checked == 5 * 56

    _elementwise = np.random.default_rng(7)

    @pytest.mark.parametrize("threshold_n, n_p, x, blocks", [
        (7, 3.0, 0.5, 1),
        (np.arange(2, 21)[:, None], np.geomspace(0.01, 100.0, 200), 0.5, 1),
        # 2000 columns and 50 thresholds: blocks of 100000 // 2000 - 2 = 48 rows
        (np.arange(1, 51)[:, None], np.geomspace(0.01, 100.0, 2000), np.linspace(0.0, 0.99, 2000), 2),
        # 100 columns, under the row loop's width, leave 243 rows a block: 3 blocks
        (np.arange(1, 601, 7)[:, None], np.geomspace(0.01, 500.0, 100), 0.9, 3),
        # more elements than _TABLE_BLOCK, one column each: a row a block, so
        # rows N - 2 to N of every element lie in three blocks
        (_elementwise.integers(1, 51, 30000), _elementwise.uniform(0.0, 60.0, 30000),
         _elementwise.uniform(0.0, 0.99, 30000), 51),
        # 3000 columns leave 6 rows a block: rows N - 2 to N straddle the
        # block edges at 6, 60 and 300
        (np.array([[7], [61], [300]]), np.geomspace(0.01, 500.0, 3000), np.linspace(0.0, 0.99, 3000), 51),
    ], ids=["scalar", "one-block", "many-blocks", "narrow-many-blocks", "elementwise-many-blocks", "block-edges"])
    def test_parts_match_one_element_calls(self, monkeypatch, threshold_n, n_p, x, blocks):
        # a one-element call walks one column in one block, with the sums of
        # a narrow table; the elements of wide and many-block tables keep its
        # bits (the corners and 200 elements drawn at random).  Each block
        # makes its Poisson rows once: counting those calls counts the blocks.
        made = []
        monkeypatch.setattr(photon_stats, "_poisson_rows", lambda *args: made.append(1) or _poisson_rows(*args))
        parts = mixed_tail_parts(threshold_n, n_p, x)
        assert len(made) == blocks
        monkeypatch.undo()
        # without the slope parts, the table walk reads three values, not five,
        # and the two it returns keep the full kernel's bits
        slope_free = mixed_tail_parts(threshold_n, n_p, x, slope_parts=False)
        assert len(slope_free) == 2
        for array, full in zip(slope_free, parts):
            assert array.view(np.int64).tolist() == full.view(np.int64).tolist()
        shape = parts[0].shape
        inputs = [np.broadcast_to(a, shape).ravel() for a in (threshold_n, n_p, x)]
        picked = np.random.default_rng(2).choice(parts[0].size, min(parts[0].size, 200), replace=False)
        for i in sorted({0, parts[0].size - 1, *picked.tolist()}):
            single = mixed_tail_parts(*(a[i] for a in inputs))
            got = [a.ravel()[i] for a in parts]
            assert np.array(got).view(np.int64).tolist() == np.concatenate(single).view(np.int64).tolist(), i

    def test_parts_and_scalar_tail_match_recorded_reference(self):
        # the recorded bits of test_bits_match_recorded_reference, read through
        # mixed_tail_parts, and through mixed_tail at each element whose x is
        # n_th / (n_th + 1) of some n_th
        reference = json.loads((Path(__file__).parent / "data" / "mixed_tail_reference.json").read_text())
        floats = lambda hexes: np.array([float.fromhex(h) for h in hexes])
        scalar_tails = 0
        for case in reference["cases"]:
            big_n, n_p, x = np.array(case["threshold_n"]), floats(case["n_p"]), floats(case["x"])
            parts = mixed_tail_parts(big_n[:, None], n_p, x)
            slope_free = mixed_tail_parts(big_n[:, None], n_p, x, slope_parts=False)
            names = ("poisson", "scaled", "last", "head", "poisson", "scaled")
            for name, array in zip(names, (*parts, *slope_free), strict=True):
                got = array.ravel()[case["elements"]]
                assert got.view(np.int64).tolist() == floats(case["outputs"][name]).view(np.int64).tolist(), name
            x = np.broadcast_to(x, n_p.shape)
            for element, tail in zip(case["elements"], case["outputs"]["tail"]):
                row, col = np.unravel_index(element, parts[0].shape)
                params = SourceParams(n_p[col], x[col] / (1.0 - x[col]))
                if params.x == x[col]:
                    assert mixed_tail(int(big_n[row]), params).hex() == tail, (case["threshold_n"][row], params)
                    scalar_tails += 1
        assert scalar_tails >= 10

    def test_deep_threshold_memory_is_bounded(self):
        # the table is walked in blocks of rows, so a deep threshold on a wide
        # grid holds a few blocks, not (N + 1) x 2000 table entries (95 MB)
        signal = np.geomspace(0.01, 100.0, 2000)
        tracemalloc.start()
        try:
            mixed_tail_parts(2000, signal, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.parametrize("big_n", [200, 700, 2000])
    def test_deep_scalar_tail_scipy_oracle(self, big_n):
        # the scalar tail's Horner sum over N terms, against the oracle of
        # test_scipy_oracle; x = 1/2 and 1023/1024 are exact, as is 1 - x.
        # Log-space Poisson terms near m = 2000 round their exponent, about
        # 1.5e4 at the mean 1900, to about 2e-12: hence the tolerance.
        m = np.arange(big_n)
        for n_th in (1.0, 1023.0):
            params = [SourceParams(n_p, n_th) for n_p in (1.0, 0.3 * big_n, 0.95 * big_n)]
            p_noise = 1.0 - params[0].x
            tail = [mixed_tail(big_n, p) for p in params]
            oracle = [
                stats.poisson.sf(big_n - 1, p.n_p_mean)
                + math.fsum(stats.poisson.pmf(m, p.n_p_mean) * stats.nbinom.sf(big_n - 1 - m, 1, p_noise))
                for p in params
            ]
            np.testing.assert_allclose(tail, oracle, rtol=3e-12, atol=0.0)

    @settings(max_examples=60)
    @given(st.data())
    def test_any_broadcast_matches_one_threshold_calls(self, data):
        # unsorted and repeated thresholds; signal means on their own axis or
        # one per threshold; thermal ratios on an axis the others lack
        k = data.draw(st.integers(1, 6))
        big_n = np.array(data.draw(st.lists(st.integers(1, 45), min_size=k, max_size=k)))[:, None, None]
        means = st.floats(0.0, 300.0) | st.sampled_from([0.0, 1e-160, 30.0, 31.0])
        if data.draw(st.booleans()):
            signal = np.array(data.draw(st.lists(means, min_size=k, max_size=k)))[:, None, None]
        else:
            signal = np.array(data.draw(st.lists(means, min_size=1, max_size=5)))[:, None]
        x = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)))
        arrays = mixed_tail_parts(big_n, signal, x)
        shape = np.broadcast_shapes(big_n.shape, signal.shape, x.shape)
        assert [a.shape for a in arrays] == [shape] * 4
        for at in np.ndindex(shape):
            args = (a[at] for a in np.broadcast_arrays(big_n, signal, x))
            single = np.concatenate(mixed_tail_parts(*args))
            got = np.array([np.broadcast_to(a, shape)[at] for a in arrays])
            assert got.view(np.int64).tolist() == single.view(np.int64).tolist()

    def test_subnormal_poisson_tail_ends(self):
        # p_p(2) is subnormal and the next term is 0: the upward sum stops
        poisson = mixed_tail_parts([2, 3, 2], 1e-160, 0.5)[0]
        assert poisson.tolist() == [poisson_pmf(2, 1e-160), 0.0, poisson_pmf(2, 1e-160)]
        assert poisson[0] > 0.0

    def test_domain(self):
        for bad in ([-1.0], [math.nan], [math.inf]):
            with pytest.raises(ValueError):
                mixed_tail_parts(2, bad, 0.5)
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                mixed_tail_parts(2, [1.0], bad)
        for bad in (0, [2, 0], [2.5], [3, math.nan]):
            with pytest.raises(ValueError, match="threshold must be a positive integer"):
                mixed_tail_parts(bad, [1.0], 0.5)


class TestSourceParams:
    def test_thermal_ratio_definition(self):
        for n_th in (0.0, -0.0, 0.5, 1.0, 3.0, 10.0):
            params = SourceParams(1.0, n_th)
            assert params.x == n_th / (n_th + 1.0)
            assert 0.0 <= params.x < 1.0
            # a zero mean is kept as +0.0: no -0.0 reaches x or the thermal laws
            for value in (params.n_th_mean, params.x, thermal_tail(1, n_th), thermal_pmf(1, n_th)):
                assert math.copysign(1.0, value) == 1.0, n_th
        assert SourceParams(0.0, 0.0).x == 0.0
        assert math.copysign(1.0, SourceParams(-0.0, 1.0).n_p_mean) == 1.0

    def test_rejects_bad_means(self):
        with pytest.raises(ValueError):
            SourceParams(-1.0, 1.0)
        with pytest.raises(ValueError):
            SourceParams(1.0, math.inf)


def oracle_pmf(params, width):
    """Law on 0..width-1 from scipy's Poisson pmf convolved with the geometric law."""
    n, x = np.arange(width), params.x
    return np.convolve(stats.poisson.pmf(n, params.n_p_mean), (1.0 - x) * x**n)[:width]


def sampled(pmf, draws, seed, key):
    """sample_histogram as a dense array: out[n] draws equal n."""
    values, counts = next(sample_histogram(pmf, draws, seed, [key]))
    assert np.all(np.diff(values) > 0)
    out = np.zeros(values[-1] + 1, dtype=np.int64)
    out[values] = counts
    return out


class TestSampling:
    def test_identical_streams_identical_sequences(self):
        pmf = build_pmf(SourceParams(3.0, 1.0))
        a = sampled(pmf, 2000, 987654321, 11)
        b = sampled(pmf, 2000, 987654321, 11)
        assert np.array_equal(a, b)

    def test_draw_order_does_not_matter(self):
        pmf = build_pmf(SourceParams(2.0, 0.5))
        forward = [sampled(pmf, 100, 5, key) for key in range(6)]
        backward = [sampled(pmf, 100, 5, key) for key in reversed(range(6))][::-1]
        assert all(np.array_equal(a, b) for a, b in zip(forward, backward))

    def test_streams_differ_by_id_and_seed(self):
        pmf = build_pmf(SourceParams(0.0, 1.0))
        base = sampled(pmf, 500, 1, 0)
        assert not np.array_equal(base, sampled(pmf, 500, 1, 1))
        assert not np.array_equal(base, sampled(pmf, 500, 2, 0))

    def test_degenerate_sources_draw_zero(self):
        # thermal light at n_th = 0 and Poisson light at n_p = 0 are both the vacuum
        hist = sampled(build_pmf(SourceParams(0.0, 0.0)), 200, 3, 0)
        assert hist[0] == 200 and not hist[1:].any()

    def test_histogram_counts_every_draw(self):
        pmf = build_pmf(SourceParams(3.0, 1.0))
        for draws in (0, 1, 12345):
            assert sampled(pmf, draws, 9, 4).sum() == draws

    @pytest.mark.parametrize("params", [SourceParams(0.0, 1.0), SourceParams(3.0, 0.0), SourceParams(3.0, 1.0)])
    def test_empirical_distribution_close_to_analytic(self, params):
        pmf = build_pmf(params, 1e-13)
        hist = sampled(pmf, 150_000, 777, 0)
        analytic = oracle_pmf(params, hist.size)
        tv = 0.5 * np.abs(hist / hist.sum() - analytic).sum() + 0.5 * (1.0 - analytic.sum())
        assert tv < 0.015

    @pytest.mark.parametrize("params", [SourceParams(0.0, 3.0), SourceParams(10.0, 0.0), SourceParams(3.0, 1.0)])
    def test_overflow_draws_follow_the_law(self, params):
        # a 5-cell table leaves much of the mass to the overflow cell, whose
        # draws must land beyond n_max with the law's own tail
        reps = 150_000
        pmf = build_pmf(params, n_max=4)
        hist = sampled(pmf, reps, 2024, 0)
        assert hist.sum() == reps and hist.size > 6
        checked = 0
        for big_n in range(5, hist.size):
            p = mixed_tail(big_n, params)
            if reps * min(p, 1.0 - p) < 25.0:
                continue
            sigma = math.sqrt(p * (1.0 - p) / reps)
            assert abs(hist[big_n:].sum() / reps - p) < 5.0 * sigma, big_n
            checked += 1
        assert checked >= 4

    @pytest.mark.parametrize("n_max", [0, 4, 30, 100])
    def test_overflow_mass_matches_total_probability(self, n_max):
        # P(count > m) by total probability over the Poisson part P: P > m,
        # or P = k <= m and the geometric part reaches m + 1 - k.  Includes
        # tables that end below the mean, and the thermal (n_p = 0) and
        # Poisson (n_th = 0) laws.
        for n_p in (0.0, 0.3, 3.0, 40.0, 700.0):
            for n_th in (0.0, 0.5, 4.0, 40.0):
                params = SourceParams(n_p, n_th)
                pmf = build_pmf(params, n_max=n_max)
                oracle = tail_beyond(params, n_max)
                np.testing.assert_allclose(pmf.residual, oracle, rtol=1e-12, atol=0.0, err_msg=str(pmf.params))

    @pytest.mark.parametrize("n_p,n_max", [(50.0, 20), (500.0, 700), (3e4, 16383)])
    def test_overflow_weights_match_the_scalar_walk(self, n_p, n_max):
        # the walk with poisson_pmf's cells: the geometric share plus pois(m+1),
        # then pois(b) until a cell past the mean is below 2^-60 of the total;
        # where the table holds over half the mass, their total one cell at a
        # time in order is the residual, the sampler's overflow cell
        pmf = build_pmf(SourceParams(n_p, 1.0), n_max=n_max)
        x = pmf.params.x
        want = [x * pmf.probs[n_max] / (1.0 - x) + poisson_pmf(n_max + 1, n_p)]
        running = want[0]
        for base in itertools.count(n_max + 2):
            term = poisson_pmf(base, n_p)
            if base > n_p and term <= running * 2.0**-60:
                break
            want.append(term)
            running += term
        weights = list(_overflow_weights(pmf.params, pmf.probs))
        assert len(weights) == len(want)
        np.testing.assert_allclose(weights, want, rtol=1e-13, atol=0.0)
        head = math.fsum(pmf.probs)
        assert pmf.residual == (functools.reduce(operator.add, weights) if head > 0.5 else 1.0 - head)

    def test_tables_match_recorded_reference(self):
        # stored bits of the sampler's tables and overflow weights: the
        # rangefinder's fig-4 and strong-target laws and a tolerance-mode
        # table per law; a change to the Poisson rows or the recurrence moves
        # them.  Each residual is the mass beyond its table by mpmath.
        reference = json.loads((Path(__file__).parent / "data" / "sampler_tables_reference.json").read_text())
        for law in reference["laws"]:
            pmf = build_pmf(SourceParams(law["n_p"], law["n_th"]), **law["args"])
            weights = _overflow_weights(pmf.params, pmf.probs)
            assert pmf.n_max == law["n_max"], law["args"]
            got = {"residual": pmf.residual.hex(), "probs": [p.hex() for p in pmf.probs],
                   "weights": [w.hex() for w in weights]}
            for name, value in got.items():
                assert value == law[name], (law["kind"], law["n_p"], law["n_th"], name)
            exact = tail_beyond_mp(law["n_p"], law["n_th"], pmf.n_max)
            assert abs(pmf.residual - exact) <= 1e-12 * exact, (law["kind"], law["n_p"], law["n_th"])

    def test_negative_seed_is_reproducible(self):
        pmf = build_pmf(SourceParams(1.0, 1.0))
        a = sampled(pmf, 1000, -7, 2)
        assert np.array_equal(a, sampled(pmf, 1000, -7, 2))
        assert not np.array_equal(a, sampled(pmf, 1000, 7, 2))

    def test_rejects_negative_identifiers(self):
        pmf = build_pmf(SourceParams(0.0, 1.0))
        with pytest.raises(ValueError):
            sampled(pmf, 10, 1, -1)
        with pytest.raises(ValueError):
            sampled(pmf, -1, 1, 0)
        with pytest.raises(ValueError):
            sampled(pmf, 10, 1, 2**64)  # one Philox key word holds a key
        with pytest.raises(ValueError):
            sampled(pmf, 10, 1.5, 0)  # not truncated to seed 1

    def test_rekeyed_generator_matches_a_fresh_one(self):
        # re-keying must reset the counter, the buffer and the spare uint32 the
        # previous key left: each key draws 3 uint32 first and leaves one spare
        bitgen = Philox(key=0)
        rng = Generator(bitgen)
        for seed, key in itertools.product([99, -1234, 2**64 - 1], [7, 0, 3, 2**32, 2**64 - 1]):
            philox_key = (seed & (2**64 - 1), key)
            _rekey(bitgen, philox_key)
            fresh = Generator(Philox(key=np.array(philox_key, np.uint64)))
            assert np.array_equal(rng.integers(2**32, size=3, dtype=np.uint32),
                                  fresh.integers(2**32, size=3, dtype=np.uint32)), key
            assert np.array_equal(rng.random(5), fresh.random(5)), key
            assert np.array_equal(rng.multinomial(1000, [0.2, 0.3, 0.5]), fresh.multinomial(1000, [0.2, 0.3, 0.5])), key
            assert bitgen.state["has_uint32"] == 1  # the third uint32 left half a word

    def test_each_key_draws_from_its_philox_key(self):
        # key k under seed s draws what Generator(Philox(key=[s mod 2**64, k])) draws from its start
        pmf = build_pmf(SourceParams(1.0, 1.0))
        draw_cells = _multinomial(np.append(pmf.probs, pmf.residual))
        keys = [7, 0, 3, 2**32, 2**64 - 1]
        for seed in (99, -1234, 2**64 - 1):
            for key, (values, counts) in zip(keys, sample_histogram(pmf, 1000, seed, keys)):
                cells = draw_cells(Generator(Philox(key=np.array([seed & (2**64 - 1), key], np.uint64))), 1000)
                assert values.size == pmf.n_max + 1 and cells[-1] == 0, (seed, key)
                assert np.array_equal(counts, cells[:-1]), (seed, key)
