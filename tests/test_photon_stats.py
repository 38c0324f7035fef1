"""Distribution-level checks: recurrences vs defining sums, tails, the sampler."""

import functools
import itertools
import json
import math
import operator
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy import stats

from pnrlidar.photon_stats import (
    PmfTruncationError,
    SourceKind,
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
from pnrlidar.photon_stats import _TAIL_STEPPED, _mixed_tail, _multinomial, _overflow_weights, _poisson_rows, _rekey

MEAN_GRID = (0.0, 0.5, 1.0, 3.0, 10.0)


def convolved_pmf(n, n_p, n_th):
    """Defining convolution of the Poisson and thermal laws (test oracle)."""
    return math.fsum(poisson_pmf(m, n_p) * thermal_pmf(n - m, n_th) for m in range(n + 1))


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
        pmf = build_pmf(SourceKind.THERMAL, SourceParams(0.0, 0.0), 1e-12)
        assert pmf.probs == (1.0,)
        assert pmf.residual == 0.0
        assert pmf.n_max == 0

    def test_unit_noise_truncation_bound(self):
        # geometric tail 2^-(n_max+1) first reaches 1e-12 at n_max = 39
        pmf = build_pmf(SourceKind.THERMAL, SourceParams(0.0, 1.0), 1e-12)
        assert pmf.n_max == 39
        assert pmf.residual == pytest.approx(2.0**-40)

    def test_poisson_mass_captured(self):
        pmf = build_pmf(SourceKind.POISSON, SourceParams(10.0, 0.0), 1e-12)
        assert math.fsum(pmf.probs) >= 1.0 - 1e-12

    @pytest.mark.parametrize("kind", list(SourceKind))
    @pytest.mark.parametrize("n_p", MEAN_GRID)
    @pytest.mark.parametrize("n_th", MEAN_GRID)
    def test_normalization_with_residual(self, kind, n_p, n_th):
        pmf = build_pmf(kind, SourceParams(n_p, n_th), 1e-12)
        assert pmf.residual <= 1e-12
        assert math.fsum(pmf.probs) + pmf.residual == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= p <= 1.0 for p in pmf.probs)

    def test_fixed_bound_table(self):
        params = SourceParams(2.0, 1.0)
        pmf = build_pmf(SourceKind.MIXED, params, n_max=30)
        assert pmf.n_max == 30 and len(pmf.probs) == 31
        assert list(pmf.probs) == [mixed_pmf(n, params) for n in range(31)]
        assert pmf.residual == pytest.approx(mixed_tail(31, params), abs=1e-15)

    def test_fixed_bound_reaches_past_the_cap(self):
        # a tolerance walk would need more terms than the cap allows
        with pytest.raises(PmfTruncationError):
            build_pmf(SourceKind.MIXED, SourceParams(1.0, 40.0), 1e-12)
        pmf = build_pmf(SourceKind.MIXED, SourceParams(1.0, 40.0), n_max=1500)
        assert pmf.residual < 1e-12

    @pytest.mark.parametrize("bad", [-1, 2.5])
    def test_fixed_bound_domain(self, bad):
        with pytest.raises(ValueError):
            build_pmf(SourceKind.THERMAL, SourceParams(0.0, 1.0), n_max=bad)

    def test_tolerance_domain(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                build_pmf(SourceKind.THERMAL, SourceParams(0.0, 1.0), bad)

    def test_cap_exceeded_raises(self):
        # n_th = 10 needs ~362 terms for 1e-15 but the cap allows only 300
        with pytest.raises(PmfTruncationError):
            build_pmf(SourceKind.THERMAL, SourceParams(0.0, 10.0), 1e-15)

    def test_tolerance_walk_sums_each_block_once(self, monkeypatch):
        # the terms' sum never comes within 1e-15 of 1; an fsum of the whole
        # table at each row past the running sum's slack made 8956 calls
        calls = []
        monkeypatch.setattr(math, "fsum", lambda values, fsum=math.fsum: calls.append(1) or fsum(values))
        with pytest.raises(PmfTruncationError) as refusal:
            build_pmf(SourceKind.POISSON, SourceParams(1000.0, 0.0), 1e-15)
        assert str(refusal.value) == (
            "residual 2.508e-13 still above tolerance 1.000e-15 at the hard cap n_max = 10200"
        )
        assert len(calls) <= 64


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
        # the boundary bisection's shape: one threshold, one x per element,
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

    @pytest.mark.parametrize("threshold_n, n_p, x", [
        (7, 3.0, 0.5),
        (np.arange(2, 21)[:, None], np.geomspace(0.01, 100.0, 200), 0.5),
        # 2000 columns leave 10 rows a block: N to 50 walks the table in 6 blocks
        (np.arange(1, 51)[:, None], np.geomspace(0.01, 100.0, 2000), np.linspace(0.0, 0.99, 2000)),
        # 100 columns, under the row loop's width, leave 243 rows a block: 3 blocks
        (np.arange(1, 601, 7)[:, None], np.geomspace(0.01, 500.0, 100), 0.9),
    ], ids=["scalar", "one-block", "many-blocks", "narrow-many-blocks"])
    def test_parts_match_one_element_calls(self, threshold_n, n_p, x):
        # a one-element call walks one column in one block, with the sums of
        # a narrow table; the elements of wide and many-block tables keep its
        # bits (the corners and 200 elements drawn at random)
        parts = mixed_tail_parts(threshold_n, n_p, x)
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
            for name, array in zip(("poisson", "scaled", "last", "head"), parts):
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


def oracle_pmf(kind, params, width):
    """Law on 0..width-1 from scipy's Poisson pmf convolved with the geometric law."""
    n = np.arange(width)
    n_p = 0.0 if kind is SourceKind.THERMAL else params.n_p_mean
    x = 0.0 if kind is SourceKind.POISSON else params.x
    return np.convolve(stats.poisson.pmf(n, n_p), (1.0 - x) * x**n)[:width]


def sampled(pmf, draws, seed, key):
    """sample_histogram as a dense array: out[n] draws equal n."""
    values, counts = next(sample_histogram(pmf, draws, seed, [key]))
    assert np.all(np.diff(values) > 0)
    out = np.zeros(values[-1] + 1, dtype=np.int64)
    out[values] = counts
    return out


class TestSampling:
    def test_identical_streams_identical_sequences(self):
        pmf = build_pmf(SourceKind.MIXED, SourceParams(3.0, 1.0))
        a = sampled(pmf, 2000, 987654321, 11)
        b = sampled(pmf, 2000, 987654321, 11)
        assert np.array_equal(a, b)

    def test_draw_order_does_not_matter(self):
        pmf = build_pmf(SourceKind.MIXED, SourceParams(2.0, 0.5))
        forward = [sampled(pmf, 100, 5, key) for key in range(6)]
        backward = [sampled(pmf, 100, 5, key) for key in reversed(range(6))][::-1]
        assert all(np.array_equal(a, b) for a, b in zip(forward, backward))

    def test_streams_differ_by_id_and_seed(self):
        pmf = build_pmf(SourceKind.THERMAL, SourceParams(0.0, 1.0))
        base = sampled(pmf, 500, 1, 0)
        assert not np.array_equal(base, sampled(pmf, 500, 1, 1))
        assert not np.array_equal(base, sampled(pmf, 500, 2, 0))

    def test_degenerate_sources_draw_zero(self):
        thermal = build_pmf(SourceKind.THERMAL, SourceParams(0.0, 0.0))
        poisson = build_pmf(SourceKind.POISSON, SourceParams(0.0, 5.0))
        for pmf in (thermal, poisson):
            hist = sampled(pmf, 200, 3, 0)
            assert hist[0] == 200 and not hist[1:].any()

    def test_histogram_counts_every_draw(self):
        pmf = build_pmf(SourceKind.MIXED, SourceParams(3.0, 1.0))
        for draws in (0, 1, 12345):
            assert sampled(pmf, draws, 9, 4).sum() == draws

    @pytest.mark.parametrize(
        "kind,params",
        [
            (SourceKind.THERMAL, SourceParams(0.0, 1.0)),
            (SourceKind.POISSON, SourceParams(3.0, 0.0)),
            (SourceKind.MIXED, SourceParams(3.0, 1.0)),
        ],
    )
    def test_empirical_distribution_close_to_analytic(self, kind, params):
        pmf = build_pmf(kind, params, 1e-13)
        hist = sampled(pmf, 150_000, 777, 0)
        analytic = oracle_pmf(kind, params, hist.size)
        tv = 0.5 * np.abs(hist / hist.sum() - analytic).sum() + 0.5 * (1.0 - analytic.sum())
        assert tv < 0.015

    @pytest.mark.parametrize(
        "kind,params",
        [
            (SourceKind.THERMAL, SourceParams(0.0, 3.0)),
            (SourceKind.POISSON, SourceParams(10.0, 0.0)),
            (SourceKind.MIXED, SourceParams(3.0, 1.0)),
        ],
    )
    def test_overflow_draws_follow_the_law(self, kind, params):
        # a 5-cell table leaves much of the mass to the overflow cell, whose
        # draws must land beyond n_max with the law's own tail
        reps = 150_000
        pmf = build_pmf(kind, params, n_max=4)
        hist = sampled(pmf, reps, 2024, 0)
        assert hist.sum() == reps and hist.size > 6
        checked = 0
        for big_n in range(5, hist.size):
            p = mixed_tail(big_n, params)  # each kind's params carry a zero mean for the other part
            if reps * min(p, 1.0 - p) < 25.0:
                continue
            sigma = math.sqrt(p * (1.0 - p) / reps)
            assert abs(hist[big_n:].sum() / reps - p) < 5.0 * sigma, big_n
            checked += 1
        assert checked >= 4

    @pytest.mark.parametrize("kind", list(SourceKind))
    def test_overflow_mass_matches_total_probability(self, kind):
        # P(count > m) by total probability over the Poisson part P: P > m,
        # or P = k <= m and the geometric part reaches m + 1 - k.  Includes
        # tables that end below the mean.
        for n_p in (0.0, 0.3, 3.0, 40.0, 700.0):
            for n_th in (0.0, 0.5, 4.0, 40.0):
                params = SourceParams(n_p, n_th)
                for n_max in (0, 4, 30, 100):
                    pmf = build_pmf(kind, params, n_max=n_max)
                    k = np.arange(n_max + 1)
                    mean = 0.0 if kind is SourceKind.THERMAL else n_p
                    x = 0.0 if kind is SourceKind.POISSON else params.x
                    oracle = stats.poisson.sf(n_max, mean) + math.fsum(
                        stats.poisson.pmf(k, mean) * x ** (n_max + 1 - k)
                    )
                    mass = _overflow_weights(pmf)[1]
                    np.testing.assert_allclose(mass, oracle, rtol=1e-12, atol=0.0, err_msg=str(pmf.params))

    @pytest.mark.parametrize("n_p,n_max", [(50.0, 20), (500.0, 700), (3e4, 16383)])
    def test_overflow_weights_match_the_scalar_walk(self, n_p, n_max):
        # the walk with poisson_pmf's cells: the geometric share plus pois(m+1),
        # then pois(b) until a cell past the mean is below 2^-60 of the total
        pmf = build_pmf(SourceKind.MIXED, SourceParams(n_p, 1.0), n_max=n_max)
        x = pmf.params.x
        want = [x * pmf.probs[n_max] / (1.0 - x) + poisson_pmf(n_max + 1, n_p)]
        running = want[0]
        for base in itertools.count(n_max + 2):
            term = poisson_pmf(base, n_p)
            if base > n_p and term <= running * 2.0**-60:
                break
            want.append(term)
            running += term
        weights, total = _overflow_weights(pmf)
        assert len(weights) == len(want)
        np.testing.assert_allclose(weights, want, rtol=1e-13, atol=0.0)
        assert total == functools.reduce(operator.add, weights)  # one cell at a time, in order

    def test_tables_match_recorded_reference(self):
        # stored bits of the sampler's tables and overflow weights: the
        # rangefinder's fig-4 and strong-target laws and a tolerance-mode
        # table per kind; a change to the Poisson rows or the recurrence moves them
        reference = json.loads((Path(__file__).parent / "data" / "sampler_tables_reference.json").read_text())
        for law in reference["laws"]:
            pmf = build_pmf(SourceKind(law["kind"]), SourceParams(law["n_p"], law["n_th"]), **law["args"])
            weights, total = _overflow_weights(pmf)
            assert pmf.n_max == law["n_max"], law["args"]
            got = {"residual": pmf.residual.hex(), "probs": [p.hex() for p in pmf.probs],
                   "weights": [w.hex() for w in weights], "total": total.hex()}
            for name, value in got.items():
                assert value == law[name], (law["kind"], law["n_p"], law["n_th"], name)

    def test_negative_seed_is_reproducible(self):
        pmf = build_pmf(SourceKind.MIXED, SourceParams(1.0, 1.0))
        a = sampled(pmf, 1000, -7, 2)
        assert np.array_equal(a, sampled(pmf, 1000, -7, 2))
        assert not np.array_equal(a, sampled(pmf, 1000, 7, 2))

    def test_rejects_negative_identifiers(self):
        pmf = build_pmf(SourceKind.THERMAL, SourceParams(0.0, 1.0))
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
        pmf = build_pmf(SourceKind.MIXED, SourceParams(1.0, 1.0))
        draw_cells = _multinomial(np.append(pmf.probs, _overflow_weights(pmf)[1]))
        keys = [7, 0, 3, 2**32, 2**64 - 1]
        for seed in (99, -1234, 2**64 - 1):
            for key, (values, counts) in zip(keys, sample_histogram(pmf, 1000, seed, keys)):
                cells = draw_cells(Generator(Philox(key=np.array([seed & (2**64 - 1), key], np.uint64))), 1000)
                assert values.size == pmf.n_max + 1 and cells[-1] == 0, (seed, key)
                assert np.array_equal(counts, cells[:-1]), (seed, key)
