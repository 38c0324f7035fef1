"""Simulator checks: config validation, determinism, normalization, statistics."""

import json
import math
from pathlib import Path

import numpy as np
import numpy.random
import numpy.random.bit_generator
import pytest

from pnrlidar import rangefinder_sim
from pnrlidar.photon_stats import mixed_tail, sample_histogram, SourceParams
from pnrlidar.rangefinder_sim import (
    DegenerateNoiseError,
    SimConfig,
    UndefinedRatioError,
    estimate_ratio,
    expected_result,
    normalize,
    run_simulation,
)
from pnrlidar.snr_analysis import ZeroNoiseError, classical_snr, quantum_snr


def four_target_config(repetitions=2000, seed=1234):
    return SimConfig(
        repetitions=repetitions,
        seed=seed,
        num_bins=50,
        noise_mean=1.0,
        targets=((10, 0.5), (20, 1.0), (30, 3.0), (40, 10.0)),
        thresholds=(2, 5),
    )


class TestSimConfig:
    def test_noise_bins_exclude_targets(self):
        config = four_target_config()
        assert len(config.noise_bins) == 46
        assert set(config.noise_bins).isdisjoint({10, 20, 30, 40})

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(repetitions=0),
            dict(num_bins=0),
            dict(noise_mean=-1.0),
            dict(noise_mean=math.nan),
            dict(targets=((3, 1.0), (3, 2.0))),
            dict(targets=((99, 1.0),)),
            dict(targets=((1, 0.0),)),
            dict(thresholds=(2, 2)),
            dict(thresholds=(0,)),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        base = dict(repetitions=10, seed=0, num_bins=8, noise_mean=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SimConfig(**base)


class TestRunSimulation:
    def test_bit_identical_reruns(self):
        a = run_simulation(four_target_config())
        b = run_simulation(four_target_config())
        assert np.array_equal(a.intensity_raw, b.intensity_raw)
        assert np.array_equal(a.intensity_norm, b.intensity_norm)
        for n in (2, 5):
            assert np.array_equal(a.threshold_raw[n], b.threshold_raw[n])
            assert np.array_equal(a.threshold_norm[n], b.threshold_norm[n])

    def test_seed_changes_realization(self):
        a = run_simulation(four_target_config(seed=1))
        b = run_simulation(four_target_config(seed=2))
        assert not np.array_equal(a.intensity_raw, b.intensity_raw)

    def test_targets_do_not_perturb_noise_bins(self):
        # separate signal slot: removing a target leaves every other bin's draw alone
        with_target = run_simulation(four_target_config())
        config = SimConfig(
            repetitions=2000, seed=1234, num_bins=50, noise_mean=1.0,
            targets=((10, 0.5), (20, 1.0), (30, 3.0)), thresholds=(2, 5),
        )
        without = run_simulation(config)
        keep = [b for b in range(50) if b != 40]
        assert np.array_equal(with_target.intensity_raw[keep], without.intensity_raw[keep])

    def test_bits_match_recorded_reference(self):
        # stored raw channels: fig 4 at 5 and 200k repetitions, strong targets,
        # square sums past 2^53 (their rounding follows the order of summation)
        # and a noise law past the table cap, so every bin draws overflow cells
        reference = json.loads((Path(__file__).parent / "data" / "simulation_reference.json").read_text())
        for case in reference["cases"]:
            config = dict(case["config"], targets=tuple(map(tuple, case["config"]["targets"])))
            result = run_simulation(SimConfig(**config))
            assert result.intensity_raw.tolist() == case["intensity_raw"], config
            assert [float(v).hex() for v in result.intensity_sq_raw] == case["intensity_sq_raw"], config
            assert {str(n): raw.tolist() for n, raw in result.threshold_raw.items()} == case["threshold_raw"], config

    def test_one_philox_and_no_seed_sequence_per_sampler_call(self, monkeypatch):
        # each bin's stream is Philox's own key (seed, bin), so no seed is hashed
        # into a SeedSequence: fig 4 makes one sampler call per table (noise and
        # 4 targets), each with one Philox re-keyed per bin.  Philox(key=...)
        # still builds one unseeded SeedSequence inside numpy, which no patch of
        # numpy.random.SeedSequence sees; it reads 128 bits of OS entropy, so
        # those reads count the Philoxes built, one per sampler call.
        built, philoxes, calls, entropy_reads = [], [], [], []

        class CountedSeedSequence(numpy.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        philox = numpy.random.Philox
        randbits = numpy.random.bit_generator.randbits

        def counted_philox(*args, **kwargs):
            philoxes.append((args, sorted(kwargs)))
            return philox(*args, **kwargs)

        def counted_randbits(bits):
            entropy_reads.append(bits)
            return randbits(bits)

        def counted_sampler(*args):
            calls.append(args)
            return sample_histogram(*args)

        monkeypatch.setattr(numpy.random, "SeedSequence", CountedSeedSequence)
        monkeypatch.setattr(numpy.random, "Philox", counted_philox)
        monkeypatch.setattr(numpy.random.bit_generator, "randbits", counted_randbits)
        monkeypatch.setattr(rangefinder_sim, "sample_histogram", counted_sampler)
        run_simulation(four_target_config(repetitions=200_000))
        assert len(calls) == 5
        assert philoxes == [((), ["key"])] * len(calls)  # each built from a key, not from a seed
        assert built == []
        assert entropy_reads == [128] * len(calls)

    def test_sum_of_squares_does_not_wrap(self):
        # counts near 1e8 square to about 2e19 per bin, past the int64 range;
        # Cauchy-Schwarz: reps * sum(n^2) >= (sum n)^2
        result = run_simulation(SimConfig(1000, 1, 2, 1e8))
        for b in range(2):
            assert float(result.intensity_sq_raw[b]) * 1000 >= float(result.intensity_raw[b]) ** 2

    def test_raw_bounds_and_counting_bound(self):
        result = run_simulation(four_target_config())
        reps = result.config.repetitions
        assert (result.intensity_raw >= 0).all()
        for n in (2, 5):
            assert (result.threshold_raw[n] >= 0).all()
            assert (result.threshold_raw[n] <= reps).all()
        assert (result.threshold_raw[5] <= result.threshold_raw[2]).all()

    def test_normalized_noise_average_is_one(self):
        result = run_simulation(four_target_config())
        noise = list(result.noise_bins)
        assert result.intensity_norm[noise].mean() == pytest.approx(1.0, abs=1e-12)
        for n in (2, 5):
            assert result.threshold_norm[n][noise].mean() == pytest.approx(1.0, abs=1e-12)

    def test_zero_noise_without_targets_is_degenerate(self):
        config = SimConfig(repetitions=50, seed=3, num_bins=10, noise_mean=0.0,
                           targets=(), thresholds=(2,))
        with pytest.raises(DegenerateNoiseError, match="zero in the intensity, N = 2 channels;"):
            run_simulation(config)

    def test_convergence_to_analytic_expectations(self):
        expected = expected_result(four_target_config())
        previous = None
        for reps in (100, 10_000, 1_000_000):
            result = run_simulation(four_target_config(repetitions=reps, seed=42))
            worst = 0.0
            for b, _ in result.config.targets:
                channels = [(result.intensity_norm, expected.intensity)]
                channels += [(result.threshold_norm[n], expected.threshold[n]) for n in (2, 5)]
                for got, want in channels:
                    if want[b] >= 1.1:
                        worst = max(worst, abs(got[b] - want[b]) / want[b])
            if previous is not None:
                assert worst < previous
            previous = worst
        assert previous < 0.02

    def test_negative_seed_runs(self):
        a = run_simulation(four_target_config(seed=-1234))
        b = run_simulation(four_target_config(seed=-1234))
        assert np.array_equal(a.intensity_raw, b.intensity_raw)
        assert not np.array_equal(a.intensity_raw, run_simulation(four_target_config()).intensity_raw)

    @pytest.mark.parametrize(
        "noise_mean,target_mean", [(40.0, 1.0), (1.0, 1000.0), (1e5, 1.0), (1.0, 3e4)]
    )
    def test_wide_laws_run(self, noise_mean, target_mean):
        # past the cap of build_pmf's tolerance mode, then past the sampler's table
        reps = 1000
        config = SimConfig(repetitions=reps, seed=5, num_bins=8, noise_mean=noise_mean,
                           targets=((3, target_mean),), thresholds=(2, 5))
        result = run_simulation(config)
        for b in range(8):
            n_p = target_mean if b == 3 else 0.0
            mean = n_p + noise_mean
            sigma = math.sqrt((n_p + noise_mean * (noise_mean + 1.0)) / reps)
            assert abs(result.intensity_raw[b] / reps - mean) < 5.0 * sigma

    def test_noise_too_wide_to_sample_is_refused(self):
        # n_th / (n_th + 1) rounds to 1: the thermal law is not representable
        config = SimConfig(repetitions=10, seed=1, num_bins=4, noise_mean=1e17)
        with pytest.raises(ValueError, match="too large to sample"):
            run_simulation(config)

    def test_signal_too_wide_to_sample_is_refused(self):
        # refused before the sampler walks its overflow weights out to the mean
        config = SimConfig(repetitions=10, seed=1, num_bins=4, noise_mean=1.0, targets=((1, 1e12),))
        with pytest.raises(ValueError, match=r"signal mean 1000000000000\.0 too large to sample.* up to 100000$"):
            run_simulation(config)

    def test_raw_frequencies_match_theory_at_high_sampling(self):
        # 10^8 repetitions cost no more than 10^3: the sampler draws histograms
        reps = 10**8
        config = four_target_config(repetitions=reps, seed=7)
        result = run_simulation(config)
        targets = dict(config.targets)
        z = []
        for b in range(config.num_bins):
            params = SourceParams(targets.get(b, 0.0), config.noise_mean)
            mean = params.n_p_mean + params.n_th_mean
            var = params.n_p_mean + params.n_th_mean * (params.n_th_mean + 1.0)
            z.append((result.intensity_raw[b] / reps - mean) / math.sqrt(var / reps))
            for n in config.thresholds:
                p = mixed_tail(n, params)
                z.append((result.threshold_raw[n][b] / reps - p) / math.sqrt(p * (1.0 - p) / reps))
        assert len(z) == 150
        assert max(abs(v) for v in z) < 5.0


class TestNormalize:
    def test_constant_array_becomes_ones(self):
        out = normalize(np.full(6, 7.0), range(6))
        assert np.allclose(out, 1.0)

    def test_plain_arithmetic(self):
        out = normalize(np.array([1.0, 2.0, 3.0, 6.0]), [0, 1, 2])
        assert out[3] == pytest.approx(3.0)

    def test_empty_noise_bins_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.ones(4), [])

    def test_zero_floor_is_degenerate(self):
        with pytest.raises(DegenerateNoiseError):
            normalize(np.array([0.0, 0.0, 5.0]), [0, 1])


class TestEstimateRatio:
    def test_noise_bin_ratio_near_unity(self):
        result = run_simulation(four_target_config(repetitions=10_000))
        est = estimate_ratio(result, 25, 2)
        assert est.ratio == pytest.approx(1.0, abs=0.1)

    def test_target_bin_matches_analytic_within_errors(self):
        result = run_simulation(four_target_config(repetitions=10_000))
        est = estimate_ratio(result, 40, 5)
        want = quantum_snr(SourceParams(10.0, 1.0), 5) / 11.0
        assert est.ratio == pytest.approx(want, rel=0.07)
        assert est.intensity_se > 0.0 and est.threshold_se > 0.0
        assert est.threshold_value == pytest.approx(
            result.threshold_norm[5][40], rel=1e-12
        )

    def test_normalized_values_within_errors_at_high_sampling(self):
        # the noise-bin normalizer's error dominates at bin 40, N = 5, and
        # does not shrink relative to the bin's own error as repetitions grow
        config = four_target_config(repetitions=10**8, seed=7)
        result = run_simulation(config)
        expected = expected_result(config)
        for b, _ in config.targets:
            for n in config.thresholds:
                est = estimate_ratio(result, b, n)
                assert abs(est.intensity_value - expected.intensity[b]) < 5.0 * est.intensity_se
                assert abs(est.threshold_value - expected.threshold[n][b]) < 5.0 * est.threshold_se

    def test_validation(self):
        result = run_simulation(four_target_config())
        with pytest.raises(ValueError):
            estimate_ratio(result, 99, 2)
        with pytest.raises(ValueError):
            estimate_ratio(result, 10, 3)

    def test_zero_intensity_bin_is_undefined(self):
        config = SimConfig(repetitions=5, seed=0, num_bins=20, noise_mean=0.05,
                           targets=(), thresholds=(1,))
        result = run_simulation(config)
        empty = int(np.flatnonzero(result.intensity_raw == 0)[0])
        with pytest.raises(UndefinedRatioError):
            estimate_ratio(result, empty, 1)


class TestExpectedResult:
    def test_delegates_to_snr_formulas(self):
        expected = expected_result(four_target_config())
        assert expected.threshold[5][40] == quantum_snr(SourceParams(10.0, 1.0), 5)
        assert expected.intensity[20] == pytest.approx(2.0)
        assert expected.intensity[0] == 1.0
        assert expected.threshold[2][0] == 1.0

    def test_every_target_and_threshold_is_the_scalar_value(self):
        targets = tuple((b, 0.05 * 1.6**b) for b in range(20))
        config = SimConfig(repetitions=10, seed=0, num_bins=25, noise_mean=2.5,
                           targets=targets, thresholds=(7, 1, 2, 30, 5, 3))
        expected = expected_result(config)
        for b, signal_mean in targets:
            params = SourceParams(signal_mean, 2.5)
            assert expected.intensity[b] == classical_snr(params)
            for n in config.thresholds:
                assert expected.threshold[n][b] == quantum_snr(params, n)

    def test_zero_noise_rejected(self):
        config = SimConfig(repetitions=10, seed=0, num_bins=4, noise_mean=0.0,
                           targets=((1, 2.0),), thresholds=(2,))
        with pytest.raises(ZeroNoiseError):
            expected_result(config)


class TestLowSampling:
    def test_five_photon_channel_is_sparse_at_hundred_repetitions(self):
        # weak target: ~5 expected detections, so empty realizations are plausible
        exceed = mixed_tail(5, SourceParams(0.5, 1.0))
        expected_detections = 100.0 * exceed
        assert expected_detections < 6.0
        assert (1.0 - exceed) ** 100 > 0.004  # chance of zero detections
