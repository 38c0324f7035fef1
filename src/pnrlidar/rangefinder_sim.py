"""Time-binned Monte Carlo rangefinder: intensity vs threshold detection.

A detection frame is split into time bins; every bin receives thermal noise
photons, and each simulated target adds Poisson signal photons to its bin.
One repetition draws one photon count per bin (one mode per bin per
repetition).  Two detection channels accumulate per bin over repetitions:

  intensity  - the summed photon count (ideal photon-number readout);
  threshold  - for each configured N, how many repetitions reached >= N.

Both channels are reported raw and normalized so that the average over the
non-target (noise) bins is one; target bins then read directly in units of
the noise floor, and the threshold/intensity quotient at a target bin is a
Monte Carlo estimate of the corresponding SNR quotient.

Both channels depend on a bin's draws only through its photon-count
histogram, and the repetitions are independent, so each bin draws that
histogram directly (one multinomial over the bin's PMF table) and the cost
does not grow with the repetition count.  Each bin's random stream is keyed
by (seed, bin), so results are bit-reproducible for a given seed, and adding
or removing a target never perturbs another bin.

A bin costs a fixed amount of numpy work, whatever the repetition count:
re-keying the sampler call's one generator, its multinomial, and one fold
of its histogram.  Each sampler call (one per source table) builds one
generator and derives the stream keys of all its bins in one array pass;
bin indices must stay below 2**32, the largest key the sampler takes.
On a 2-core Xeon (numpy 2.4) the 46-bin noise call of the paper's fig-4
layout takes about 330 us (about 900 us with one generator built per bin)
and a one-bin target call about 65 us (about 50 us).  The fold is one
int64 product of the rows [v, 1{v >= N} for each threshold] over the
count values v with the counts, which gives the count sum and every
threshold channel at once, and one dot of v^2 (as floats) with the counts
for the square sum.  Those rows are built once per source over its table's
values 0..n_max; a histogram that drew past n_max gets its own.
Histograms are folded one at a time, as they are drawn: stacking the 46
noise histograms of the paper's fig-4 layout and folding them with
np.add.at gave the same output, but raised the traced peak memory of a
200k-repetition `simulate` call from 0.087 MB to 0.24 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .photon_stats import PhotonPmf, SourceKind, SourceParams, build_pmf, sample_histogram
from .snr_analysis import ZeroNoiseError, snr_report

__all__ = [
    "DegenerateNoiseError",
    "UndefinedRatioError",
    "SimConfig",
    "SimResult",
    "RatioEstimate",
    "ExpectedResult",
    "run_simulation",
    "normalize",
    "estimate_ratio",
    "expected_result",
]

class DegenerateNoiseError(ValueError):
    """Noise-bin average is zero, so normalization is undefined."""


class UndefinedRatioError(ValueError):
    """Ratio requested at a bin whose intensity channel is zero."""


@dataclass(frozen=True)
class SimConfig:
    """Scenario description: bins, noise level, targets, detection settings."""

    repetitions: int
    seed: int
    num_bins: int = 50
    noise_mean: float = 1.0
    targets: tuple[tuple[int, float], ...] = ()
    thresholds: tuple[int, ...] = (2, 5)

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple((int(b), float(m)) for b, m in self.targets))
        object.__setattr__(self, "thresholds", tuple(int(n) for n in self.thresholds))
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.num_bins < 1:
            raise ValueError(f"num_bins must be >= 1, got {self.num_bins}")
        if not math.isfinite(self.noise_mean) or self.noise_mean < 0.0:
            raise ValueError(f"noise_mean must be finite and >= 0, got {self.noise_mean}")
        bins = [b for b, _ in self.targets]
        if len(set(bins)) != len(bins):
            raise ValueError("target bin indices must be distinct")
        for b, mean in self.targets:
            if not 0 <= b < self.num_bins:
                raise ValueError(f"target bin {b} out of range 0..{self.num_bins - 1}")
            if not math.isfinite(mean) or mean <= 0.0:
                raise ValueError(f"target signal mean must be > 0, got {mean}")
        if len(set(self.thresholds)) != len(self.thresholds):
            raise ValueError("thresholds must be distinct")
        if any(n < 1 for n in self.thresholds):
            raise ValueError("thresholds must be >= 1")

    @property
    def noise_bins(self) -> tuple[int, ...]:
        occupied = {b for b, _ in self.targets}
        return tuple(b for b in range(self.num_bins) if b not in occupied)


@dataclass(frozen=True)
class SimResult:
    """Raw and noise-normalized per-bin accumulations of one simulation."""

    config: SimConfig
    intensity_raw: np.ndarray
    intensity_sq_raw: np.ndarray
    threshold_raw: dict[int, np.ndarray]
    intensity_norm: np.ndarray
    threshold_norm: dict[int, np.ndarray]
    noise_bins: tuple[int, ...]

    @cached_property
    def _spreads(self) -> tuple[np.ndarray, dict]:
        """The noise bins, and per channel (None for intensity, N for a threshold)
        the per-repetition means, their variances and their noise-bin average:
        what :func:`estimate_ratio` reads, built at its first call."""
        reps = self.config.repetitions
        mean_count = self.intensity_raw / reps
        var = np.maximum(0.0, self.intensity_sq_raw / reps - mean_count**2)
        if reps > 1:
            var *= reps / (reps - 1)
        channels = {None: (mean_count, var / reps)}
        for n, raw in self.threshold_raw.items():
            p_hat = raw / reps
            channels[n] = (p_hat, p_hat * (1.0 - p_hat) / reps)
        noise = np.array(self.noise_bins)
        return noise, {key: (means, spread, means[noise].mean()) for key, (means, spread) in channels.items()}


@dataclass(frozen=True)
class RatioEstimate:
    """Threshold/intensity quotient at one bin, with per-channel errors.

    Standard errors are one sigma in normalized units, by the delta method
    over the bin and the noise bins that set the normalizer (all bins are
    independent): binomial per bin for the threshold channel, per-repetition
    count variance per bin for intensity.  The normalizer's share is not
    small: at fig-4 bin 40, N = 5, it is about 6.1 times the bin's own, at
    any repetition count.
    """

    bin_index: int
    threshold_n: int
    ratio: float
    intensity_value: float
    threshold_value: float
    intensity_se: float
    threshold_se: float


@dataclass(frozen=True)
class ExpectedResult:
    """Analytic normalized expectations for every bin of a config."""

    config: SimConfig
    intensity: np.ndarray
    threshold: dict[int, np.ndarray]


_TABLE_CAP = 2**14


def _count_table(params: SourceParams) -> PhotonPmf:
    """A bin's PMF table for the sampler."""
    # Any n_max gives exact draws, since the sampler resolves the mass beyond
    # the table from the law.  This one leaves about 1e-13 of it there, or,
    # for laws wider than the cap, leaves the sampler O(draws) work instead
    # of an O(width) table.
    n_p, n_th = params.n_p_mean, params.n_th_mean
    n_max = min(int(n_p + 8.0 * math.sqrt(n_p) + 30.0 * n_th) + 30, _TABLE_CAP)
    return build_pmf(SourceKind.MIXED, params, n_max=n_max)


def run_simulation(config: SimConfig) -> SimResult:
    """Draw each bin's count histogram, accumulate both channels, normalize.

    A channel whose noise bins all read zero cannot be normalized: the run
    raises :class:`DegenerateNoiseError` naming every such channel.
    """
    # Per bin: the sum of the counts, then the repetitions that reach each threshold.
    raw = np.zeros((config.num_bins, 1 + len(config.thresholds)), dtype=np.int64)
    # Sums of squared counts pass the int64 range for wide noise (about 2e19
    # at noise_mean = 1e8 and 1000 repetitions); float64 holds them.
    intensity_sq_raw = np.zeros(config.num_bins)

    # One sampler call serves every noise bin, and one each target bin.
    noise_bins = config.noise_bins
    sources = [(noise_bins, SourceParams(0.0, config.noise_mean))]
    sources += [((b,), SourceParams(mean, config.noise_mean)) for b, mean in config.targets]
    for bins, params in sources:
        _fold_histograms(raw, intensity_sq_raw, bins, _count_table(params), config)

    intensity_raw, *reached = raw.T.copy()
    threshold_raw = dict(zip(config.thresholds, reached))
    norms, silent = {}, []
    for n, channel in [(None, intensity_raw), *threshold_raw.items()]:
        try:
            norms[n] = normalize(channel, noise_bins)
        except DegenerateNoiseError:
            silent.append("intensity" if n is None else f"N = {n}")
    if silent:
        raise DegenerateNoiseError(
            f"noise-bin average is zero in the {', '.join(silent)} channel{'s' if len(silent) > 1 else ''}; "
            "raise noise_mean, repetitions, or lower thresholds"
        )
    intensity_norm = norms.pop(None)
    return SimResult(
        config,
        intensity_raw,
        intensity_sq_raw,
        threshold_raw,
        intensity_norm,
        norms,
        noise_bins,
    )


def _fold_histograms(raw: np.ndarray, sq_raw: np.ndarray, bins: Sequence[int], table: PhotonPmf, config: SimConfig) -> None:
    """Draw the histograms of ``bins`` from ``table`` and fold each in as it is drawn.

    raw[b] is one int64 product of the rows [v, 1{v >= N} for each
    threshold] with the counts, and sq_raw[b] the dot of v^2 with them.
    The rows over the table's values 0..n_max are built once; a histogram
    with values beyond n_max gets its own.
    """
    table_rows = _fold_rows(np.arange(table.n_max + 1), config.thresholds)
    for b, (values, counts) in zip(bins, sample_histogram(table, config.repetitions, config.seed, bins)):
        rows, squares = table_rows if values.size == table.n_max + 1 else _fold_rows(values, config.thresholds)
        np.matmul(rows, counts, out=raw[b])
        sq_raw[b] = squares @ counts


def _fold_rows(values: np.ndarray, thresholds: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Rows [v, 1{v >= N} for each threshold] over the count values v, and v^2 as floats."""
    rows = np.empty((1 + len(thresholds), values.size), dtype=np.int64)
    rows[0] = values
    rows[1:] = values >= np.array(thresholds)[:, None]
    return rows, np.square(values, dtype=float)


def normalize(raw: np.ndarray, noise_bins: Sequence[int]) -> np.ndarray:
    """Divide a per-bin array by its average over the noise bins."""
    raw = np.asarray(raw)
    noise_bins = list(noise_bins)
    if not noise_bins:
        raise ValueError("noise_bins must be nonempty")
    floor = float(raw[noise_bins].mean())
    if floor <= 0.0:
        raise DegenerateNoiseError(
            "noise-bin average is zero; raise noise_mean, repetitions, or lower thresholds"
        )
    return raw / floor


def estimate_ratio(result: SimResult, bin_index: int, threshold_n: int) -> RatioEstimate:
    """Threshold/intensity quotient at a bin, with standard errors.

    Raises ValueError where a standard error would be 0 (one repetition, or
    every p-hat or count it depends on constant over the repetitions): there
    the plug-in variance says nothing of the error's size.
    """
    config = result.config
    if not 0 <= bin_index < config.num_bins:
        raise ValueError(f"bin {bin_index} out of range 0..{config.num_bins - 1}")
    if threshold_n not in result.threshold_raw:
        raise ValueError(f"threshold {threshold_n} not simulated (have {sorted(result.threshold_raw)})")
    intensity_value = float(result.intensity_norm[bin_index])
    threshold_value = float(result.threshold_norm[threshold_n][bin_index])
    if intensity_value == 0.0:
        raise UndefinedRatioError(f"intensity channel is zero at bin {bin_index}")

    noise, spreads = result._spreads
    threshold_se = _normalized_se(*spreads[threshold_n], bin_index, noise)
    intensity_se = _normalized_se(*spreads[None], bin_index, noise)

    for channel, se in (("intensity", intensity_se), ("threshold", threshold_se)):
        if se == 0.0:
            raise ValueError(
                f"cannot estimate the {channel} standard error at bin {bin_index}, threshold {threshold_n}: "
                f"every count it depends on is the same in all repetitions (R = {config.repetitions}), so its plug-in "
                f"variance is 0; raise repetitions"
            )
    return RatioEstimate(
        bin_index,
        int(threshold_n),
        threshold_value / intensity_value,
        intensity_value,
        threshold_value,
        intensity_se,
        threshold_se,
    )


def _normalized_se(means: np.ndarray, variances: np.ndarray, floor: float, b: int, noise: np.ndarray) -> float:
    """Delta-method sigma of means[b] / floor, floor = mean(means[noise]), bins independent."""
    grad = np.zeros(means.size)
    grad[noise] = -means[b] / (floor * floor * noise.size)
    grad[b] += 1.0 / floor
    return math.sqrt(float(grad**2 @ variances))


def expected_result(config: SimConfig) -> ExpectedResult:
    """Analytic normalized expectations: the infinite-repetition limit.

    Intensity at a target bin tends to (n_p + n_th) / n_th and threshold
    channels to the threshold-detection SNR; noise bins tend to one.
    """
    if config.noise_mean == 0.0:
        raise ZeroNoiseError("expected_result needs noise_mean > 0")
    intensity = np.ones(config.num_bins)
    threshold = {n: np.ones(config.num_bins) for n in config.thresholds}
    for b, signal_mean in config.targets:
        report = snr_report(SourceParams(signal_mean, config.noise_mean), config.thresholds)
        intensity[b] = report.classical
        for n in config.thresholds:
            threshold[n][b] = report.quantum[n]
    return ExpectedResult(config, intensity, threshold)
