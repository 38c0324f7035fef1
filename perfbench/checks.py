"""Output checks for the benchmark's workloads, against a scipy.stats oracle.

The oracle never calls pnrlidar.  It models one detection slot as
S = P + T, with P ~ Poisson(n_p) (``scipy.stats.poisson``) and T the
single-mode thermal count, geometric on {0, 1, ...}, i.e.
``scipy.stats.nbinom(1, 1 / (1 + n_th))``.  It gets P(S >= N) by total
probability over the Poisson count.

Tables are checked at the precision they claim.  CSV prints 9 significant
digits, so an emitted value passes when it equals the oracle somewhere inside
the rounding interval of the emitted inputs, give or take half a unit in its
own 9th digit.  Monte Carlo channels pass within 5 sigma, with sigma taken
from the run's own output.  A failed check raises CheckFailed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import stats

SIG_DIGITS = 9
# Rounding allowance for two double-precision evaluations of the same short
# positive sums (the oracle's and the program's).
ORACLE_RTOL = 1e-12
# ratio == 1 tolerance the boundary search documents (BOUNDARY_RATIO_TOL).
BOUNDARY_RATIO_TOL = 1e-5
OPTIMUM_STEP = 1e-3
SIGMAS = 5.0


class CheckFailed(Exception):
    """An operation's output disagrees with the oracle."""


def _require(ok, message: str) -> None:
    if not np.all(ok):
        raise CheckFailed(message)


# --- oracle ---


def _exceedance(n_p, n_th, threshold_n):
    """P(S >= N), broadcast over arrays."""
    n_p, n_th, threshold_n = np.broadcast_arrays(
        np.asarray(n_p, float), np.asarray(n_th, float), np.asarray(threshold_n, int)
    )
    p = 1.0 / (1.0 + n_th)
    m = np.arange(int(threshold_n.max()))
    n = threshold_n[..., None]
    below = np.where(
        m < n,
        stats.poisson.pmf(m, n_p[..., None]) * stats.nbinom.sf(n - 1 - m, 1, p[..., None]),
        0.0,
    )
    return stats.poisson.sf(threshold_n - 1, n_p) + below.sum(axis=-1)


def snr_ratio(n_p, n_th, threshold_n):
    """Threshold SNR over intensity SNR: [P(S >= N) / P(T >= N)] / [E S / E T]."""
    n_p, n_th, threshold_n = np.asarray(n_p, float), np.asarray(n_th, float), np.asarray(threshold_n)
    p = 1.0 / (1.0 + n_th)
    quantum = _exceedance(n_p, n_th, threshold_n) / stats.nbinom.sf(threshold_n - 1, 1, p)
    classical = (stats.poisson.mean(n_p) + stats.nbinom.mean(1, p)) / stats.nbinom.mean(1, p)
    return quantum / classical


def half_ulp(value):
    """Half a unit in the 9th significant digit of each value."""
    value = np.abs(np.asarray(value, float))
    exponent = np.floor(np.log10(np.where(value > 0.0, value, 1.0)))
    return 0.5 * 10.0 ** (exponent - (SIG_DIGITS - 1))


def _rounding_slack(fn, args, rounded):
    """How far fn can move while each rounded argument stays inside its interval."""
    slack = 0.0
    for i in rounded:
        h = half_ulp(args[i])
        hi = list(args)
        lo = list(args)
        hi[i] = args[i] + h
        lo[i] = args[i] - h
        slack = slack + np.abs(fn(*hi) - fn(*lo)) / 2.0
    return slack


def _matches_oracle(emitted, fn, args, rounded):
    """Emitted 9-digit values equal fn(args) within the claimed precision."""
    expected = fn(*args)
    allowance = (
        _rounding_slack(fn, args, rounded) + half_ulp(emitted) + ORACLE_RTOL * np.abs(expected)
    )
    return np.abs(emitted - expected) <= allowance


# --- table parsing ---


def _tables(text: str) -> list:
    """CSV tables written back to back, split where a header line starts."""
    tables = []
    for row in csv.reader(io.StringIO(text)):
        if row and not _is_number(row[0]):
            tables.append((row, []))
        elif row:
            if not tables:
                raise CheckFailed("data row before any header")
            tables[-1][1].append([float(v) for v in row])
    return tables


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _one_table(text: str, columns: list) -> np.ndarray:
    tables = _tables(text)
    _require(len(tables) == 1, f"expected one table, got {len(tables)}")
    header, rows = tables[0]
    _require(header == columns, f"columns {header} != {columns}")
    _require(len(rows) > 0, "empty table")
    return np.array(rows)


# --- per-command checks ---


def check_sweep(text: str, n_th: float, thresholds, grid) -> int:
    """Every (N, n_p) row present, in order, with the oracle ratio.  Returns rows."""
    table = _one_table(text, ["n_p_mean", "threshold_n", "ratio"])
    want_n = np.repeat(thresholds, len(grid))
    want_np = np.tile(grid, len(thresholds))
    _require(len(table) == len(want_n), f"sweep has {len(table)} rows, expected {len(want_n)}")
    n_p, n, ratio = table.T
    _require(n == want_n, "sweep thresholds out of order")
    _require(np.abs(n_p - want_np) <= 1.01 * half_ulp(want_np), "sweep grid differs from log grid")
    ok = _matches_oracle(ratio, snr_ratio, [n_p, np.full_like(n_p, n_th), n], rounded=[0])
    _require(ok, f"sweep ratio off the oracle at {(~ok).sum()} rows, first {table[~ok][:3].tolist()}")
    return len(table)


def check_optimum(text: str, n_th: float, thresholds) -> int:
    """One row per threshold; the emitted n_p beats n_p * (1 +- 1e-3) under the oracle."""
    table = _one_table(text, ["threshold_n", "n_th_mean", "best_n_p_mean", "best_ratio"])
    _require(len(table) == len(thresholds), f"optimum has {len(table)} rows")
    n, nth, best, ratio = table.T
    _require(n == np.asarray(thresholds), "optimum thresholds out of order")
    _require(nth == n_th, "optimum n_th differs from the request")
    at_best = snr_ratio(best, n_th, n)
    for step in (1.0 - OPTIMUM_STEP, 1.0 + OPTIMUM_STEP):
        worse = snr_ratio(best * step, n_th, n) > at_best
        _require(~worse, f"optimum not a maximum for N = {n[worse].astype(int).tolist()}")
    ok = _matches_oracle(ratio, snr_ratio, [best, np.full_like(best, n_th), n], rounded=[0])
    _require(ok, f"best_ratio off the oracle for N = {n[~ok].astype(int).tolist()}")
    return len(table)


def check_boundary(text: str, thresholds, nth_grid) -> int:
    """Each emitted point has oracle ratio 1 within tolerance; a missing point has no crossing."""
    table = _one_table(text, ["threshold_n", "n_th_mean", "n_p_mean", "ratio"])
    n, n_th, n_p, ratio = table.T
    nth_grid = np.asarray(nth_grid)
    slot = np.argmin(np.abs(n_th[:, None] - nth_grid[None, :]), axis=1)
    _require(np.abs(n_th - nth_grid[slot]) <= 1.01 * half_ulp(nth_grid[slot]), "noise level off the grid")
    _require(np.isin(n, thresholds), "unrequested threshold")
    keys = list(zip(n.astype(int).tolist(), slot.tolist()))
    _require(len(set(keys)) == len(keys) and keys == sorted(keys), "boundary points repeated or out of order")

    args = [n_p, n_th, n]
    on_curve = np.abs(snr_ratio(*args) - 1.0) <= BOUNDARY_RATIO_TOL + _rounding_slack(snr_ratio, args, [0, 1])
    _require(on_curve, f"oracle ratio not 1 at {table[~on_curve][:3].tolist()}")
    ok = _matches_oracle(ratio, snr_ratio, args, rounded=[0, 1])
    _require(ok, f"emitted ratio off the oracle at {table[~ok][:3].tolist()}")

    present = set(keys)
    scan = np.geomspace(1e-4, 1e4, 2001)
    for threshold_n in thresholds:
        for i, level in enumerate(nth_grid):
            if (threshold_n, i) in present:
                continue
            excess = snr_ratio(scan, level, threshold_n) - 1.0
            _require(np.all(excess > 0) or np.all(excess <= 0),
                     f"no boundary point for N = {threshold_n}, n_th = {level}, but the oracle crosses 1")
    return len(table)


def check_simulation(text: str, num_bins: int, noise_mean: float, targets, thresholds) -> int:
    """Each (target, N) channel within 5 sigma of the oracle expectation.

    Sigma combines the run's own per-channel standard error with the error
    of the noise-bin normalizer, which the program leaves out.  The
    normalizer's relative error is the scatter of the normalized noise bins
    over the square root of their number, read from the bins table.
    """
    tables = _tables(text)
    _require(len(tables) == 2, f"expected bins and ratios tables, got {len(tables)}")
    (bin_cols, bin_rows), (ratio_cols, ratio_rows) = tables
    channels = ["intensity_norm"] + [f"threshold_{n}_norm" for n in thresholds]
    _require(bin_cols == ["bin"] + channels, f"bins columns {bin_cols}")
    _require(ratio_cols == ["bin", "signal_mean", "threshold_n", "intensity_norm", "threshold_norm",
                            "ratio", "intensity_se", "threshold_se"], f"ratios columns {ratio_cols}")
    bins = np.array(bin_rows)
    _require(len(bins) == num_bins and np.all(bins[:, 0] == np.arange(num_bins)), "bins table incomplete")
    noise_bins = np.setdiff1d(np.arange(num_bins), [b for b, _ in targets])
    noise = bins[noise_bins, 1:]
    _require(np.abs(noise.mean(axis=0) - 1.0) <= 1e-8, "noise bins do not average to one")
    normalizer_rse = dict(zip(channels, noise.std(axis=0, ddof=1) / math.sqrt(len(noise_bins))))

    rows = np.array(ratio_rows)
    want = [(b, mean, n) for b, mean in targets for n in thresholds]
    _require(len(rows) == len(want) and np.all(rows[:, :3] == np.array(want)), "ratios table incomplete")
    p_noise = 1.0 / (1.0 + noise_mean)
    for (b, mean, n), (_, _, _, intensity, threshold, ratio, intensity_se, threshold_se) in zip(want, rows):
        expected = {
            "intensity_norm": (mean + noise_mean) / noise_mean,
            f"threshold_{n}_norm": _exceedance(mean, noise_mean, n) / stats.nbinom.sf(n - 1, 1, p_noise),
        }
        for channel, value, se in (("intensity_norm", intensity, intensity_se),
                                   (f"threshold_{n}_norm", threshold, threshold_se)):
            sigma = math.hypot(se, value * normalizer_rse[channel])
            _require(abs(value - expected[channel]) <= SIGMAS * sigma,
                     f"bin {b} {channel}: {value} vs oracle {float(expected[channel]):.9g}, sigma {sigma:.3g}")
            _require(bins[b, 1 + channels.index(channel)] == value, f"bin {b} {channel} differs between tables")
        quotient = threshold / intensity
        slack = half_ulp(ratio) + quotient * (half_ulp(threshold) / threshold + half_ulp(intensity) / intensity)
        _require(abs(ratio - quotient) <= slack, f"bin {b} N = {n}: ratio is not threshold / intensity")
    return len(bins) + len(rows)
