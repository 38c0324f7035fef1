"""Photon-number distributions for coherent light in thermal background.

Single-mode thermal light has geometric photon statistics

    p_th(n) = n_th^n / (n_th + 1)^(n+1) = x^n (1 - x),    x = n_th / (n_th + 1),

coherent (laser) light has Poisson statistics, and their mixture is the
convolution of the two laws.  Because the thermal law is geometric, the
convolution obeys a recurrence in positive terms,

    p(n) = x p(n-1) + (1 - x) p_poisson(n),

so a PMF table to n_max costs O(n_max).  The thermal and Poisson laws are
its n_p = 0 and n_th = 0 limits, so the one law of :class:`SourceParams`
serves every table and the sampler.  One time bin is treated as one mode
per repetition, so a single (n_p, n_th) pair fully describes a detection
slot.

The Poisson terms p_p(m) of every table (the one array kernel
:func:`mixed_tail_parts`, :func:`mixed_tail`'s sum, :func:`build_pmf` and the
sampler's overflow weights) are rows of one block function, ``_poisson_rows``;
:func:`poisson_pmf` is their scalar reference.

Also provided: tail probabilities above a photon-number threshold, truncated
PMF construction, and a seeded sampler that draws the photon-count histogram
of many independent repetitions at once: one multinomial over a PMF table,
from a generator keyed by (seed, key), for each of a sequence of keys.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "SourceParams",
    "PhotonPmf",
    "PmfTruncationError",
    "thermal_pmf",
    "poisson_pmf",
    "mixed_pmf",
    "build_pmf",
    "thermal_tail",
    "mixed_tail",
    "mixed_tail_parts",
    "sample_histogram",
]

# Direct-recurrence regime bound for Poisson terms.
_RECURRENCE_CUTOFF = 30
# Table cells (rows x columns) per block of a walk down a table's rows.
_TABLE_BLOCK = 24576
# log(m!) = lgamma(m + 1) for m below 1024, the rows of the tables the
# sampler draws from, tabulated once: math.lgamma costs about 150 ns a call,
# and each block of log-space rows needs one per row.  Deeper rows call it.
_LOG_FACTORIALS = np.fromiter(map(math.lgamma, range(1, 1025)), float, 1024)
# Rows a table may hold: a table whose tail bound asks for more, or a fixed
# n_max past it, is refused before its first row is made.  A row costs about
# 41 B in build_pmf (a float and its list and tuple slots), and the `pmf`
# command's CSV, formatted in blocks of rows, adds little to it: traced peaks
# of 41.4 MB for the CSV and 400 MB for --format structured at a Poisson
# mean of 1e6 (1.007e6 rows).  So this bounds the command to about 90 MB,
# and 0.85 GB in structured form.
_ROW_BUDGET = 2**21


class PmfTruncationError(RuntimeError):
    """A table past the row budget, refused before any row is made.

    ``name`` is the parameter that asks for the rows: ``"n_p"`` or ``"n_th"``,
    the mean whose tail needs more of them, or ``"n_max"``; ``value`` is its
    value and ``detail`` the rest of the message.
    """

    def __init__(self, name: str, value: float, detail: str) -> None:
        super().__init__(f"{name} = {value!r}: {detail}")
        self.name, self.value, self.detail = name, value, detail


def _check_mean(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value + 0.0  # -0.0 + 0.0 is +0.0, so a zero mean is kept as +0.0


@dataclass(frozen=True)
class SourceParams:
    """Mean photon numbers of the coherent signal and the thermal background.

    ``x`` is the derived thermal ratio n_th / (n_th + 1); the probability
    that a thermal draw reaches at least N photons is x^N.  ``w`` is
    1 - x, derived as 1 / (n_th + 1): 1 minus a rounded x would lose about
    log10(n_th) of its digits.
    """

    n_p_mean: float
    n_th_mean: float
    x: float = field(init=False)
    w: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_p_mean", _check_mean(self.n_p_mean, "n_p_mean"))
        object.__setattr__(self, "n_th_mean", _check_mean(self.n_th_mean, "n_th_mean"))
        object.__setattr__(self, "x", self.n_th_mean / (self.n_th_mean + 1.0))
        object.__setattr__(self, "w", 1.0 / (self.n_th_mean + 1.0))


@dataclass(frozen=True)
class PhotonPmf:
    """Truncated photon-number PMF: rows 0..n_max and the law's mass beyond them.

    ``residual`` is that mass, R = x p(n_max) / (1 - x) + P_poisson(n > n_max),
    summed in positive terms (see :func:`build_pmf`), so it keeps its
    relative precision however small it is.
    """

    params: SourceParams
    probs: tuple[float, ...]
    n_max: int
    residual: float


def thermal_pmf(n: int, n_th_mean: float) -> float:
    """Probability of n photons from single-mode thermal light."""
    n = _check_count(n)
    params = SourceParams(0.0, n_th_mean)
    return params.x**n * params.w


def poisson_pmf(n: int, n_p_mean: float) -> float:
    """Probability of n photons from coherent light with the given mean.

    Uses the recurrence p(n) = p(n-1) * mean / n in the small regime and
    log-space evaluation once mean or n exceeds 30, so large arguments
    neither overflow nor lose the leading digits.  The scalar reference for
    the tables' rows, which take the same steps with numpy's exp and log:
    they agree within 1e-13 relative, not bit for bit.
    """
    n = _check_count(n)
    n_p_mean = _check_mean(n_p_mean, "n_p_mean")
    if n_p_mean == 0.0:
        return 1.0 if n == 0 else 0.0
    if n > _RECURRENCE_CUTOFF or n_p_mean > _RECURRENCE_CUTOFF:
        return math.exp(n * math.log(n_p_mean) - n_p_mean - math.lgamma(n + 1))
    p = math.exp(-n_p_mean)
    for k in range(1, n + 1):
        p *= n_p_mean / k
    return p


def mixed_pmf(n: int, params: SourceParams) -> float:
    """Probability of n photons from coherent plus thermal light.

    The n-th term of the recurrence p(n) = x p(n-1) + (1-x) p_poisson(n),
    read from the table :func:`build_pmf` makes to n.  The x == 0 and
    n_p == 0 limits are the pure Poisson and pure thermal laws.
    """
    n = _check_count(n)
    return build_pmf(params, n_max=n).probs[n]


def thermal_tail(threshold_n: int, n_th_mean: float) -> float:
    """Probability that a thermal draw is >= threshold_n: exactly x^N."""
    threshold_n = int(_check_thresholds(threshold_n))
    return SourceParams(0.0, n_th_mean).x ** threshold_n


def mixed_tail(threshold_n: int, params: SourceParams) -> float:
    """Probability that a mixed-light draw is >= threshold_n.

    Uses the threshold identity

        P(n >= N) = P_poisson(n >= N) + sum_{m<N} p_p(m) x^(N-m),

    an exact regrouping of the convolution into positive terms, so small
    tails are not lost to 1 - (almost 1) cancellation.  The Poisson tail is
    one point of :func:`mixed_tail_parts`, the sum the Horner recurrence
    s <- x (s + p_p(m)) over m = 0, 1, ..., N - 1 on the same rows of
    ``_poisson_rows``; their total is capped at 1.
    """
    return _mixed_tail(threshold_n, params.n_p_mean, params.x)


def _mixed_tail(threshold_n: int, n_p: float, x: float) -> float:
    """:func:`mixed_tail` at any thermal ratio x in [0, 1], not only n_th / (n_th + 1)."""
    poisson = float(mixed_tail_parts(threshold_n, n_p, x, slope_parts=False)[0][0])  # refuses a bad N, n_p or x
    s = 0.0
    for block in _poisson_column(n_p, 0, int(threshold_n), int(threshold_n)):
        for p in block:
            s = x * (s + p)
    return min(poisson + s, 1.0)


def mixed_tail_parts(
    threshold_n: ArrayLike, n_p: ArrayLike, x: ArrayLike, *, slope_parts: bool = True
) -> tuple[np.ndarray, ...]:
    """The parts of the threshold identity that the SNR reads, over arrays.

    ``threshold_n`` (integers N >= 1), ``n_p`` (signal means) and ``x``
    (thermal ratios n_th / (n_th + 1)) broadcast together.  Returns
    ``(poisson, scaled, last, head)``, or with ``slope_parts=False`` only
    ``(poisson, scaled)``, with the same bits and two table reads fewer:

        poisson = P_poisson(n >= N),
        scaled  = sum_{m<N} p_p(m) x^(-m),
        last    = p_p(N - 1),
        head    = sum_{m<N-1} p_p(m) x^(-m),            scaled without its last term,

    so that P(n >= N) = poisson + x^N scaled, the threshold identity in
    positive terms.  The tail over the thermal tail x^N is then
    poisson / x^N + scaled (exactly 1 at n_p == 0), and (1/x - 1) scaled
    is its derivative in n_p; ``last`` is the derivative of ``poisson`` in
    n_p, and (1/x - 1) head - last x^(1-N) that of ``scaled``.  ``scaled``
    and ``head`` are meaningless at x == 0 and overflow where x^(1-N) does.

    The terms sit in a table whose columns are the elements of the
    broadcast of ``n_p`` and ``x`` and whose rows are m = 0, 1, ..., max(N):
    p_p(m) from ``_poisson_rows`` and the running mass and scaled sums.  An
    element with threshold N reads rows N - 2 to N of its own column, so
    thresholds on one grid share its terms.  The rows are walked in blocks
    of about max(_TABLE_BLOCK, elements) cells (rows x columns), each
    starting from the last two rows of the one before, so memory stays in
    proportion to the elements: at the traced peak, about 86 B an element
    with the slope parts and about 70 B without, on the (19 x 200) and
    (19 x 2000) sweeps of N = 2..20.  That is mostly the reads (8 B each: five
    with the slope parts, three without), the flat read index (8 B) and a
    table block of about one cell (three planes of 8 B) an element.  The Poisson
    tail sums whichever side of N carries less mass: one minus the below-N
    sum where that is under 0.5, else the upward sum from p_p(N), so a
    small tail keeps its relative precision.  Every sum is sequential and
    adds one term at a time, so an element's bits do not depend on the
    block size or on the other elements of the call: a scalar call gives
    the element's bits.  Every array has the broadcast shape of the three
    inputs, at least 1-D.  A one-point call costs about 53 us at N = 20
    and 31 us at N = 2 (best of 7, 2-core Xeon, numpy 2.4).
    """
    big_n = _check_thresholds(threshold_n)
    n_p = np.asarray(n_p, dtype=float)
    x = np.asarray(x, dtype=float)
    if not (n_p.min(initial=0.0) >= 0.0 and n_p.max(initial=0.0) < math.inf):
        bad = n_p[~((n_p >= 0.0) & (n_p < math.inf))]
        raise ValueError(f"n_p_mean must be finite and >= 0, got {float(bad[0])!r}")
    if not (x.min(initial=0.0) >= 0.0 and x.max(initial=0.0) <= 1.0):
        bad = x[~((x >= 0.0) & (x <= 1.0))]
        raise ValueError(f"thermal ratio x must be in [0, 1], got {float(bad[0])!r}")

    columns = np.broadcast(n_p, x).shape
    shape = np.broadcast(big_n, n_p, x).shape or (1,)
    lam = _spread(n_p, columns)
    x = x.reshape(1) if x.size == 1 else _spread(x, columns)
    width = lam.size
    # element i reads its row N and column c at N (3 width) + c in the
    # table's flat layout of rows of 3 planes of a value per column
    at = (big_n * (3 * width) + np.arange(width).reshape(columns)).reshape(-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # p_p(N), the sums through row N - 1, and p_p(N - 1) and the scaled
        # sum through row N - 2, at these shifts (in planes of width) from p_p(N - 2)
        shifts = (6, 4, 5, 3, 2) if slope_parts else (6, 4, 5)
        first, mass, scaled, *slopes = _table_reads(at, int(big_n.max(initial=1)), lam, x, shifts)
        np.minimum(mass, 1.0, out=mass)
        upper = mass >= 0.5
        poisson = np.subtract(1.0, mass, out=mass)
        if upper.any():
            # the tail walks arrays of its own elements: the full index and first read go
            at, first = at[upper], first[upper]
            lam = lam.take(at % (3 * width))
            start = np.floor_divide(at, 3 * width, out=at).astype(float)
            del at
            poisson[upper] = _upper_poisson_tail(lam, first, start)
    return tuple(a.reshape(shape) for a in (poisson, scaled, *slopes))


def _table_reads(at: np.ndarray, top: int, lam: np.ndarray, x: np.ndarray, shifts: tuple[int, ...]) -> list[np.ndarray]:
    """One read per shift: the table's value at at[i] + shift width, at[i] = N (3 width) + c.

    Rows 2, 3, ... of a table block hold m = start, start + 1, ..., rows 0
    and 1 the two before; a row's three planes are p_p(m) and the mass and
    scaled sums through m, one value a column.  A block has
    max(_TABLE_BLOCK, elements) // width - 2 rows (at least 1), up to the
    top row, so with the two before it holds about as many cells as the call
    has elements.  Each element reads in the block that holds its row N, at
    its index ``at`` less the block's start: a one-block walk takes every
    read straight into its array, a longer one finds a block's elements in
    one pass over ``at``, which the block's cells about match, so the reads
    cost in proportion to the elements and cells over the whole walk.  The
    reads are made after the first block's rows, once their
    temporaries are freed.  The sums are added a row at a time.
    """
    width = lam.size
    rows = max(1, min(top + 1, max(_TABLE_BLOCK, at.size) // width - 2))
    table = np.zeros((rows + 2, 3, width))
    flat = table.reshape(-1)
    reads = []
    for start in range(0, top + 1, rows):
        count = min(rows, top + 1 - start)
        if start:
            table[:2] = table[rows:]
        m = np.arange(start, start + count, dtype=float)[:, None]
        cells = table[2 : 2 + count]
        p = _poisson_rows(cells[:, 0], lam, start, table[1, 0])
        # x^-m from base and exponent arrays of one shape: numpy takes a broadcast
        # exponent -1 as a reciprocal, rounded differently from its power loop.
        cells[:, 1] = p
        np.multiply(p, np.power(np.full((count, x.size), x), np.full((count, x.size), -m)), out=cells[:, 2])
        for row in range(2, 2 + min(count, top - start)):  # no threshold reads row max(N)'s sums
            sums = table[row, 1:]
            np.add(table[row - 1, 1:], sums, out=sums)
        reads = reads or [np.empty(at.size) for _ in shifts]
        if count > top:
            # one block: straight into the reads, without the masked index of
            # a block's elements, which set deep_threshold_scan's traced peak
            # 9% higher (0.577 against 0.531 MB).  Every index is in range;
            # clip spares the copy that raise makes of out.
            for read, shift in zip(reads, shifts):
                flat[shift * width :].take(at, out=read, mode="clip")
        else:
            lo = 3 * width * start
            mine = (at >= lo) & (at < lo + 3 * width * count)
            local = at[mine] - lo
            for read, shift in zip(reads, shifts):
                read[mine] = flat[shift * width :].take(local)
    return reads


def _poisson_rows(p: np.ndarray, lam: np.ndarray, start: int, before: np.ndarray | None = None) -> np.ndarray:
    """Fill p (rows x means) with p_p(m) of the means ``lam`` at m = start, start + 1, ...

    In :func:`poisson_pmf`'s regimes: while m and the mean are at most 30,
    p(m) = p(m - 1) mean / m in order from e^-mean or from ``before`` (row
    start - 1); elsewhere log space, set to 0 below e^-746.  A cell's bits
    depend on its mean and row alone.  Run under np.errstate that ignores
    divide, over and invalid.
    """
    count = len(p)
    m = np.arange(start, start + count, dtype=float)[:, None]
    large = lam > _RECURRENCE_CUTOFF
    recurring = max(0, min(count, _RECURRENCE_CUTOFF + 1 - start))
    if recurring:
        np.divide(lam, m[:recurring], out=p[:recurring])
        p[0] = p[0] * before if start else np.exp(-lam)
        np.multiply.accumulate(p[:recurring], axis=0, out=p[:recurring])
    if count > recurring or large.any():
        # log p(m) = m log(mean) - mean - log(m!) where mean or m exceeds the cutoff
        logged = True if not recurring else large if recurring == count else (m > _RECURRENCE_CUTOFF) | large
        log_p = np.multiply(m, np.log(lam))
        log_p -= lam
        if start + count <= _LOG_FACTORIALS.size:
            log_p -= _LOG_FACTORIALS[start : start + count, None]
        else:
            log_p -= np.fromiter(map(math.lgamma, range(start + 1, start + count + 1)), float, count)[:, None]
        # exp is 0 below -745.14 but slow to underflow there: those cells keep a set 0
        np.copyto(p, 0.0, where=logged)
        np.exp(log_p, out=p, where=(log_p >= -746.0) & logged)
    return p


def _poisson_column(n_p: float, start: int, stop: float, rows: int) -> Iterator[list[float]]:
    """p_p(m) of one mean for m = start .. stop - 1 (stop may be math.inf), in
    blocks of ``rows`` rows and then twice as many each time, up to _TABLE_BLOCK."""
    lam, before = np.array([float(n_p)]), None
    row = 0 if start <= _RECURRENCE_CUTOFF else start  # the recurrence runs from row 0
    rows = min(rows + start - row, _TABLE_BLOCK, stop - row)
    while rows > 0:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            p = _poisson_rows(np.empty((rows, 1)), lam, row, before)
        yield p[max(start - row, 0) :, 0].tolist()
        row, before, rows = row + rows, p[-1], min(2 * rows, _TABLE_BLOCK, stop - row - rows)


def _spread(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``a`` broadcast to ``shape``, as a flat array in C order."""
    if a.shape == shape:
        return a.ravel()
    spread = np.empty(shape, a.dtype)
    spread[...] = a
    return spread.ravel()


# Upward-tail terms per pass.  While more than _TAIL_STEPPED elements are
# live, a pass steps _TAIL_STEPS terms one at a time over them; fewer
# elements take a (elements x terms) block of at most _TAIL_BLOCK entries
# and _TAIL_MAX_STEPS terms.  Longer passes check fewer times which elements
# are done: 16 steps a pass rather than 4 took the (19 x 200) sweep at n_th = 1
# from 590 to 499 us and the (39 x 200) one at n_th = 1000 from 1050 to 910 us
# (best of 7, 2-core Xeon, numpy 2.4), where 8 and 32 were no faster.  Blocks
# take over where one holds at least as many terms as a stepped pass.
_TAIL_STEPS, _TAIL_BLOCK, _TAIL_MAX_STEPS = 16, 4096, 64
_TAIL_STEPPED = _TAIL_BLOCK // _TAIL_STEPS


def _upper_poisson_tail(lam: np.ndarray, first: np.ndarray, start: np.ndarray) -> np.ndarray:
    """sum_{n>=N} p_p(n) from first = p_p(N), N = start (floats), one term at a time.

    The terms follow p(n) = p(n-1) mean / n and are added to the total one
    at a time in order, so an element's bits do not depend on the number of
    terms per pass or on the other elements.  Many live elements step the
    terms with in-place vector operations (count += 1, term *= mean / count,
    total += term); few take a block pass, whose cumprod and cumsum
    accumulate the same products and sums, with more terms per pass the
    fewer the elements.  An element stops after the pass in which a term
    falls below 1e-18 of its total or to zero (a subnormal total makes
    1e-18 of it zero); the later terms of that pass are below half an ulp
    of the total and leave it as it is.  The tail is the smaller side here,
    so the median is below N and the mean (at most median + ln 2) is too:
    terms fall from the first step on, faster than geometrically, so the
    walk needs no step cap.  The walk runs in place on the three arrays
    it is given, which it overwrites.
    """
    total = first.copy()
    live = first.nonzero()[0]  # a zero first term is the whole sum
    if live.size < first.size:
        lam, first, start = lam[live], first[live], start[live]
    term, count, partial = first, start, first.copy()
    while live.size:
        if live.size > _TAIL_STEPPED:
            ratio = np.empty(live.size)
            for _ in range(_TAIL_STEPS):
                count += 1.0
                np.divide(lam, count, out=ratio)
                term *= ratio
                partial += term
        else:
            steps = min(_TAIL_BLOCK // live.size, _TAIL_MAX_STEPS)
            block = count[:, None] + np.arange(1.0, steps + 1)
            np.divide(lam[:, None], block, out=block)
            block[:, 0] *= term
            np.cumprod(block, axis=1, out=block)
            term = block[:, -1].copy()
            block[:, 0] += partial
            np.cumsum(block, axis=1, out=block)
            partial = block[:, -1].copy()
            count += steps
        going = (term > 0.0) & (term >= 1e-18 * partial)
        total[live[~going]] = partial[~going]
        live, lam, term, count, partial = (a[going] for a in (live, lam, term, count, partial))
    return np.minimum(total, 1.0, out=total)


def build_pmf(params: SourceParams, tolerance: float = 1e-12, n_max: int | None = None) -> PhotonPmf:
    """Tabulate the law of ``params`` out to a fixed n_max, or else to the
    smallest n_max whose residual <= tolerance.

    The law runs p(n) = x p(n-1) + (1 - x) p_p(n) in order over blocks of
    rows of ``_poisson_rows`` (thermal light has n_p = 0, Poisson light
    x = 0).  The residual is the law's mass beyond the last row m: where the
    table holds more than half the mass, the sum of :func:`_overflow_weights`,
    x p(m) / (1 - x) + p_p(m+1), p_p(m+2), ..., added one at a time upward;
    elsewhere (a table that ends below the Poisson median, or x rounding to
    1) one minus the table's sum, which is then at least 1/2 and cannot
    cancel, and needs no walk out to a far mean.

    Without a fixed n_max, a bound on the law's tail sizes the table before
    its first row: the Poisson part passes row a with probability at most
    tolerance / 2, by the Chernoff bound in Bernstein's closed form,
    P_poisson(n >= n_p + t) <= exp(-t^2 / (2 (n_p + t/3))), and the
    geometric part passes b rows with probability x^(b+1) <= tolerance / 2,
    so at most the tolerance lies beyond row a + b; a law with one part
    (n_p = 0 or x = 0) gives it the whole tolerance.  The table is made to
    that row, its residual taken there, and rows are dropped from the end
    while the residual plus the dropped cell, the mass beyond the row before,
    stays within the tolerance.  A table past _ROW_BUDGET rows, by the bound
    or by a fixed n_max, raises :class:`PmfTruncationError` before any row
    is made.
    """
    tolerance = float(tolerance)
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance!r}")
    if n_max is not None and (n_max != int(n_max) or n_max < 0):
        raise ValueError(f"n_max must be a nonnegative integer, got {n_max!r}")
    n_p, x = params.n_p_mean, params.x
    if n_max is None:
        # each part leaves e^-log_bound: tolerance / 2 of a law with both parts
        log_bound = -math.log(tolerance / 2.0 if n_p and x else tolerance)
        poisson_rows = n_p + log_bound / 3.0 + math.sqrt(log_bound * (log_bound / 9.0 + 2.0 * n_p)) if n_p else 0.0
        # x^(b+1) <= e^-log_bound from b + 1 >= log_bound / log(1/x)
        thermal_rows = 0.0 if x == 0.0 else math.inf if x == 1.0 else math.ceil(log_bound / -math.log(x)) - 1.0
        top = poisson_rows + thermal_rows  # thermal_rows is a whole number
        name, value = ("n_p", params.n_p_mean) if poisson_rows >= thermal_rows else ("n_th", params.n_th_mean)
        size = f"a table to tolerance {tolerance:.3e} takes {top + 1:.4g} rows by its tail bound,"
    else:
        top, name, value, size = n_max, "n_max", n_max, f"a table of {int(n_max) + 1} rows is"
    if top >= _ROW_BUDGET:
        raise PmfTruncationError(name, value, f"{size} past the budget of {_ROW_BUDGET} rows")
    probs, q, w, top = [], 0.0, params.w, int(top)
    for block in _poisson_column(n_p, 0, top + 1, top + 1):
        probs += [q := x * q + w * p for p in block]  # q runs on from block to block
    head = math.fsum(probs)
    # the running totals of the weights only grow: the last, their max, is the mass beyond the table
    residual = 1.0 - head if head <= 0.5 else max(itertools.accumulate(_overflow_weights(params, probs)))
    # in tolerance mode, the mass beyond row m - 1 is that beyond m plus p(m), all positive terms
    while n_max is None and len(probs) > 1 and residual + probs[-1] <= tolerance:
        residual += probs.pop()
    return PhotonPmf(params, tuple(probs), len(probs) - 1, residual)


def _check_count(n: int) -> int:
    if n != int(n) or n < 0:
        raise ValueError(f"photon number must be a nonnegative integer, got {n!r}")
    return int(n)


def _check_thresholds(threshold_n: ArrayLike) -> np.ndarray:
    values = np.asarray(threshold_n)
    with np.errstate(invalid="ignore"):
        ints = values.astype(np.int64)
    bad = (ints != values) | (ints < 1)
    if bad.any():
        raise ValueError(f"threshold must be a positive integer, got {values[bad].ravel()[0].item()!r}")
    return ints


# --- seeded histogram sampling ---

_SEED_MASK = 2**64 - 1  # the largest Philox key word
# Largest Poisson mean the sampler accepts.  Its overflow weights reach past
# the mean, so their walk grows with it: about 0.1 s at this bound.
_MAX_SAMPLED_POISSON_MEAN = 1e5


def sample_histogram(
    pmf: PhotonPmf, draws: int, seed: int, keys: Iterable[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Photon-count histograms of ``draws`` independent draws from pmf's law, one per key.

    Yields ``(values, counts)`` for each key in order: ``counts[i]`` draws
    equal ``values[i]``, values ascending.  One multinomial places the
    draws in the cells 0..n_max of the table plus an overflow cell that
    holds the law's mass beyond n_max, ``pmf.residual``; each overflow draw
    is then resolved from the weights of :func:`_overflow_weights` and the
    law's geometric part, so values may reach past n_max and no count is
    clamped.  Once per call, when the first histogram is taken, the
    arguments are checked, the cell weights sorted and normalised for the
    multinomial, the table's support 0..n_max built and one generator
    built; a key then costs re-keying that generator (about 1 us) and one
    multinomial, and a key with overflow draws also its draws past n_max
    (the overflow weights are tabulated, sorted and normalised at the
    first).  Keys without overflow draws all yield that one support array,
    read-only.  Each histogram is drawn as it is taken, so a caller that
    folds them in holds one at a time.  Each key's stream is that of
    ``Philox(key=[seed mod 2**64, key])`` from counter 0, the counter-based
    design of Salmon et al. (SC'11), in which distinct keys give independent
    streams: equal arguments give equal histograms.  The seed is any
    integer; keys must be integers in [0, 2**64), one Philox key word each.
    Laws the sampler cannot draw from are refused: x rounding to 1, or a
    Poisson mean above 1e5.
    """
    # numpy.random is not loaded by `import numpy`; importing it here keeps
    # its cost out of the analysis commands.
    from numpy.random import Generator, Philox

    if draws != int(draws) or draws < 0:
        raise ValueError(f"draws must be a nonnegative integer, got {draws!r}")
    if seed != int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    keys = list(keys)
    for key in keys:
        if key != int(key) or not 0 <= key <= _SEED_MASK:
            raise ValueError(f"key must be an integer in [0, 2**64), got {key!r}")
    n_p, x = pmf.params.n_p_mean, pmf.params.x
    if x == 1.0:
        raise ValueError(f"thermal mean {pmf.params.n_th_mean!r} too large to sample: x rounds to 1")
    if n_p > _MAX_SAMPLED_POISSON_MEAN:
        raise ValueError(
            f"signal mean {n_p!r} too large to sample: the sampler takes Poisson means "
            f"up to {_MAX_SAMPLED_POISSON_MEAN:g}"
        )
    draws, seed, m = int(draws), int(seed) & _SEED_MASK, pmf.n_max
    draw_cells, draw_bases = _multinomial(np.append(pmf.probs, pmf.residual)), None
    support = np.arange(m + 1)
    support.flags.writeable = False
    bitgen = Philox(key=seed)  # the key [seed, 0], re-keyed for each key below
    rng = Generator(bitgen)
    for key in keys:
        _rekey(bitgen, (seed, int(key)))
        cells = draw_cells(rng, draws)
        values, counts = support, cells[:-1]
        if cells[-1]:
            # each overflow draw is a base from the weights plus a geometric draw
            k = int(cells[-1])
            draw_bases = draw_bases or _multinomial(np.fromiter(_overflow_weights(pmf.params, pmf.probs), float))
            per_base = draw_bases(rng, k)
            drawn = np.repeat(m + 1 + np.arange(per_base.size), per_base)
            if x > 0.0:
                drawn += rng.geometric(pmf.params.w, size=k) - 1
            beyond, beyond_counts = np.unique(drawn, return_counts=True)
            values, counts = np.append(values, beyond), np.append(counts, beyond_counts)
        yield values, counts


def _rekey(bitgen: np.random.Philox, philox_key: tuple[int, int]) -> None:
    """Set a Philox bit generator to the state a fresh one with this key starts in.

    Counter 0, an empty buffer and no spare uint32 half-word: the draws that
    follow are those of ``Philox(key=philox_key)`` from its start.  The key
    is two words in [0, 2**64), as a tuple (the state setter converts it;
    about 0.7 us a call against 1.3 us from a new uint64 array).
    """
    bitgen.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": philox_key},
                    "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _overflow_weights(params: SourceParams, probs: Sequence[float]) -> Iterator[float]:
    """Weights of the bases m+1, m+2, ... of draws beyond the table ``probs``
    (rows 0..m) of the law of ``params``, whose thermal ratio x is below 1.

    With P the Poisson part, a draw exceeds m with weight pois(P) for
    P > m and pois(P) x^(m+1-P) for P <= m (the geometric part must make up
    the difference); by the threshold identity the latter sum to
    short = x p(m) / (1 - x), from the table's last cell.  Given P, the
    count is max(P, m+1) plus a fresh geometric draw, since geometric draws
    are memoryless.  So the base m+1 has weight short + pois(m+1), and the
    base b > m+1 has pois(b).  The Poisson cells are rows of
    ``_poisson_rows`` from m+1 on, read until a cell past the mean falls
    below 2^-60 of the running total, far below the precision of the
    weights themselves.  That total, the weights added one at a time in
    order, is the mass beyond the table: :func:`build_pmf`'s residual where
    the table holds more than half the mass.
    """
    n_p, x, m = params.n_p_mean, params.x, len(probs) - 1
    # the walk ends about 9 standard deviations past the mean: one block to there
    rows = max(int(n_p + 10.0 * math.sqrt(n_p)) - m, 16)
    terms = itertools.chain.from_iterable(_poisson_column(n_p, m + 1, math.inf, rows))
    total = x * probs[m] / params.w + next(terms)
    yield total
    for base, term in zip(itertools.count(m + 2), terms):
        if base > n_p and term <= total * 2.0**-60:
            return
        yield term
        total += term


def _multinomial(weights: np.ndarray) -> Callable[[Any, int], np.ndarray]:
    """A function of (rng, draws): counts per cell of the draws, with probabilities ``weights / sum``.

    numpy draws the cells in order, each from what remains of the mass, and
    gives the last cell whatever is left.  Cells go in ascending order of
    weight, so the remaining mass never shrinks to the size of its rounding
    and the leftover lands on the largest cell.  The order and the
    normalised weights are computed here, once for all the draws.
    """
    order = np.argsort(weights, kind="stable")
    probs, cells = weights[order] / weights.sum(), np.argsort(order)
    return lambda rng, draws: rng.multinomial(draws, probs)[cells]

