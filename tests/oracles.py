"""The tests' mpmath references, each written once.

Every reference rests on one Poisson term, p_p(m) = e^-n_p n_p^m / m!, takes
the thermal ratio x = n_th / (n_th + 1) exact where it takes n_th, and works
at the digits it is given.  None imports pnrlidar: an oracle that read the
code under test would check nothing.  The test modules and
tests/data/record.py import them from here.
"""

import mpmath


def poisson_term(m, mean):
    """p_p(m) = e^-mean mean^m / m! at mpmath's working precision, mean an mpf."""
    return mpmath.exp(-mean) * mean**m / mpmath.factorial(m)


def poisson_mp(n, n_p, digits=40):
    """p_p(n) in mpmath, as a float (oracle)."""
    with mpmath.workdps(digits):
        return float(poisson_term(n, mpmath.mpf(n_p)))


def cell_mp(n, n_p, n_th, digits=40):
    """p(n) of the law as the convolution sum in mpmath, with the exact thermal ratio (oracle)."""
    with mpmath.workdps(digits):
        n_p, n_th = mpmath.mpf(n_p), mpmath.mpf(n_th)
        x = n_th / (n_th + 1)
        return mpmath.fsum(poisson_term(m, n_p) * x ** (n - m) / (n_th + 1) for m in range(n + 1))


def tail_parts_mp(big_n, n_p, x, digits=40):
    """The outputs of mixed_tail_parts and the tail P(n >= N) at one element,
    from their defining sums over p_p(m) and the regularized incomplete gamma
    function in mpmath; scaled and head are infinite at x == 0 (oracle)."""
    with mpmath.workdps(digits):
        lam, x = mpmath.mpf(n_p), mpmath.mpf(x)
        p = [poisson_term(m, lam) for m in range(big_n)]
        scaled = [p_m / x**m for m, p_m in enumerate(p)] if x else [mpmath.inf] * big_n
        poisson = mpmath.gammainc(big_n, 0, lam, regularized=True) if lam else mpmath.mpf(0)
        return {"tail": poisson + mpmath.fsum(p_m * x ** (big_n - m) for m, p_m in enumerate(p)),
                "poisson": poisson, "scaled": mpmath.fsum(scaled), "last": p[-1], "head": mpmath.fsum(scaled[:-1])}


def tail_beyond_mp(n_p, n_th, n_max, digits=40):
    """The law's mass beyond row n_max in mpmath: the tail at N = n_max + 1,
    with the exact thermal ratio (oracle)."""
    with mpmath.workdps(digits):
        return tail_parts_mp(n_max + 1, n_p, mpmath.mpf(n_th) / (mpmath.mpf(n_th) + 1), digits)["tail"]


def weight_mp(i, n_p, n_th, m, digits=40):
    """Overflow weight i of a table to row m in mpmath: x p(m) / (1 - x) + p_p(m + 1)
    at i = 0, then p_p(m + 1 + i) (oracle)."""
    with mpmath.workdps(digits):
        pois = poisson_term(m + 1 + i, mpmath.mpf(n_p))
        return pois + (mpmath.mpf(n_th) * cell_mp(m, n_p, n_th, digits) if i == 0 else 0)


def relative_error(value, exact):
    """|value - exact| / |exact|, and |value| where exact is 0."""
    return float(abs(value - exact) / abs(exact)) if exact else abs(value)


def rise_terms_mp(n_p, n_th, big_n, digits=40):
    """The two positive terms of rise, n_p u S and T / x^N, in mpmath (oracle):
    S is the tail parts' scaled sum at the exact x, and T = P_poisson(n >= N)
    their regularized incomplete gamma function, so it keeps its digits where
    T is tiny."""
    with mpmath.workdps(digits):
        n_p, n_th = mpmath.mpf(n_p), mpmath.mpf(n_th)
        x = n_th / (n_th + 1)
        parts = tail_parts_mp(big_n, n_p, x, digits)
        return n_p * parts["scaled"] / n_th, parts["poisson"] / x**big_n


def ratio_mp(n_p, n_th, big_n, digits=40):
    """snr_ratio at n_p > 0 in mpmath, (T / x^N + S) / (1 + n_p / n_th), from rise's terms (oracle)."""
    with mpmath.workdps(digits):
        gain, loss = rise_terms_mp(n_p, n_th, big_n, digits)
        return (loss + gain * n_th / n_p) / (1 + mpmath.mpf(n_p) / n_th)


def excess_mp(n_p, n_th, big_n, digits=40):
    """The excess q - c = T / x^N + S - 1 - n_p / n_th of the quantum SNR over
    the classical one at n_p > 0, from rise's terms (oracle).  Where it is near
    0 its terms are near c and cancel, so they are worked at twice the digits:
    that keeps ``digits`` of it wherever |q - c| > 10^-digits c, which it checks."""
    with mpmath.workdps(2 * digits):
        gain, loss = rise_terms_mp(n_p, n_th, big_n, 2 * digits)
        classical = 1 + mpmath.mpf(n_p) / n_th
        excess = loss + gain * n_th / n_p - classical
        assert abs(excess) > classical * mpmath.mpf(10) ** -digits, (n_p, n_th, big_n)
        return excess


def optimum_mp(n_th, big_n, lo, hi, digits=50):
    """mpmath's root of rise in [lo, hi], a bracket it checks (oracle)."""
    def relative_rise(n_p):
        gain, loss = rise_terms_mp(n_p, n_th, big_n, digits)
        return (gain - loss) / (gain + loss)

    with mpmath.workdps(digits):
        assert relative_rise(lo) > 0 > relative_rise(hi)
        return mpmath.findroot(relative_rise, (mpmath.mpf(lo), mpmath.mpf(hi)), solver="anderson")


def log_bisect_mp(f, lo, hi, steps=100, digits=60):
    """The root of f in [lo, hi], a bracket with f(lo) > 0 > f(hi) that it
    checks, by bisection in log scale: 100 steps from a factor of 16 leave
    it within 3e-30 relative (oracle)."""
    with mpmath.workdps(digits):
        assert f(lo) > 0 > f(hi)
        for _ in range(steps):
            mid = mpmath.sqrt(lo * hi)
            lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
        return lo


def same_mode_pmf_mp(n, n_p, n_th, digits=40):
    """p(n) of signal and background in one mode, a displaced thermal state, in
    mpmath: the Glauber-Lachs law n_th^n / (n_th + 1)^(n+1) e^(-n_p / (n_th + 1))
    L_n(-n_p / (n_th (n_th + 1))), L_n the Laguerre polynomial (oracle of the
    model the package does not take)."""
    with mpmath.workdps(digits):
        n_p, n_th = mpmath.mpf(n_p), mpmath.mpf(n_th)
        return (n_th**n / (n_th + 1) ** (n + 1) * mpmath.exp(-n_p / (n_th + 1))
                * mpmath.laguerre(n, 0, -n_p / (n_th * (n_th + 1))))
