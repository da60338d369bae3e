"""Binomial probabilities in log space, accurate far into the tails; a
module internal to the package, with no `__all__`.

The pmf follows C. Loader, "Fast and accurate computation of binomial
probabilities" (2000):

    log b(k; n, p) = stirlerr(n) - stirlerr(k) - stirlerr(n - k)
                     - bd0(k, n p) - bd0(n - k, n q) - log(2 pi k (n - k) / n) / 2,

with stirlerr(m) = log m! - log(sqrt(2 pi m) (m/e)^m) from a table for
m <= 15 and its Stirling series above, and the deviance bd0(x, M) =
x log(x/M) + M - x, which is Bennett's rate `bounds._rate(x - M, M)` with its
error bound.  No term cancels, so the error is a few units in the last place
of each term however far k is from the mode.  Each value comes with a bound
on its rounding error.

The upper tail P(X >= k) = b(k) S is its first term times the ratio series
S = sum_j prod_{i<j} (n - k - i)/(k + 1 + i) e^theta, theta = log(p/q).  Below
the mode, p <= k/n, the ratios fall with j and the terms lie under a Gaussian
of width sigma = sqrt(k (n - k) / n) in j, so a window of about 9 sigma terms
holds all but 2^-60 of S and a geometric series bounds the rest.  The
coefficients do not depend on p, so `upper_tail_log_odds` builds them once
and finds its root by Newton's method in theta, on which log P(X >= k) is
increasing and concave.

Imports `math` and `bounds` at the top; numpy is imported by the one
function that sums a window, so a module on the pure-math path can use the
pmf.
"""

from __future__ import annotations

import math

from .bounds import _rate, _rate_error

#: Unit roundoff of a double.
EPS = 2.0**-53

_LN_2PI = 1.8378770664093456

#: stirlerr(m) for m = 0..15 (the 0 entry is unused), from 40-digit log-gamma.
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)

#: Newton steps after which `upper_tail_log_odds` gives up; from the Wilson
#: start it takes about four.
_MAX_STEPS = 60


def stirlerr(m: int) -> float:
    """log m! - log(sqrt(2 pi m) (m/e)^m): the table for m <= 15, else the
    Stirling series 1/(12m) - 1/(360m^3) + ..., cut where the next term is
    below about 1e-16."""
    if m <= 15:
        return _STIRLERR[m]
    mm = float(m) * m
    if m > 500:
        return (1 / 12 - 1 / 360 / mm) / m
    if m > 80:
        return (1 / 12 - (1 / 360 - 1 / 1260 / mm) / mm) / m
    if m > 35:
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / 1680 / mm) / mm) / mm) / m
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / mm) / mm) / mm) / mm) / m


def _log_pmf(k: int, n: int, p: float, q: float) -> tuple[float, float]:
    """`log_pmf` and a bound on its error for 0 < k < n < 2^53.  Each bd0
    errs by `_rate_error`, and by a unit of bd0 + |x| more from the rounding
    of its difference x (k - n p or n - k - n q), which is exact wherever
    |x| <= n p (or n q).  Besides the rounding of each term and the
    truncation of the Stirling series, n p and n q carry a relative error of
    a few units (and p + q may differ from 1 by as much); Loader's form turns
    that into an error of a few units of |k - n p| + |n - k - n q|, since the
    derivative of bd0(x, m) in m is 1 - x/m."""
    mp, mq = n * p, n * q
    x1, x2 = k - mp, n - k - mq
    d1, d2 = _rate(x1, mp), _rate(x2, mq)
    lc = stirlerr(n) - stirlerr(k) - stirlerr(n - k) - d1 - d2
    lk, lr = math.log(k), math.log((n - k) / n)  # not log1p(-k/n): k/n rounds near 1
    value = lc - 0.5 * (_LN_2PI + lk + lr)
    err = _rate_error(d1, x1) + _rate_error(d2, x2) + EPS * (
        5 * (d1 + d2 + abs(x1) + abs(x2)) + 4 * (_LN_2PI + lk + abs(lr)) + 2 * abs(value) + 8)
    return value, err


def log_pmf(k: int, n: int, p: float, q: float) -> float:
    """log P(X = k) for X ~ Binomial(n, p), given p and q = 1 - p each to
    full relative precision (so either may be tiny)."""
    if not 0 <= k <= n:
        return -math.inf
    if k == 0:
        return n * math.log(q)
    if k == n:
        return n * math.log(p)
    return _log_pmf(k, n, p, q)[0]


def _wilson_log_odds(k: int, n: int, log_level: float) -> float:
    """The log-odds of the Wilson score lower bound of k successes in n at
    level exp(log_level) per side, written k^2 / (n (k + z^2/2 + z r)), which
    does not cancel; z is Abramowitz & Stegun's 26.2.23 normal quantile
    (error below 4.5e-4), enough for a start."""
    t = math.sqrt(-2.0 * log_level)
    z = t - ((2.515517 + 0.802853 * t + 0.010328 * t * t)
             / (1.0 + t * (1.432788 + t * (0.189269 + 0.001308 * t))))
    r = math.sqrt(k * (n - k) / n + z * z / 4.0)
    w = k * k / (n * (k + z * z / 2.0 + z * r))
    return math.log(w) - math.log1p(-w)


def upper_tail_log_odds(k: int, n: int, log_level: float) -> tuple[float, float]:
    """(theta, radius): the log-odds theta* = log(p/q) at which
    log P(X >= k) = log_level for X ~ Binomial(n, p) lies within radius of
    theta.  Needs 0 < k < n and log_level < log(1/2), so that theta* is below
    the mode's log(k / (n - k)).

    Newton's method on f(theta) = log P(X >= k) - log_level, whose slope is
    k q / S, starts from the Wilson bound.  f is concave, so after the first
    step the iterates rise to theta* from below.  It stops once |f| is within
    the bound on the error of its evaluation, or the step is below the
    spacing of the doubles at theta; the radius is twice the sum of that
    error and |f|, over the slope."""
    import numpy as np

    top = math.log(k / (n - k))
    sigma = math.sqrt(k * (n - k) / n)
    size = min(n - k + 1, math.ceil(9.2 * sigma) + 16)
    j = np.arange(size, dtype=np.float64)
    # c_j = prod_{i<j} ratio_i at theta = top: at most 1, falling, 4 roundings each
    ratio = (n - k - j[:-1]) * k / ((k + 1 + j[:-1]) * (n - k))
    coef = np.empty(size)
    coef[0] = 1.0
    np.cumprod(ratio, out=coef[1:])
    # the ratio of the first term left out to the last one kept; 0: none left out
    last = (n - k - size + 1) * k / ((k + size) * (n - k)) if size <= n - k else 0.0

    theta = min(_wilson_log_odds(k, n, log_level), top)
    for _ in range(_MAX_STEPS):
        p, q = 1.0 / (1.0 + math.exp(-theta)), 1.0 / (1.0 + math.exp(theta))
        log_b, err = _log_pmf(k, n, p, q)
        delta = theta - top  # <= 0: every term ratio is below 1
        terms = coef * np.exp(j * delta)
        s = float(terms.sum())
        rho = last * math.exp(delta)
        rest = float(terms[-1]) * rho / (1.0 - rho)  # the geometric bound on the terms left out
        log_s = math.log(s)
        log_tail = log_b + log_s
        slope = k * q / s
        # term j errs by (4 + |theta| + |top| + |delta|) j + 10 units, and the sum adds
        # size more; sum_j j t_j / S = slope - (k - n p), the part of the slope from S
        first = abs(slope - (k - n * p))
        err += EPS * ((abs(theta) + abs(top) + abs(delta) + 4) * first + size + 10
                      + 2 * (abs(log_s) + abs(log_tail))) + rest / s
        f = log_tail - log_level
        step = f / slope
        if abs(f) <= err or abs(step) <= 4 * EPS * abs(theta):
            return theta, 2.0 * (abs(f) + err) / slope
        theta = min(theta - step, top)
    raise ArithmeticError(f"no root of the binomial tail for k={k}, n={n}")
