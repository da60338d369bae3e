"""Moment-generating-function and cumulant machinery behind the closed-form
bounds: the two-point MGF estimate, its log form, the linear and quadratic
cumulant envelopes, and a golden-section minimizer used to cross-check every
closed form.

All quantities are functions of the exponential tilting parameter lam >= 0 and
a variance level t >= 0, kept in log space until the caller exponentiates.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

__all__ = [
    "cgf_bound",
    "mgf_bound",
    "cumulant_bound_linear",
    "cgf_quadratic_bound",
    "minimize_tilt",
    "check_tilted_second_moment",
]

#: Golden-section convergence width in lam.
TILT_TOL = 1e-10
#: Maximum geometric bracket expansions before reporting a runaway objective.
MAX_EXPANSIONS = 200


def _check_lambda_t(lam: float, t: float) -> None:
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t}")


def cgf_bound(lam: float, t: float) -> float:
    """log( e^{-lam*t}/(1+t) + t e^{lam}/(1+t) ), the sharp upper bound on the
    cumulant of an increment with xi <= 1, E[xi] <= 0 and E[xi^2] = t.

    The max exponent is factored out before the log, so the value stays finite
    for lam well past 700.
    """
    _check_lambda_t(lam, t)
    if t == 0.0 or lam == 0.0:
        return 0.0
    a, b = -lam * t, lam
    m = max(a, b)
    return m + math.log((math.exp(a - m) + t * math.exp(b - m)) / (1.0 + t))


def mgf_bound(lam: float, sigma2: float) -> float:
    """e^{-lam*sigma2}/(1+sigma2) + sigma2 e^{lam}/(1+sigma2): the two-point MGF
    estimate, attained with equality by the extremal law on {1, -sigma2}."""
    _check_lambda_t(lam, sigma2)
    w = 1.0 / (1.0 + sigma2)
    return w * math.exp(-lam * sigma2) + (1.0 - w) * math.exp(lam)


def cumulant_bound_linear(lam: float, qc: float) -> float:
    """(e^lam - 1 - lam) * qc, the linear-in-variance cumulant bound."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be >= 0, got {lam}")
    if not (math.isfinite(qc) and qc >= 0):
        raise ValueError(f"qc must be >= 0, got {qc}")
    # expm1 keeps the lam^2/2 leading term when lam is tiny
    return (math.expm1(lam) - lam) * qc


def cgf_quadratic_bound(lam: float, b: float) -> float:
    """lam^2 (1+b)^2 / 8, a quadratic upper bound on cgf_bound(lam, b)."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be >= 0, got {lam}")
    if not (math.isfinite(b) and b > 0):
        raise ValueError(f"b must be > 0, got {b}")
    # squared as a product of lam (1+b), not with ** 2: a huge b gives +inf
    # and no OverflowError, and lam = 0 gives 0 at any b
    s = lam * (1.0 + b)
    return s * s / 8.0


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_tilt(
    objective: Callable[[float], float], lambda_hi_seed: float
) -> tuple[float, float]:
    """Minimize a unimodal objective over lam >= 0.

    Brackets the minimum by geometric expansion of the upper end starting from
    lambda_hi_seed, then golden-section searches to an interval width of
    TILT_TOL in lam.  Returns (argmin, min value).

    Raises RuntimeError if the bracket does not close within MAX_EXPANSIONS
    (the objective keeps decreasing, which signals a caller bug) and if the
    result is not below the objective at both bracket ends (the unimodality
    assumption failed).
    """
    if not (math.isfinite(lambda_hi_seed) and lambda_hi_seed > 0):
        raise ValueError(f"lambda_hi_seed must be > 0, got {lambda_hi_seed}")

    lo, f_lo = 0.0, objective(0.0)
    hi, f_hi = lambda_hi_seed, objective(lambda_hi_seed)
    prev, f_prev = lo, f_lo
    for _ in range(MAX_EXPANSIONS):
        if f_hi >= f_prev:
            break  # the objective turned upward: the minimum is inside [lo, hi]
        prev, f_prev = hi, f_hi
        hi *= 2.0
        f_hi = objective(hi)
    else:
        raise RuntimeError(
            f"no bracket after {MAX_EXPANSIONS} expansions (objective still "
            f"decreasing at lam={hi:g}); is the objective bounded below?"
        )

    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    f_c, f_d = objective(c), objective(d)
    while b - a > TILT_TOL:
        if f_c < f_d:
            b, d, f_d = d, c, f_c
            c = b - _INVPHI * (b - a)
            f_c = objective(c)
        else:
            a, c, f_c = c, d, f_d
            d = a + _INVPHI * (b - a)
            f_d = objective(d)
    lam = 0.5 * (a + b)
    val = objective(lam)

    # Unimodality is asserted, not assumed: the result must not sit above
    # either bracket end (allowing round-off slack).
    if val > f_lo + 1e-12 or val > f_hi + 1e-12:
        raise RuntimeError(
            f"golden-section result {val:g} at lam={lam:g} exceeds a bracket "
            f"end value (ends {f_lo:g}, {f_hi:g}); objective is not unimodal"
        )
    return lam, val


def check_tilted_second_moment(law, lambdas: Sequence[float]) -> bool:
    """True iff E[xi^2 e^{lam*xi}] <= e^{lam} E[xi^2] (with 1e-12 relative
    slack) for every lam in the grid.

    Both moments come from the law: exact from the atoms of a two-point law,
    and from the closed form for the centered exponential.  The inequality is
    decided in log space, so no lam overflows.
    """
    lams = list(lambdas)
    if not lams:
        raise ValueError("lambda grid must be non-empty")
    m2 = law.second_moment()
    log_rhs = (math.log(m2) if m2 > 0 else -math.inf) + math.log1p(1e-12)
    for lam in lams:
        if not (math.isfinite(lam) and lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {lam}")
        if law.log_tilted_second_moment(lam) > lam + log_rhs:
            return False
    return True
