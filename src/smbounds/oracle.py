"""Exact event probabilities for IID two-point increments.

Since the increments are IID, the quadratic characteristic is the
deterministic ramp k * m2, so the stopped event reduces to first passage of
the partial sums above x within k_max = min(n, floor(v^2/m2 + 1e-9)) steps,
the rule of `processes.budget_steps`.  One DP pass propagates the exact
distribution of the partial sum for those k_max steps, absorbing mass at
first passage: no later step can decide the stopped event, and a budget of
0 steps makes no pass at all.  When the budget covers the horizon the pass
runs all n steps, and the final tail, which needs no absorption, is the
closed-form tail of the Binomial(n, p_a) count of upper steps.  A
brute-force path enumeration is kept as an independent route.

Every passage decision is exact in integers.  A law on two atoms a > b is
tracked by the count j of a-steps: a mass vector over j takes one
`np.correlate` call per step, absorption truncates it, and the sum reaches x
exactly when j >= j*_k of `processes.count_thresholds`, the test Monte Carlo
applies to its sampled paths.  Before the first step k0 at which some count
can reach x nothing is absorbed, so the pass starts at k0 from the
Binomial(k0 - 1, p_a) pmf, the closed form of those steps.  It rounds
differently from stepping, and the tests hold the absorbed probabilities
within 1e-13 relative of a pass stepped from count 0.  The comparison with
the bounds is `suites.exact_vs_bound`, which checks their hypotheses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .processes import IncrementLaw, TwoPoint, _threshold_line, budget_steps, count_thresholds

__all__ = [
    "StateSpaceError",
    "LatticeLaw",
    "ExactResult",
    "first_passage_dp",
    "exact_event_probability",
]

#: Refuse (rather than extrapolate) beyond this many simultaneous DP states.
STATE_CAP = 10**6
#: Enumeration walks 2^n paths; refuse beyond this horizon.
ENUM_MAX_N = 25


class StateSpaceError(RuntimeError):
    """The DP state space exceeded the cap; the result would not be exact."""


@dataclass(frozen=True)
class LatticeLaw:
    """Two-point law given by its two (value, probability) atoms, in any
    order; the atoms must make a valid `TwoPoint`."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.atoms) != 2:
            raise ValueError(f"a law needs exactly two atoms, got {len(self.atoms)}")
        (a, pa), (b, pb) = sorted(self.atoms, reverse=True)
        TwoPoint(a, b, pa, pb, "lattice")  # refuses bad atoms with a ValueError

    @classmethod
    def from_increment_law(cls, law: IncrementLaw) -> "LatticeLaw":
        atoms = law.atoms()
        if atoms is None:
            raise ValueError(f"{law!r} has continuous support; no exact oracle")
        return cls(tuple(atoms))

    @property
    def m2(self) -> float:
        return math.fsum(v * v * p for v, p in self.atoms)


@dataclass(frozen=True)
class ExactResult:
    """Exact probabilities of the three nested deviation events, and the mass
    defect of the pass that produced them."""

    p_stopped: float
    p_max: float
    p_final: float
    n: int
    x: float
    v: float
    defect: float


def _clamp01(p: float) -> float:
    return min(1.0, max(0.0, p))


def first_passage_dp(
    law: LatticeLaw, n: int, x: float
) -> tuple[list[float], list[float], float]:
    """Propagate the exact distribution of the partial sums for n steps,
    absorbing mass at the first k where X_k >= x.

    For atoms a > b the state after k steps is the count j of a-steps, held as
    a mass vector over the counts j < live not yet absorbed.  A step is one C
    call, `np.correlate(m, [p_a, p_b], "full")`, which makes each
    m'[j] = m[j-1] p_a + m[j] p_b of two rounded products and one rounded add.
    The sum reaches x exactly when j >= j*_k (`count_thresholds`), so the
    surviving states are always a prefix and absorption truncates the vector
    to j < j*_k; once it is empty no later step moves any mass.

    Nothing is absorbed before the first step k0 with j*_k0 <= k0 (n + 1 if
    there is none), so the pass starts there from the Binomial(k0 - 1, p_a)
    pmf of `_binomial_pmf` rather than running k0 - 1 steps from count 0.
    From k0 on each state is the stepping arithmetic above, bit for bit; the
    start rounds differently, and over the laws and horizons the tests cover
    (n <= 2000) the result stays within 1e-13 relative of a pass stepped from
    count 0 in the absorbed probabilities and within 5e-13 in the normal
    surviving masses.

    Returns (cumulative absorbed probability by step k for k = 0..n, the
    surviving masses over the counts j < live after step n, whose sums are
    j*a + (n - j)*b, and the mass defect |1 - absorbed - surviving|).  The
    defect takes the surviving mass from numpy's pairwise sum, whose error
    (about 1e-15) is far below the 1e-12 that every use of the defect allows;
    `math.fsum` over masses spanning some 300 decades costs as much as a
    tenth of the pass.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    (a, pa), (b, pb) = sorted(law.atoms, reverse=True)
    if n + 1 > STATE_CAP:
        raise StateSpaceError(f"{n + 1} count states exceed the cap {STATE_CAP}")
    thresholds = count_thresholds(a, b, x, n).tolist()
    # before the first step k0 that absorbs, the counts are Binomial(k, p_a)
    k0 = next((k for k in range(1, n + 1) if thresholds[k] <= k), n + 1)
    kernel = np.array([pa, pb])
    mass = _binomial_pmf(k0 - 1, pa, pb)
    absorbed = 0.0
    absorbed_cum = [0.0] * k0
    live = k0  # len(mass)
    for k in range(k0, n + 1):
        mass = np.correlate(mass, kernel, "full")  # m[j-1] p_a + m[j] p_b
        live += 1
        cut = thresholds[k]
        if cut < live:
            # one absorbed state is read as a scalar; its sum is itself
            absorbed += float(mass[cut]) if cut == live - 1 else float(mass[cut:].sum())
            mass = mass[:cut]
            live = cut
            if not live:
                absorbed_cum += [absorbed] * (n - k + 1)
                break
        absorbed_cum.append(absorbed)
    return absorbed_cum, mass.tolist(), abs(1.0 - absorbed_cum[-1] - float(mass.sum()))


def _final_tail(law: LatticeLaw, n: int, x: float) -> float:
    """P(X_n >= x) = P(J >= j*_n) for the count J ~ Binomial(n, p_a) of
    a-steps, with no absorption; j*_n is the last of `count_thresholds`,
    computed alone on the same integer line, summed over `_binomial_pmf`."""
    (a, pa), (b, pb) = sorted(law.atoms, reverse=True)
    nu, nw, q = _threshold_line(a, b, x)
    j_star = (nu + q - 1 - n * nw) // q
    return float(_binomial_pmf(n, pa, pb)[max(j_star, 0):].sum())


def _binomial_pmf(m: int, pa: float, pb: float) -> np.ndarray:
    """The Binomial(m, pa) pmf over the counts 0..m, for pa + pb = 1.  The
    terms are built from their ratios outward from the mode, where the
    unnormalised pmf is 1, so none overflows (the far ones may underflow to
    0), and then divided by their sum."""
    j = np.arange(m)
    ratio = (m - j) / (j + 1) * (pa / pb)  # pmf[j + 1] / pmf[j]
    mode = min(m, math.floor((m + 1) * pa))
    pmf = np.ones(m + 1)
    pmf[mode + 1:] = np.cumprod(ratio[mode:])
    pmf[:mode] = np.cumprod(1.0 / ratio[:mode][::-1])[::-1]
    return pmf / pmf.sum()


def _enumerate(law: LatticeLaw, n: int, x: float, v: float) -> ExactResult:
    """Brute force over |atoms|^n paths; the independent route for the DP."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > ENUM_MAX_N:
        raise ValueError(f"enumeration is capped at n <= {ENUM_MAX_N}, got {n}")
    k_max = budget_steps(law.m2, n, v)
    qc_ok_final = k_max >= n
    # exact integer sums: the values and x times their common denominator
    values = [x] + [val for val, _ in law.atoms]
    scale = math.lcm(*(Fraction(val).denominator for val in values))
    target = int(Fraction(x) * scale)
    atoms = [(int(Fraction(val) * scale), p) for val, p in law.atoms]
    p_stopped = p_max = p_final = total = 0.0
    for path in itertools.product(atoms, repeat=n):
        prob = 1.0
        s = 0
        passage = None
        for k, (step, p) in enumerate(path, start=1):
            prob *= p
            s += step
            if passage is None and s >= target:
                passage = k
        if passage is not None and passage <= k_max:
            p_stopped += prob
        if qc_ok_final and passage is not None:
            p_max += prob
        if qc_ok_final and s >= target:
            p_final += prob
        total += prob
    return ExactResult(*map(_clamp01, (p_stopped, p_max, p_final)), n, x, v, abs(1.0 - total))


def exact_event_probability(
    law: LatticeLaw, n: int, x: float, v: float, method: str = "dp"
) -> ExactResult:
    """Exact probabilities of the stopped, running-max, and final-time events
    at threshold x with variance budget v^2.

    method "dp" (the default) makes one absorbing `first_passage_dp` pass over
    the k_max = `budget_steps` steps the budget covers, and none when k_max is
    0; when the budget never binds (k_max = n) it takes the final tail in
    closed form from the Binomial(n, p_a) count of a-steps.  The STATE_CAP
    refusal therefore counts k_max + 1 states.  "enumerate" walks every path
    (n <= ENUM_MAX_N).
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"v must be finite and > 0, got {v}")
    if law.m2 <= 0:
        raise ValueError("law has zero second moment; every budget is trivial")
    if method == "enumerate":
        return _enumerate(law, n, x, v)
    if method != "dp":
        raise ValueError(f"unknown method {method!r}")

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k_max = budget_steps(law.m2, n, v)
    if k_max == 0:
        return ExactResult(0.0, 0.0, 0.0, n, x, v, 0.0)
    # no step past k_max decides the stopped event, and the other two events
    # need the budget to cover the horizon
    absorbed_cum, _, defect = first_passage_dp(law, k_max, x)
    p_stopped = _clamp01(absorbed_cum[k_max])
    if k_max < n:
        return ExactResult(p_stopped, 0.0, 0.0, n, x, v, defect)
    return ExactResult(p_stopped, p_stopped, _clamp01(_final_tail(law, n, x)), n, x, v, defect)


#: Absolute slack when comparing an exact probability against a bound; covers
#: the DP accumulation round-off (<= n * |atoms| * 1e-15).
COMPARISON_SLACK = 1e-12

