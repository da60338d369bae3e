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
tracked by the count j of a-steps, and the sum reaches x exactly when
j >= j*_k of `processes.count_thresholds`, the test Monte Carlo applies to
its sampled paths.  Before the first step k0 at which some count can reach x
nothing is absorbed, so the pass starts at k0 from the Binomial(k0 - 1, p_a)
pmf, the closed form of those steps.  From there it advances a block of
BLOCK_STEPS steps at a time: the counts that cannot reach x within the block
in one convolution with the Binomial(BLOCK_STEPS, p_a) weights, the band
below the threshold in one product per chunk with a transfer matrix.  One
step builds both, two rounded products and one rounded add, applied to the
band's identity for a transfer and to one count for the weights, and one
cache holds both.  The absorbed probability by step k is the same bits for
every horizon n >= k.  The blocks round differently from stepping one step
at a time, and the tests hold the absorbed probabilities within 1e-13
relative of a pass stepped from count 0 and within 2e-14 of an exact
integer pass.  The comparison with the bounds is `suites.exact_vs_bound`,
which checks their hypotheses.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .processes import (EventSpec, EventVariant, IncrementLaw, TwoPoint, _threshold_line,
                         budget_steps, count_thresholds)

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
#: Steps that `first_passage_dp` advances per block.
BLOCK_STEPS = 48
#: Entries of the one cache of `first_passage_dp`, the transfers, each at
#: most 3 * BLOCK_STEPS^2 doubles (55 KB); the block weights are columns of
#: its one-count transfers.  7.1 MB at most, whatever n.
TRANSFER_CACHE = 128
_STEPS = np.arange(1, BLOCK_STEPS + 1)


class StateSpaceError(RuntimeError):
    """The DP state space exceeded the cap; the result would not be exact."""


@dataclass(frozen=True)
class LatticeLaw:
    """Two-point law given by its two (value, probability) atoms in any
    order, which must make a valid `TwoPoint`; it keeps them upper atom
    first, as `TwoPoint.atoms` returns them."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.atoms) != 2:
            raise ValueError(f"a law needs exactly two atoms, got {len(self.atoms)}")
        (a, pa), (b, pb) = sorted(self.atoms, reverse=True)  # TwoPoint refuses bad atoms
        object.__setattr__(self, "atoms", TwoPoint(a, b, pa, pb, "lattice").atoms())

    @classmethod
    def from_increment_law(cls, law: IncrementLaw) -> "LatticeLaw":
        atoms = law.atoms()
        if atoms is None:
            raise ValueError(f"{law!r} has continuous support; no exact oracle")
        return cls(atoms)

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
    a mass vector over the counts j < live not yet absorbed.  The sum reaches
    x exactly when j >= j*_k (`count_thresholds`), so the surviving states
    are always a prefix of the vector, and once it is empty no later step
    moves any mass.  Nothing is absorbed before the first step k0 with
    j*_k0 <= k0 (n + 1 if there is none), so the pass starts there from the
    Binomial(k0 - 1, p_a) pmf of `_binomial_pmf`.

    From k0 on the pass advances B = BLOCK_STEPS steps per block, the last
    block cut short at n.  In the block after step s no count below
    lo = max(0, min(live, min_i (j*_(s+i) - i))), i = 1..B, can reach x, so
    that interior advances in one `np.correlate` with the Binomial(B, p_a)
    weights for j = B down to 0, the reversed surviving column of a
    one-count transfer through a block that absorbs nothing.  The band of
    counts [lo, live) advances through `_band_transfer`: one matrix product
    per chunk of B counts gives the mass it loses at each step and its
    surviving masses.  A transfer depends only on p_a, p_b, the band width
    and the thresholds relative to lo, whose windows repeat from block to
    block and pass to pass, so the transfers, the weights' among them, sit
    in one cache bounded whatever n (TRANSFER_CACHE).

    What is bit-exact: every block reads a full window of thresholds (up to
    n + B), so lo and the band do not depend on n; a block cut short at n
    takes the first rows of the same products; and the absorbed masses are
    summed once, in step order.  So the absorbed probability by step k is the
    same bits for every horizon n >= k, and a pass cut at the budget k_max
    gives the entry k_max of any longer pass.  What is within tolerance: the
    blocks round differently from stepping one step at a time.  The tests
    hold the absorbed probabilities within 1e-13 relative of a pass stepped
    from count 0 (n <= 2000), the normal surviving masses within 5e-13 and
    the defect below 1e-12, and the absorbed probabilities within 2e-14 of an
    exact integer pass (n <= 300).

    Returns (cumulative absorbed probability by step k for k = 0..n, the
    surviving masses over the counts j < live after step n, whose sums are
    j*a + (n - j)*b, and the mass defect |1 - absorbed - surviving|).  The
    defect takes the surviving mass from numpy's pairwise sum, whose error
    (about 1e-15) is far below the 1e-12 that every use of the defect allows.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    (a, pa), (b, pb) = law.atoms
    if n + 1 > STATE_CAP:
        raise StateSpaceError(f"{n + 1} count states exceed the cap {STATE_CAP}")
    thresholds = count_thresholds(a, b, x, n + BLOCK_STEPS)
    # before the first step k0 that absorbs, the counts are Binomial(k, p_a)
    first = np.flatnonzero(thresholds[1:n + 1] <= np.arange(1, n + 1))
    k0 = int(first[0]) + 1 if first.size else n + 1
    mass = _binomial_pmf(k0 - 1, pa, pb)
    live = k0  # len(mass)
    starts = range(k0 - 1, n, BLOCK_STEPS)
    windows = thresholds[k0:k0 + len(starts) * BLOCK_STEPS].reshape(-1, BLOCK_STEPS)
    # min over the block's steps i of j*_(s+i) - i: the lowest count that can
    # be absorbed within the block that starts after step s
    reach = (windows - _STEPS).min(axis=1).tolist()
    gains = np.zeros(windows.shape)  # the mass absorbed at each step from k0 on
    weights = np.zeros(0)
    for s, window, low, gained in zip(starts, windows, reach, gains):
        steps = min(BLOCK_STEPS, n - s)
        lo = max(0, min(live, low))
        if lo and len(weights) != steps + 1:  # the first block with lo > 0, or one cut short
            never = np.full(steps, steps + 1, np.int64).tobytes()  # cuts that absorb nothing
            weights = _band_transfer(pa, pb, 1, never)[BLOCK_STEPS:, 0][::-1]
        new = np.correlate(mass[:lo], weights, "full") if lo else np.zeros(0)
        # one chunk unless b > 0, where the band can be wider than a block
        for c0 in range(lo, live, BLOCK_STEPS):
            band = mass[c0:c0 + BLOCK_STEPS]
            out = _band_transfer(pa, pb, len(band), (window[:steps] - c0).tobytes()) @ band
            gained += out[:BLOCK_STEPS]
            part = out[BLOCK_STEPS:]
            end = c0 + len(part)
            if end > len(new):
                new = np.concatenate((new, np.zeros(end - len(new))))
            new[c0:end] += part
        mass, live = new, len(new)
        if not live:
            break
    absorbed_cum = [0.0] * k0 + np.cumsum(gains.ravel()[:n + 1 - k0]).tolist()
    return absorbed_cum, mass.tolist(), abs(1.0 - absorbed_cum[-1] - float(mass.sum()))


@functools.lru_cache(maxsize=TRANSFER_CACHE)
def _band_transfer(pa: float, pb: float, width: int, cuts: bytes) -> np.ndarray:
    """The transfer of a band of `width` counts through len(cuts) <=
    BLOCK_STEPS steps, where step i absorbs the counts r >= cuts[i] counted
    from the band's bottom (`cuts` holds int64 bytes, the cache key).

    Returns one read-only matrix whose column c holds, for unit mass started
    at count c, the mass absorbed at each step in its first BLOCK_STEPS rows
    (zero past the last step) stacked over the surviving masses after the
    last step, so one product with the band gives both.  There are
    BLOCK_STEPS absorbed rows whatever len(cuts), so they have one shape,
    and one arithmetic per row, for a window cut short as for the whole one:
    stepping is causal, so a prefix of `cuts` gives the same first rows, bit
    for bit.  The band's identity is stepped as one flat vector, each column
    in a slot long enough that no mass reaches the next, with one
    `np.correlate` a step: two rounded products and one rounded add."""
    cuts = np.frombuffer(cuts, dtype=np.int64).tolist()
    stride = width + len(cuts) + 1
    flat = np.zeros(width * stride)
    flat[::stride + 1] = 1.0  # column c starts as unit mass at count c
    absorbs = np.zeros((BLOCK_STEPS, width))
    kernel = np.array([pa, pb])
    live = width
    for i, cut in enumerate(cuts):
        flat = np.correlate(flat, kernel, "same")  # m[j-1] p_a + m[j] p_b
        live += 1
        if cut < live:
            rows = flat.reshape(width, stride)[:, max(cut, 0):live]
            absorbs[i] = rows.sum(axis=1)
            rows[...] = 0.0
        live = min(live, max(cut, 0))
        if not live:
            break
    transfer = np.concatenate((absorbs, flat.reshape(width, stride)[:, :live].T))
    transfer.flags.writeable = False
    return transfer


def _final_tail(law: LatticeLaw, n: int, x: float) -> float:
    """P(X_n >= x) = P(J >= j*_n) for the count J ~ Binomial(n, p_a) of
    a-steps, with no absorption; j*_n is the last of `count_thresholds`,
    computed alone on the same integer line, summed over `_binomial_pmf`."""
    (a, pa), (b, pb) = law.atoms
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
    (n <= ENUM_MAX_N).  x and v are refused as `EventSpec` refuses them, and
    a law of second moment 0 uses none of the budget (`budget_steps`).
    """
    EventSpec(x, v, EventVariant.STOPPED_ANY_K)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if method == "enumerate":
        return _enumerate(law, n, x, v)
    if method != "dp":
        raise ValueError(f"unknown method {method!r}")
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


#: Absolute slack when comparing an exact probability against a bound, sized
#: for the oracle suite's horizons (n <= 25); it is no proven bound on the
#: pass's round-off, which grows with n.
COMPARISON_SLACK = 1e-12

