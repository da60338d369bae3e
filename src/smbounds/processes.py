"""One-step increment laws with known conditional moments, the deviation
events, and the integer rules that decide them: the steps within a variance
budget and the up-step counts that reach a threshold.

Every finite law is a `TwoPoint`: the extremal law on {1, -b}, which attains
the two-point MGF bound, shifted down by a drift delta in [0, b].
`TwoPointExtremal`, `TwoPointBounded` and `DriftedTwoPoint` build it under
their CLI labels; `CenteredExponential` is the one law unbounded above.

All laws are IID per path, so the quadratic characteristic and the truncated
variance are deterministic multiples of the step count; every event is then
exactly decidable from the realized partial sums alone.  `montecarlo` draws
and tests paths, and `oracle` propagates their exact distribution, with the
`budget_steps` and `count_thresholds` defined here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

__all__ = [
    "TwoPoint",
    "TwoPointExtremal",
    "TwoPointBounded",
    "DriftedTwoPoint",
    "CenteredExponential",
    "IncrementLaw",
    "EventVariant",
    "EventSpec",
    "parse_law",
    "make_generator",
    "exact_mgf",
    "exceedance_tail",
    "budget_steps",
    "count_thresholds",
]

_U64 = (1 << 64) - 1


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream); stream i is identical
    no matter how the surrounding work is batched."""
    key = (int(seed) & _U64) | ((int(stream) & _U64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class TwoPoint:
    """Law on an upper atom `hi` with probability `p_hi` and a lower atom `lo`
    with probability `p_lo`; `name` is its CLI label.  Build it with
    `TwoPointExtremal`, `TwoPointBounded` or `DriftedTwoPoint`."""

    hi: float
    lo: float
    p_hi: float
    p_lo: float
    name: str

    def __post_init__(self) -> None:
        for field in ("hi", "lo", "p_hi", "p_lo"):
            value = getattr(self, field)
            if not math.isfinite(value):
                raise ValueError(f"{field} must be finite, got {value}")
            if field.startswith("p_") and value <= 0:
                raise ValueError(f"{field} must be > 0, got {value}")
        if not self.hi > self.lo:
            raise ValueError(f"hi must be > lo, got hi={self.hi}, lo={self.lo}")
        if abs(self.p_hi + self.p_lo - 1.0) > 1e-12:
            raise ValueError(f"p_hi + p_lo must be 1, got {self.p_hi + self.p_lo}")

    def atoms(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The (value, probability) pairs, upper atom first."""
        return ((self.hi, self.p_hi), (self.lo, self.p_lo))

    def mean(self) -> float:
        return sum(v * p for v, p in self.atoms())

    def second_moment(self) -> float:
        """One-step conditional second moment E[xi^2] (the per-step increment
        of the quadratic characteristic)."""
        return sum(v * v * p for v, p in self.atoms())

    def truncated_second_moment(self, y: float) -> float:
        """E[xi^2 1{xi <= y}], exact from the atoms."""
        if y <= 0:
            raise ValueError(f"truncation level y must be > 0, got {y}")
        return sum(v * v * p for v, p in self.atoms() if v <= y)

    def exceed_prob(self, y: float) -> float:
        """P(xi > y), exact from the atoms."""
        if y <= 0:
            raise ValueError(f"truncation level y must be > 0, got {y}")
        return sum(p for v, p in self.atoms() if v > y)

    def log_tilted_second_moment(self, lam: float) -> float:
        """log E[xi^2 e^{lam*xi}], with e^{lam*hi} factored out so that no
        exponential overflows at large lam; -inf when both atoms square to 0."""
        s = sum(v * v * p * math.exp(lam * (v - self.hi)) for v, p in self.atoms())
        return lam * self.hi + math.log(s) if s > 0 else -math.inf

    @property
    def support_max(self) -> float:
        return self.hi

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        return np.where(rng.random(shape) < self.p_hi, self.hi, self.lo)

    def label(self) -> str:
        return self.name


def _param_text(value: float) -> str:
    """A law parameter as label text: `:g` where it reads back as the same
    double, the round-tripping repr otherwise."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def _require_positive(param: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{param} must be > 0, got {value}")


def DriftedTwoPoint(b: float, delta: float) -> TwoPoint:
    """The mean-zero law on {1, -b} with P(1) = b/(1+b), shifted down by delta
    in [0, b]: mean -delta <= 0, support still bounded above by 1 (a strict
    supermartingale increment for delta > 0)."""
    _require_positive("b", b)
    if not (math.isfinite(delta) and 0 <= delta <= b):
        raise ValueError(f"delta must be in [0, b], got delta={delta}, b={b}")
    return TwoPoint(1.0 - delta, -b - delta, b / (1.0 + b), 1.0 / (1.0 + b),
                    f"drifted:{_param_text(b)},{_param_text(delta)}")


def TwoPointExtremal(sigma2: float) -> TwoPoint:
    """Mean-zero law P(xi=1) = s2/(1+s2), P(xi=-s2) = 1/(1+s2); it attains the
    two-point MGF bound with equality, so E[xi^2] = s2 and support <= 1."""
    _require_positive("sigma2", sigma2)
    return replace(DriftedTwoPoint(sigma2, 0.0), name=f"extremal:{_param_text(sigma2)}")


def TwoPointBounded(b: float) -> TwoPoint:
    """Mean-zero law P(xi=1) = b/(1+b), P(xi=-b) = 1/(1+b); support in [-b, 1]
    with E[xi^2] = b (the extremal law under the name of its range)."""
    _require_positive("b", b)
    return replace(DriftedTwoPoint(b, 0.0), name=f"bounded:{_param_text(b)}")


@dataclass(frozen=True)
class CenteredExponential:
    """xi = Z - 1 with Z standard exponential: mean 0, E[xi^2] = 1, xi >= -1,
    unbounded above."""

    def atoms(self) -> None:
        return None

    def mean(self) -> float:
        return 0.0

    def second_moment(self) -> float:
        return 1.0

    def truncated_second_moment(self, y: float) -> float:
        """E[xi^2 1{xi <= y}] = 1 - e^{-c} (c^2 + 1) at c = y + 1, the closed
        form of 2 P(3, c) - 2 P(2, c) + P(1, c) in regularized lower
        incomplete gammas of the shifted variable."""
        if y <= 0:
            raise ValueError(f"truncation level y must be > 0, got {y}")
        c = y + 1.0
        return 1.0 - math.exp(-c) * (c * c + 1.0)

    def exceed_prob(self, y: float) -> float:
        if y <= 0:
            raise ValueError(f"truncation level y must be > 0, got {y}")
        return math.exp(-(y + 1.0))

    @property
    def support_max(self) -> float:
        return math.inf

    def log_tilted_second_moment(self, lam: float) -> float:
        """log E[xi^2 e^{lam*xi}] = -lam + log(2/mu^3 - 2/mu^2 + 1/mu) at
        mu = 1 - lam, from the integral of (z - 1)^2 e^{-mu*z} over z >= 0;
        infinite for lam >= 1."""
        if lam >= 1.0:
            return math.inf
        mu = 1.0 - lam
        return -lam + math.log(2.0 / mu**3 - 2.0 / mu**2 + 1.0 / mu)

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        block = rng.standard_exponential(shape)
        block -= 1.0
        return block

    def label(self) -> str:
        return "cexp"


IncrementLaw = Union[TwoPoint, CenteredExponential]


def parse_law(text: str) -> IncrementLaw:
    """Parse a law specification string: extremal:S2 | bounded:B | drifted:B,D | cexp."""
    kind, _, params = text.strip().partition(":")
    try:
        if kind == "extremal":
            return TwoPointExtremal(float(params))
        if kind == "bounded":
            return TwoPointBounded(float(params))
        if kind == "drifted":
            b, d = params.split(",")
            return DriftedTwoPoint(float(b), float(d))
        if kind == "cexp":
            if params:
                raise ValueError(f"cexp takes no parameters, got {params!r}")
            return CenteredExponential()
    except ValueError as exc:
        raise ValueError(f"bad law parameters in {text!r}: {exc}") from exc
    raise ValueError(f"unknown law kind {kind!r} (want extremal/bounded/drifted/cexp)")


def exact_mgf(law: IncrementLaw, lam: float) -> float:
    """Exact E[e^{lam*xi}] for finite-support laws (from the atoms) and for the
    centered exponential (closed form, finite only for lam < 1)."""
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    atoms = law.atoms()
    if atoms is not None:
        return sum(p * math.exp(lam * v) for v, p in atoms)
    if lam >= 1.0:
        return math.inf
    return math.exp(-lam) / (1.0 - lam)


class EventVariant(enum.Enum):
    STOPPED_ANY_K = "stopped"
    MAX_WITH_FINAL_QC = "max"
    FINAL_ONLY = "final"
    TRUNCATED_ANY_K = "truncated"


@dataclass(frozen=True)
class EventSpec:
    """Deviation event at threshold x with variance budget v^2.

    stopped:   X_k >= x and <X>_k <= v^2 for some k in [1, n]
    max:       max_k X_k >= x and <X>_n <= v^2
    final:     X_n >= x and <X>_n <= v^2
    truncated: X_k >= x and V_k^2(y) <= v^2 for some k (requires y)
    """

    x: float
    v: float
    variant: EventVariant
    y: Optional[float] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.x):
            raise ValueError(f"x must be finite, got {self.x}")
        if not (math.isfinite(self.v) and self.v > 0):
            raise ValueError(f"v must be > 0, got {self.v}")
        if self.variant is EventVariant.TRUNCATED_ANY_K:
            if self.y is None or not (math.isfinite(self.y) and self.y > 0):
                raise ValueError(
                    f"truncated events need a finite truncation level y > 0, got y={self.y}")
        elif self.y is not None:
            raise ValueError(f"y only applies to truncated events, got y={self.y}")


def budget_steps(per_step: float, n: int, v: float) -> int:
    """The leading steps k <= n with k * per_step <= v^2, counted as
    floor(v^2 / per_step + 1e-9): the epsilon lets a budget written as
    v = sqrt(k * per_step) count k steps when v * v rounds below k * per_step.
    A per-step moment of 0 uses none of the budget, so all n steps count; the
    ratio is capped at n, so a subnormal moment cannot overflow the count."""
    return n if per_step <= 0 else math.floor(min(v * v / per_step, n) + 1e-9)


def _threshold_line(a: float, b: float, x: float) -> tuple[int, int, int]:
    """Integers (nu, nw, q), q > 0, with (x - k*b) / (a - b) = (nu - k*nw) / q
    exactly for every k: the doubles over their common power-of-two
    denominator, reduced by the common factor."""
    ratios = [v.as_integer_ratio() for v in (x, b, a)]
    den = max(d for _, d in ratios)
    nx, nb, na = (num * (den // d) for num, d in ratios)
    g = math.gcd(nx, nb, na - nb)
    return nx // g, nb // g, (na - nb) // g


#: Error bound of the float64 estimate u - k*w, relative to |u| + k|w|: the
#: conversions of u and w, the product and the difference each round once by
#: at most 2^-53 relative, 3 * 2^-53 in all up to second-order terms; 8 leaves
#: room for the roundings of the bound itself and of est -/+ err.
_ESTIMATE_ERR = 8 * 2.0**-53
#: Absolute part of the same bound: a subnormal u, w or k*w rounds by 2^-1075.
_ESTIMATE_TINY = 1e-300


def count_thresholds(a: float, b: float, x: float, n: int) -> np.ndarray:
    """j*_k = ceil((x - k*b) / (a - b)) for k = 0..n, clamped to [0, k + 1].

    A path of k steps, j of them at a and k - j at b < a, has sum
    j*a + (k - j)*b >= x exactly when j >= j*_k; j*_k = 0 means every such
    path reaches x, and k + 1 that none does.  With (x - k*b) / (a - b) =
    (nu - k*nw) / q in integers (`_threshold_line`), j*_k = (nu + q - 1 -
    k*nw) // q, computed in int64 when every term fits.  Otherwise a float64
    estimate u - k*w brackets the exact value within its proven rounding
    error; a k whose bracket ends have one clamped ceiling takes it, and any
    other k is recomputed in Python integers, so no rounding or tolerance
    decides a threshold.
    """
    if not a > b:
        raise ValueError(f"need a > b, got a={a}, b={b}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    nu, nw, q = _threshold_line(a, b, x)
    top = nu + q - 1
    k = np.arange(n + 1, dtype=np.int64)
    if abs(top) + n * abs(nw) < 1 << 63 and q < 1 << 63:
        return np.clip((top - k * nw) // q, 0, k + 1)
    # |k*w| <= n*2^53 (adjacent doubles bound |b|/(a - b)), so capping |u| at
    # 2^1000 keeps every clamped ceiling and no float overflows
    u = nu / q if abs(nu) <= q << 1000 else (2.0**1000 if nu > 0 else -(2.0**1000))
    w = nw / q
    kf = k.astype(np.float64)
    est = u - kf * w
    err = _ESTIMATE_ERR * (abs(u) + kf * abs(w)) + _ESTIMATE_TINY
    # the clamped ceiling is monotone in the value, so the bracket's ends
    # decide it wherever they agree; the clip to [-1, n + 2] keeps the casts
    # in range and changes no clamped ceiling
    lo = np.clip(np.ceil(np.clip(est - err, -1, n + 2)).astype(np.int64), 0, k + 1)
    hi = np.clip(np.ceil(np.clip(est + err, -1, n + 2)).astype(np.int64), 0, k + 1)
    near = np.flatnonzero(lo != hi)
    exact = (top - near.astype(object) * nw) // q
    lo[near] = np.minimum(np.maximum(exact, 0), near + 1)
    return lo


def exceedance_tail(law: IncrementLaw, y: float, n: int) -> tuple[float, float]:
    """Exact per-step P(xi > y) and P(max over n IID steps > y)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    per_step = law.exceed_prob(y)
    p_max = -math.expm1(n * math.log1p(-per_step)) if per_step < 1.0 else 1.0
    return per_step, p_max
