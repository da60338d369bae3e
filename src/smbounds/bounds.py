"""Closed-form tail bounds for sums with increments bounded from above.

Every function here evaluates a named bound on deviation probabilities of the
form P(X_k >= x with a variance budget <= v^2).  Results are carried in log
space (`LogProb`) and clamped so the linear value never exceeds 1; several of
the raw formulas (Haeusler's in particular) exceed 1 in easy regimes.

The Bennett family is built from one rate, w h(x/w) with Bennett's
h(u) = (1+u) log1p(u) - u (`_rate`):

    log F(x, v)    = -v^2 h(x/v^2)                                (Freedman)
    log H(x, v, n) = -n/(n+v^2) [v^2 h(x/v^2) + n h(-x/n)]        (Hoeffding-type)
    Bennett's independent-case bound    = -n sigma^2 h(t/sigma^2)
    Hoeffding's independent-case bound  = -n [sigma^2 h(t/sigma^2) + h(-t)] / (1+sigma^2)

The rate is Loader's binomial deviance bd0(w + x, w), which `binomial` takes
from `_rate` too.  Near x = 0 it is a series whose terms share one sign,
elsewhere its closed form, with one error bound; the two nonnegative rates of
H are then added.

Each bound is declared once in `_TABLE`, with its inputs, event, gate, chain
edges and call, and a bound on the chain with its log's error bound in units
of 2^-53 |log|; `CORE`, `ORDERING`, the `bounds` command and
`suites.applicable_checks` read it (`_evaluate`).  An edge of the chain holds
where the lower log is at most the upper one plus both logs' error radii
(`_edge_holds`, which derives the units), so an inversion that round-off can
explain is no violation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

__all__ = [
    "TailQuery",
    "LogProb",
    "AzumaRefined",
    "FukNagaev",
    "hoeffding",
    "freedman",
    "bennett",
    "bernstein",
    "prohorov",
    "azuma_denominator",
    "azuma_refined",
    "hoeffding_bounded",
    "fuk_nagaev",
    "courbot",
    "haeusler",
    "bennett_classic",
    "hoeffding_independent",
    "bennett_inverse",
    "GridBlock",
    "default_grid",
]


def _require_finite(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _require_square(name: str, value: float) -> None:
    """Refuse a value whose square underflows to 0 or overflows: the bounds
    divide by v^2 and scale by it."""
    if not 0.0 < value * value < math.inf:
        raise ValueError(f"{name} squared must be a positive finite double, got {name}={value!r}")


def _require_horizon(n: int) -> None:
    """Refuse a horizon that rounds past the largest double (n >= 2^1024 -
    2^970): the bounds take n into floats (n / (n + v^2), n * b), where such
    an n raises OverflowError."""
    try:
        float(n)
    except OverflowError:
        raise ValueError(f"n must be below 2^1024 - 2^970, the doubles' range, "
                         f"got an n of {int(n).bit_length()} bits") from None


@dataclass(frozen=True)
class TailQuery:
    """Deviation query: threshold x >= 0, variance-budget root v > 0, horizon n >= 1."""

    x: float
    v: float
    n: int

    def __post_init__(self) -> None:
        _require_finite(x=self.x, v=self.v)
        if self.x < 0:
            raise ValueError(f"x must be >= 0, got {self.x}")
        if self.v <= 0:
            raise ValueError(f"v must be > 0, got {self.v}")
        _require_square("v", self.v)
        if (isinstance(self.n, float) and not math.isfinite(self.n)
                or int(self.n) != self.n or self.n < 1):
            raise ValueError(f"n must be a positive integer, got {self.n}")
        _require_horizon(self.n)


@dataclass(frozen=True)
class LogProb:
    """A probability stored as its natural log; a log_value above 0 is refused."""

    log_value: float

    def __post_init__(self) -> None:
        if math.isnan(self.log_value):
            raise ValueError("log probability is NaN")
        if self.log_value > 0:
            raise ValueError(f"log probability must be <= 0, got {self.log_value}")

    @classmethod
    def from_log(cls, raw: float) -> "LogProb":
        """Clamp a raw log value at 0 (probability 1)."""
        if math.isnan(raw):
            raise ValueError("log probability is NaN")
        return cls(min(raw, 0.0))

    @property
    def value(self) -> float:
        """Linear view, always in [0, 1]."""
        return math.exp(self.log_value)


@dataclass(frozen=True)
class AzumaRefined:
    """Refined Azuma-Hoeffding bound together with its active denominator branch."""

    bound: LogProb
    u: float
    branch: str  # "range", "variance", or "tie"


@dataclass(frozen=True)
class FukNagaev:
    """Two-term Fuk-Nagaev-style bound: a rescaled closed-form term plus an
    exceedance probability, and their clamped sum."""

    h_term: LogProb
    p_exceed: float
    total: LogProb


def _log_add(log_a: float, *linear_terms: float) -> float:
    """log(exp(log_a) + sum of nonnegative linear terms), stable for tiny log_a."""
    out = log_a
    for t in linear_terms:
        if t < 0:
            raise ValueError(f"tail term must be >= 0, got {t}")
        if t == 0.0:
            continue
        lt = math.log(t)
        hi, lo = (out, lt) if out >= lt else (lt, out)
        out = hi if lo == -math.inf else hi + math.log1p(math.exp(lo - hi))
    return out


def _rate(x: float, w: float) -> float:
    """w h(x/w) = bd0(w + x, w) >= 0 for x >= -w and w > 0, with Bennett's rate
    h(u) = (1+u) log1p(u) - u; it is +0.0 at x = 0, and the kernels below
    negate it as 0.0 - rate, so the CLI prints 0 there, not -0.

    For -0.18 < u = x/w < 0.22 (|v| < 0.1, v = u/(2 + u)) it is Loader's
    series x (v + (1 + v) v^2 S), S = sum_j v^(2j)/(2j + 3) by nine Horner
    steps in v^2 (the first term left out is below 2e-19 of S), which never
    forms the w + x that may overflow; elsewhere (x + w) log1p(u) - x, and
    x (log x - log w - 1) where u overflows.

    Error (Higham, ch. 3; eps = 2^-53, log and log1p within two units,
    barring overflow and underflow): the terms of S share one sign and those
    of v + (1 + v) v^2 S cancel by at most 4%, so the series errs by at most
    6 eps rate.  In the closed form the rounding of u costs a unit of |x|,
    and x + w, log1p, the product and the difference five units of its terms
    |(x + w) log1p(u)| <= rate + |x| and rate: at most 5 eps (rate + |x|).
    Where u overflows, L = log x - log w > 709 errs by 3.2 units of L, since
    |log x| + |log w| <= 1.1 L, and L - 1 and the product add two: 5.2 eps
    rate.  Outside the series |x| < 10.5 rate, so `_rate_error` bounds all.
    """
    u = x / w
    if -0.18 < u < 0.22:
        v = u / (2.0 + u)
        vv = v * v
        s = 1 / 3 + vv * (1 / 5 + vv * (1 / 7 + vv * (1 / 9 + vv * (1 / 11 + vv * (
            1 / 13 + vv * (1 / 15 + vv * (1 / 17 + vv * (1 / 19))))))))
        return x * (v + (1.0 + v) * vv * s)
    if u == math.inf:
        # x/w overflows: log1p(u) = log x - log w, and w is below 2^-1024 x
        return x * (math.log(x) - math.log(w) - 1.0)
    if u > -1.0:
        return (x + w) * math.log1p(u) - x
    if x == -w:
        return w  # h(-1) = 1; the closed form would produce 0*inf
    # x > -w but x/w rounded to -1, which needs w > 2^53; then x is a whole
    # number and w + x is taken in exact integers (in floats it is 0)
    d = w + int(x)
    return d * math.log(d / w) - x


def _rate_error(rate: float, x: float) -> float:
    """A bound on the rounding error of `_rate(x, w)` = rate, from its docstring."""
    return 2.0**-53 * min(64.0 * rate, 6.0 * (rate + abs(x)))


# Raw-log kernels of the core family on plain floats.  They assume validated
# arguments (x >= 0, v > 0, n >= 1, all finite) and do not clamp; the public
# bounds below validate and clamp, `core_logs` returns them raw.


def _hoeffding_log(x: float, v: float, n: int) -> float:
    if x > n:
        return -math.inf
    v2 = v * v
    # n/(n + v^2) with n and v^2 halved, so that n + v^2 cannot overflow; it
    # has the same bits wherever n + v^2 is finite, as halving is exact for
    # n >= 1 and v^2 >= 2^-1021, and below that n + v^2 rounds to n
    q = 0.5 * n / (0.5 * n + 0.5 * v2)
    return q * (0.0 - (_rate(x, v2) + _rate(-x, n)))


def _freedman_log(x: float, v: float) -> float:
    return 0.0 - _rate(x, v * v)


# Bennett's and Bernstein's logs are -x^2 / denominator.  Where x^2 or the
# denominator overflows, which gives -inf, -0 or NaN, or x^2 is below _TINY, the
# smallest normal double, which gives -0 or loses digits, both are divided by x
# and the log is taken in r = v^2 / x.
_TINY = sys.float_info.min


def _bennett_log(x: float, v: float) -> float:
    if x == 0:
        return 0.0
    v2 = v * v
    denom = v2 * (1.0 + math.sqrt(1.0 + 2.0 * x / (3.0 * v2))) + x / 3.0
    xx = x * x
    if _TINY <= xx < math.inf and denom < math.inf:
        return -xx / denom
    r = v2 / x
    return -x / (r + math.sqrt(r) * math.sqrt(r + 2.0 / 3.0) + 1.0 / 3.0)


def _bernstein_log(x: float, v: float) -> float:
    xx, denom = x * x, 2.0 * (v * v + x / 3.0)
    if _TINY <= xx < math.inf and denom < math.inf or x == 0:  # x = 0 gives -0 whatever denom is
        return -xx / denom
    return -x / (2.0 * (v * v / x) + 2.0 / 3.0)


def _prohorov_log(x: float, v: float) -> float:
    t = x / (v * v) * 0.5  # not x / (2 v^2): 2 v^2 overflows for v^2 >= 2^1023
    # where t overflows, asinh(t) = log 2t = log x - log v^2 to double precision
    return -0.5 * x * (math.asinh(t) if t < math.inf else math.log(x) - math.log(v * v))


def _require_pair(x: float, v: float) -> None:
    _require_finite(x=x, v=v)
    if x < 0 or v <= 0:
        raise ValueError(f"need x >= 0 and v > 0, got x={x}, v={v}")
    _require_square("v", v)


def hoeffding(q: TailQuery) -> LogProb:
    """Hoeffding-type bound for supermartingale differences bounded above by 1.

    log value = (n/(n+v^2)) * [(x+v^2) log(v^2/(x+v^2)) + (n-x) log(n/(n-x))]
    for 0 <= x < n.  At x = n the second factor is 1 by convention (the base
    diverges while the exponent vanishes), and for x > n the bound is 0.
    """
    return LogProb.from_log(_hoeffding_log(q.x, q.v, q.n))


def freedman(x: float, v: float) -> LogProb:
    """Freedman's bound F(x,v) = (v^2/(x+v^2))^(x+v^2) * e^x."""
    _require_pair(x, v)
    return LogProb.from_log(_freedman_log(x, v))


def bennett(x: float, v: float) -> LogProb:
    """Bennett's bound exp{-x^2 / (v^2 (1 + sqrt(1 + 2x/(3v^2))) + x/3)}."""
    _require_pair(x, v)
    return LogProb.from_log(_bennett_log(x, v))


def bernstein(x: float, v: float) -> LogProb:
    """Bernstein's bound exp{-x^2 / (2 (v^2 + x/3))}."""
    _require_pair(x, v)
    return LogProb.from_log(_bernstein_log(x, v))


def prohorov(x: float, v: float) -> LogProb:
    """Prohorov's bound exp{-(x/2) arcsinh(x / (2v^2))}."""
    _require_pair(x, v)
    return LogProb.from_log(_prohorov_log(x, v))


@dataclass(frozen=True)
class _Bound:
    """One bound of `_TABLE`.  Its call reads the `bounds` command's parameters
    and names the functions it uses, so a replaced one is the one called."""

    name: str
    needs: str  # the parameter it reads beyond (x, v, n): "", "b" or "y"
    event: str  # "truncated", or "stopped", which at increments <= 1 holds every other event
    gates: bool  # checks gate on it; otherwise it is only reported
    over: tuple[str, ...]  # its chain edges: the bounds whose log is at most its own
    call: Callable[[Mapping[str, Any]], Any]  # to a LogProb, an AzumaRefined, or None: no claim
    units: Optional[float] = None  # on the chain: its log's error in 2^-53 |log| (`_edge_holds`)


#: Every bound, in report order.  The core kernels are not clamped: a log above 0 is refused.
_TABLE = (
    _Bound("hoeffding", "", "stopped", True, (),
           lambda a: LogProb(_hoeffding_log(a["x"], a["v"], a["n"])), units=106),
    _Bound("freedman", "", "stopped", True, ("hoeffding",),
           lambda a: LogProb(_freedman_log(a["x"], a["v"])), units=64),
    _Bound("bennett", "", "stopped", True, ("freedman",),
           lambda a: LogProb(_bennett_log(a["x"], a["v"])), units=8),
    _Bound("bernstein", "", "stopped", True, ("bennett",),
           lambda a: LogProb(_bernstein_log(a["x"], a["v"])), units=5),
    _Bound("prohorov", "", "stopped", True, ("hoeffding",),
           lambda a: LogProb(_prohorov_log(a["x"], a["v"])), units=5),
    _Bound("azuma_refined", "b", "stopped", True, (),
           lambda a: azuma_refined(a["x"], a["n"], a["b"])),
    _Bound("hoeffding_bounded", "b", "stopped", True, (),
           lambda a: hoeffding_bounded(a["x"], a["n"], a["b"], a["supermartingale"])),
    _Bound("fuk_nagaev_h_term", "y", "truncated", False, (),
           lambda a: fuk_nagaev(a["x"], a["y"], a["v"], a["n"], a["p_exceed"]).h_term),
    _Bound("fuk_nagaev", "y", "truncated", True, (),
           lambda a: fuk_nagaev(a["x"], a["y"], a["v"], a["n"], a["p_exceed"]).total),
    _Bound("courbot", "y", "truncated", True, (),
           lambda a: courbot(a["x"], a["y"], a["v"], a["sum_exceed"], a["p_qc_exceed"])),
    _Bound("haeusler", "y", "truncated", False, (),
           lambda a: haeusler(a["x"], a["y"], a["v"]) if a["x"] > 0 else None),
)


def _evaluate(a: Mapping[str, Any],
              event: Optional[str] = None) -> list[tuple[_Bound, LogProb, Optional[str]]]:
    """The table's bounds at `a` with their branches (`azuma_refined`'s, else
    None): without an event, each whose input `a` gives; with one, those that
    gate its checks and whose hypotheses hold.  A bad input is refused."""
    out = []
    for e in _TABLE:
        if e.needs and a.get(e.needs) is None or event is not None and not (
                e.event == event and e.gates  # the range pair: b > 0, b <= 1 if supermartingale
                and (e.needs != "b" or 0 < a["b"] and (a["b"] <= 1 or not a["supermartingale"]))):
            continue
        if not e.needs:  # a kernel takes (x, v, n) checked; truncation checks (x/y, v/y, n)
            TailQuery(a["x"], a["v"], a["n"])
        r = e.call(a)
        if r is not None:
            out.append((e, r.bound, r.branch) if isinstance(r, AzumaRefined) else (e, r, None))
    return out


#: Edges (lower, upper) of the ordering chain: log lower <= log upper.
ORDERING = tuple((lo, e.name) for e in _TABLE for lo in e.over)

#: Names of the core family, the bounds on the chain, in `core_logs` order.
CORE = tuple(e.name for e in _TABLE if any(e.name in edge for edge in ORDERING))

#: Each core log's error bound per unit of |log|: its table units times 2^-53.
_LOG_ERROR = {e.name: e.units * 2.0**-53 for e in _TABLE if e.name in CORE}

#: The edges as (lower index, upper index, lower error, upper error).
_ORDER_INDEX = tuple((CORE.index(lo), CORE.index(hi), _LOG_ERROR[lo], _LOG_ERROR[hi])
                     for lo, hi in ORDERING)


def core_logs(q: TailQuery) -> tuple[float, float, float, float, float]:
    """The core family's raw kernel log values at one query, in `CORE` order.

    Not clamped: a kernel that claims a probability above 1 is a defect that
    `ordering_ok` and the bound table refuse.  The kernels are looked up as
    module attributes at call time, so a replaced kernel is the one every
    caller evaluates.
    """
    return _core_logs(q.x, q.v, q.n)


def _core_logs(x: float, v: float, n: int) -> tuple[float, float, float, float, float]:
    """`core_logs` on plain floats, for callers that have checked (x, v, n)
    with `TailQuery` already, such as `compare`, which checks each value of
    its grid's axes once."""
    logs = (_hoeffding_log(x, v, n), _freedman_log(x, v), _bennett_log(x, v),
            _bernstein_log(x, v), _prohorov_log(x, v))
    if math.isnan(sum(logs)):
        raise ValueError("log probability is NaN")
    return logs


def _edge_holds(lo: float, hi: float, e_lo: float, e_hi: float) -> bool:
    """The rule of a chain edge: log lo <= log hi, or else lo exceeds hi by
    no more than both logs' error radii, e |log| + 2^-1022 each.  A NaN
    breaks it, and so does a finite lo above an hi of -inf.

    A radius bounds |computed - exact|, the exact bound taken at the query's
    x and n and at the rounded w = v*v, which all five kernels share; the
    exact logs keep the chain at any w, so an inversion within the two radii
    is round-off.  e is the table's units times eps = 2^-53, counted to first
    order from the code (Higham, ch. 3; sqrt correctly rounded, log, log1p
    and asinh within two units) and rounded up:
    - freedman, 64: 0 - rate, which errs by at most `_rate_error` <= 64 eps
      rate.
    - hoeffding, 106: each rate 64; where n > 2^53 is no double, n rounds in
      x/n and x + n, which moves n h(-x/n) by |log1p(-x/n) + x/n| <= 36.5
      units of it (1 - x/n > 2^-54 outside `_rate`'s exact branch); the sum
      1, n/(n + w) 3 and the product 1: 105.5.
    - bennett, 8: 2x/(3w) 2, 1 + that 3, its sqrt 2.5, 1 + sqrt 3.5, times
      w 4.5, + x/3 5.5, and x^2 and the quotient 2 more: 7.5.  The r form:
      r 1, sqrt(r) 1.5, r + 2/3 2 and its sqrt 2, their product 4.5, the
      two sums 6.5 and the quotient 7.5.
    - bernstein, 5: x^2 1, w + x/3 2 and the quotient 1: 4; the r form 3.
    - prohorov, 5: t 1, asinh 2 more, the product 1: 4; where t overflows,
      log x - log w 3.2 (|log x| + |log w| <= 1.1 of it) and the product 1.
    The absolute 2^-1022, the smallest normal double, covers what falls
    below the normal doubles: a rounding there costs 2^-1075, scaled by at
    most 9 on its way to a log, and where 2 v^2/x overflows Bennett's and
    Bernstein's r forms give -0 for a log above -2^-1022.
    """
    return lo <= hi or lo <= hi + (e_lo * abs(lo) + e_hi * abs(hi) + 2.0 * _TINY)


def ordering_ok(logs: Sequence[float]) -> bool:
    """Whether core log values in `CORE` order are all <= 0 (probabilities)
    and hold every `ORDERING` edge by `_edge_holds`: log lower <= log upper
    within the two logs' derived round-off radii."""
    for i, j, e_i, e_j in _ORDER_INDEX:
        # an edge that holds outright, as most do, costs no call
        if not (logs[i] <= logs[j] or _edge_holds(logs[i], logs[j], e_i, e_j)):
            return False
    return max(logs) <= 0.0


def azuma_denominator(x: float, n: int, b: float) -> tuple[float, str]:
    """U_n(x,b) = min{n(1+b)^2, 4(nb + x/3)} and which branch of the min is active."""
    _require_finite(x=x, b=b)
    if x < 0 or b <= 0 or n < 1:
        raise ValueError(f"need x >= 0, b > 0, n >= 1, got x={x}, b={b}, n={n}")
    _require_horizon(n)
    # a product, not ** 2, so a huge b gives +inf (the variance branch) and
    # no OverflowError
    u_range = n * ((1.0 + b) * (1.0 + b))
    u_variance = 4.0 * (n * b + x / 3.0)
    if u_range == u_variance:
        return u_range, "tie"
    if u_range < u_variance:
        return u_range, "range"
    return u_variance, "variance"


def azuma_refined(x: float, n: int, b: float) -> AzumaRefined:
    """Refined Azuma-Hoeffding bound exp{-2x^2 / U_n(x,b)} for martingale
    differences in [-b, 1]; sharper than the plain Azuma-Hoeffding bound
    whenever the variance branch of U_n is active."""
    u, branch = azuma_denominator(x, n, b)
    return AzumaRefined(LogProb.from_log(-2.0 * x * x / u), u, branch)


def hoeffding_bounded(x: float, n: int, b: float, supermartingale: bool = False) -> LogProb:
    """Maximal-deviation bound for differences in [-b, 1]: the Hoeffding-type
    bound at the worst-case variance budget v = sqrt(n*b).

    The martingale form holds for any b > 0; the supermartingale form only for
    0 < b <= 1, so that regime must be flagged by the caller.
    """
    _require_finite(x=x, b=b)
    if b <= 0:
        raise ValueError(f"b must be > 0, got {b}")
    if supermartingale and b > 1:
        raise ValueError(f"supermartingale regime requires 0 < b <= 1, got b={b}")
    _require_horizon(n)
    nb = n * b
    if not 0.0 < nb < math.inf:
        raise ValueError(f"n*b must be a positive finite double, got n={n}, b={b!r}")
    return hoeffding(TailQuery(x, math.sqrt(nb), n))


def fuk_nagaev(x: float, y: float, v: float, n: int, p_exceed: float) -> FukNagaev:
    """Truncation bound: the rescaled closed-form term at (x/y, v/y) plus the
    caller-supplied probability that some increment exceeds the level y."""
    _require_finite(x=x, y=y, v=v)
    if y <= 0:
        raise ValueError(f"y must be > 0, got {y}")
    if not 0.0 <= p_exceed <= 1.0:
        raise ValueError(f"p_exceed must be in [0, 1], got {p_exceed}")
    _require_square("v/y", v / y)
    h_term = hoeffding(TailQuery(x / y, v / y, n))
    total = LogProb.from_log(_log_add(h_term.log_value, p_exceed))
    return FukNagaev(h_term, p_exceed, total)


def courbot(x: float, y: float, v: float, sum_exceed: float, p_qc_exceed: float) -> LogProb:
    """Courbot's three-term bound: F(x/y, v/y) plus the summed per-step
    exceedance probabilities plus the variance-budget overflow probability."""
    _require_finite(x=x, y=y, v=v)
    if y <= 0 or v <= 0 or x < 0:
        raise ValueError(f"need x >= 0, y > 0, v > 0, got x={x}, y={y}, v={v}")
    if sum_exceed < 0 or p_qc_exceed < 0:
        raise ValueError("tail terms must be >= 0")
    _require_square("v/y", v / y)
    f_term = freedman(x / y, v / y)
    return LogProb.from_log(_log_add(f_term.log_value, sum_exceed, p_qc_exceed))


def haeusler(x: float, y: float, v: float) -> LogProb:
    """Haeusler's replacement for the rescaled F term:
    exp{(x/y)(1 - log(xy/v^2))}, clamped at probability 1."""
    _require_finite(x=x, y=y, v=v)
    if x <= 0 or y <= 0 or v <= 0:
        raise ValueError(f"need x, y, v > 0, got x={x}, y={y}, v={v}")
    xy, v2, tiny = x * y, v * v, sys.float_info.min
    if tiny <= xy < math.inf and tiny <= v2 < math.inf and tiny <= xy / v2 < math.inf:
        log_ratio = math.log(xy / v2)
    else:
        # a product or the ratio left the normal doubles, where its log is
        # inexact or undefined: sum the logs of the factors instead
        log_ratio = math.log(x) + math.log(y) - 2.0 * math.log(v)
    return LogProb.from_log((x / y) * (1.0 - log_ratio))


def bennett_classic(t: float, sigma2: float, n: int) -> LogProb:
    """Bennett's original bound for independent centered summands bounded above
    by 1: exp{n [(t+sigma^2) log(sigma^2/(t+sigma^2)) + t]}."""
    _require_finite(t=t, sigma2=sigma2)
    if t < 0 or sigma2 <= 0 or n < 1:
        raise ValueError(f"need t >= 0, sigma2 > 0, n >= 1, got t={t}, sigma2={sigma2}, n={n}")
    _require_horizon(n)
    return LogProb.from_log(0.0 - n * _rate(t, sigma2))


def hoeffding_independent(t: float, sigma2: float, n: int) -> LogProb:
    """Hoeffding's independent-case bound
    {(1 + t/sigma^2)^(-(t+sigma^2)/(1+sigma^2)) (1-t)^(-(1-t)/(1+sigma^2))}^n
    for 0 <= t < 1."""
    _require_finite(t=t, sigma2=sigma2)
    if not 0 <= t < 1:
        raise ValueError(f"t must be in [0, 1), got {t}")
    if sigma2 <= 0 or n < 1:
        raise ValueError(f"need sigma2 > 0 and n >= 1, got sigma2={sigma2}, n={n}")
    _require_horizon(n)
    return LogProb.from_log(0.0 - n * (_rate(t, sigma2) + _rate(-t, 1.0)) / (1.0 + sigma2))


def bennett_inverse(level: float, v: float) -> tuple[float, LogProb]:
    """Inverse form of Bennett's bound: the threshold level/3 + v*sqrt(2*level)
    at which the deviation probability drops below e^{-level}."""
    _require_finite(level=level, v=v)
    if level <= 0 or v <= 0:
        raise ValueError(f"need level > 0 and v > 0, got level={level}, v={v}")
    threshold = level / 3.0 + v * math.sqrt(2.0 * level)
    return threshold, LogProb.from_log(-level)


#: Default sweep values: boundary, moderate-deviation, and limit regimes.
GRID_X = (0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0)
GRID_V = (0.1, 0.5, 1.0, 2.0, 5.0)
GRID_N = (1, 2, 5, 10, 100, 10**4, 10**6)


#: A grid block (n, vs, xs): the points (x, v, n) for every v in vs and x in
#: xs.  The values are not checked: `TailQuery` checks them.
GridBlock = tuple[int, Sequence[float], Sequence[float]]


def default_grid() -> list[GridBlock]:
    """Default comparison grid over (x, v, n) as one `GridBlock` per n.  Each
    block's xs adds the x = 0.3n / 0.7n / n points that exercise the
    horizon-dependent branches."""
    return [(n, GRID_V, sorted(set(GRID_X) | {0.3 * n, 0.7 * n, float(n)}))
            for n in GRID_N]
