"""Verification suites: derivative and ordering properties of the closed
forms, variational cross-checks, the exact-oracle corpus, and the Monte Carlo
corpus.  The CLI `verify` command and the acceptance tests run these same
functions, so a pass here is the artifact's health check.  The oracle and mc
suites and `simulate` take the bounds a (law, event) pair admits from
`applicable_checks`, which derives the inputs from the law and reads the rest
from the bound table in `bounds`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from . import bounds as bnd
from . import cumulant as cml
from . import montecarlo as mc
from . import oracle as orc
from .processes import (
    CenteredExponential,
    DriftedTwoPoint,
    EventSpec,
    EventVariant,
    IncrementLaw,
    TwoPointBounded,
    TwoPointExtremal,
    exact_mgf,
    exceedance_tail,
)

__all__ = [
    "BoundComparison",
    "Check",
    "SuiteReport",
    "SUITES",
    "run_suites",
    "applicable_checks",
    "exact_vs_bound",
    "chain_grid",
    "oracle_corpus",
    "mc_corpus",
]


@dataclass(frozen=True)
class Check:
    label: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    name: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, label: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(label, bool(passed), detail))


LAMBDA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
FD_STEP = 1e-4
FD_TOL = 1e-6


# ---------------------------------------------------------------------------
# cumulant suite: finite-difference shape of the cumulant bound, the
# quadratic/linear envelopes, and MGF sharpness against the extremal law
# ---------------------------------------------------------------------------


def suite_cumulant() -> SuiteReport:
    rep = SuiteReport("cumulant")
    h = FD_STEP
    ts = np.unique(np.concatenate(([h], np.linspace(0.01, 10.0, 100), np.linspace(0.01, 10.0, 60),
                                   np.linspace(0.05, 10.0, 60))))

    worst_second = -math.inf
    min_forward = math.inf
    ratio_ok = True
    linear_ok = True
    for lam in LAMBDA_GRID:
        prev_ratio = math.inf
        for t in ts:
            f0 = cml.cgf_bound(lam, float(t))
            second = cml.cgf_bound(lam, float(t + h)) - 2.0 * f0 + cml.cgf_bound(lam, float(t - h))
            worst_second = max(worst_second, second)
            forward = cml.cgf_bound(lam, float(t + h)) - f0
            min_forward = min(min_forward, forward)
            ratio = f0 / float(t)
            ratio_ok = ratio_ok and ratio <= prev_ratio + 1e-12
            prev_ratio = ratio
            linear_ok = linear_ok and f0 <= cml.cumulant_bound_linear(lam, float(t)) + 1e-12
    rep.add("concavity in t (centered second difference)", worst_second <= FD_TOL,
            f"max second difference {worst_second:.3e}")
    rep.add("strict increase in t (forward difference)", min_forward > 0.0,
            f"min forward difference {min_forward:.3e}")
    rep.add("t -> bound/t nonincreasing", ratio_ok)
    rep.add("linear envelope (e^lam - 1 - lam) t", linear_ok)

    quad_ok = True
    for lam in np.union1d(np.linspace(0.0, 10.0, 21), np.linspace(0.0, 10.0, 30)):
        for b in np.union1d(np.linspace(0.05, 5.0, 25), (0.1, 0.5, 1.0, 3.0, 5.0)):
            if cml.cgf_bound(float(lam), float(b)) > cml.cgf_quadratic_bound(float(lam), float(b)) + 1e-12:
                quad_ok = False
    rep.add("quadratic envelope lam^2 (1+b)^2 / 8", quad_ok)

    worst_rel = 0.0
    for lam in np.linspace(0.0, 20.0, 41):
        for s2 in np.geomspace(0.01, 10.0, 40):
            exact = exact_mgf(TwoPointExtremal(float(s2)), float(lam))
            est = cml.mgf_bound(float(lam), float(s2))
            worst_rel = max(worst_rel, abs(exact - est) / est)
    rep.add("MGF sharpness on the extremal law", worst_rel <= 1e-12,
            f"max relative gap {worst_rel:.3e}")

    dom_ok = True
    zoo = [TwoPointExtremal(0.5), TwoPointBounded(0.5), TwoPointBounded(1.0),
           DriftedTwoPoint(0.5, 0.2)]
    for law in zoo:
        m2 = law.second_moment()
        for lam in np.linspace(0.0, 10.0, 21):
            if exact_mgf(law, float(lam)) > cml.mgf_bound(float(lam), m2) * (1.0 + 1e-12):
                dom_ok = False
    rep.add("exact MGF below the two-point estimate (zoo laws)", dom_ok)

    rep.add("tilted-second-moment condition holds for bounded-above laws",
            cml.check_tilted_second_moment(TwoPointExtremal(0.5), (0.0, 0.5, 1.0, 2.0, 5.0)))
    return rep


# ---------------------------------------------------------------------------
# chain suite: orderings, monotonicity in n, and the large-n limit
# ---------------------------------------------------------------------------


def chain_grid() -> Iterator[bnd.TailQuery]:
    """At least 10^4 (x, v, n) points with x restricted to [0, n]."""
    for n in bnd.GRID_N:
        extra = sorted({x for x in bnd.GRID_X if x <= n} | {0.3 * n, 0.7 * n, float(n)})
        xs = np.unique(np.concatenate([np.linspace(0.0, n, 290), extra]))
        for v in bnd.GRID_V:
            for x in xs:
                yield bnd.TailQuery(float(x), v, n)


def suite_chain() -> SuiteReport:
    rep = SuiteReport("chain")
    queries = list(chain_grid())
    bad = [q for q in queries if not bnd.ordering_ok(bnd.core_logs(q))]
    rep.add(f"ordering chain on {len(queries)} grid points", not bad, f"{len(bad)} violations"
            + (f", first at x={bad[0].x} v={bad[0].v} n={bad[0].n}" if bad else ""))

    geo = [float(t) for t in np.geomspace(0.1, 10.0, 25)]
    pairs = [(x, v) for v in bnd.GRID_V for x in (0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0)]
    mono_ok = True
    e = bnd._LOG_ERROR["hoeffding"]
    for x, v in pairs + [(x, v) for x in geo for v in geo]:
        logs = [bnd.hoeffding(bnd.TailQuery(x, v, n)).log_value for n in bnd.GRID_N]
        mono_ok = mono_ok and all(bnd._edge_holds(lo, hi, e, e) for lo, hi in zip(logs, logs[1:]))
    rep.add("bound nondecreasing in the horizon n", mono_ok)

    limit_ok = True
    worst = 0.0
    for x in geo:
        for v in geo:
            lh = bnd.hoeffding(bnd.TailQuery(x, v, 10**6)).log_value
            lf = bnd.freedman(x, v).log_value
            rel = abs(lh - lf) / abs(lf)
            worst = max(worst, rel)
            if rel > 1e-3:
                limit_ok = False
    rep.add("large-n limit matches the horizon-free form", limit_ok,
            f"max relative log gap at n=1e6: {worst:.3e}")
    return rep


# ---------------------------------------------------------------------------
# variational suite: closed forms against golden-section minimization plus the
# exact reduction, branch, and inverse identities
# ---------------------------------------------------------------------------


def suite_variational() -> SuiteReport:
    rep = SuiteReport("variational")

    worst_h = 0.0
    worst_f = 0.0
    points = [*itertools.product((2, 5, 10, 100), (0.5, 1.0, 2.0, 5.0, 10.0),
                                 (0.1, 0.3, 0.5, 0.7, 0.9)),
              *itertools.product((2, 10, 100), (0.5, 1.0, 3.0), (0.2, 0.6, 0.95))]
    for n, v, frac in points:
        x = frac * n
        q = bnd.TailQuery(x, v, n)
        t = v * v / n
        _, val = cml.minimize_tilt(lambda lam: -lam * x + n * cml.cgf_bound(lam, t), 1.0)
        worst_h = max(worst_h, abs(val - bnd.hoeffding(q).log_value))
        v2 = v * v
        _, val_f = cml.minimize_tilt(
            lambda lam: -lam * x + cml.cumulant_bound_linear(lam, v2), 1.0)
        worst_f = max(worst_f, abs(val_f - bnd.freedman(x, v).log_value))
    rep.add("closed form equals tilt minimization (horizon-n bound)", worst_h <= 1e-8,
            f"max |gap| {worst_h:.3e} over {len(points)} points")
    rep.add("closed form equals tilt minimization (horizon-free bound)", worst_f <= 1e-8,
            f"max |gap| {worst_f:.3e} over {len(points)} points")

    # Hoeffding's and Bennett's independent-case forms are the martingale
    # bounds at x = n t, v^2 = n sigma^2, and Hoeffding's is the sharper
    worst_red = 0.0
    worst_bennett = 0.0
    improves = True
    combos = 0
    for t in np.union1d(np.linspace(0.05, 0.95, 10), (0.1, 0.3, 0.5, 0.6)).tolist():
        for s2 in (0.1, 0.25, 0.5, 1.0, 2.5, 4.0, 5.0, 10.0):
            for n in (1, 2, 3, 4, 5, 8, 13, 25, 50):
                combos += 1
                x, v = n * t, math.sqrt(n * s2)
                li = bnd.hoeffding_independent(t, s2, n).log_value
                lb = bnd.bennett_classic(t, s2, n).log_value
                lh = bnd.hoeffding(bnd.TailQuery(x, v, n)).log_value
                worst_red = max(worst_red, abs(li - lh))
                worst_bennett = max(worst_bennett, abs(lb - bnd.freedman(x, v).log_value))
                improves = improves and li <= lb + 1e-12
    rep.add(f"independent-case reduction identity ({combos} combos)", worst_red <= 1e-12,
            f"max |log gap| {worst_red:.3e}")
    rep.add(f"Bennett's independent-case form equals Freedman's, above Hoeffding's "
            f"({combos} combos)", worst_bennett <= 1e-13 and improves,
            f"max |log gap| {worst_bennett:.3e}")

    # exact check of the denominator-branch claim, then the float branch
    # picker on the same off-boundary points.  With b = bk/20 every x is
    # num/(1600 den); each side is scaled by 4800 den to an integer and
    # computed from its own formula, not from the algebra that makes the two
    # inequalities equal
    branch_ok = True
    float_ok = True
    factors = ((1, 2), (9, 10), (99, 100), (1, 1), (101, 100), (11, 10), (2, 1))
    absolute = ((1, 10), (1, 1), (10, 1))
    for bk in range(1, 61):
        b = bk / 20
        for n in range(1, 101):
            boundary = 3 * n * (20 - bk) ** 2  # 1600 (3/4) n (1-b)^2
            points = [(boundary * p, q) for p, q in factors] + [(1600 * p, q) for p, q in absolute]
            for num, den in points:
                lhs = 4 * (240 * n * bk * den + num) < 12 * n * (20 + bk) ** 2 * den
                rhs = 3 * num < 3 * boundary * den
                if lhs != rhs:
                    branch_ok = False
                if boundary > 0 and num != boundary * den:
                    _, branch = bnd.azuma_denominator(num / (1600 * den), n, b)
                    want = "variance" if rhs else "range"
                    if branch not in (want, "tie"):
                        float_ok = False
    rep.add("denominator branch point x = (3/4) n (1-b)^2, exact rationals", branch_ok)
    rep.add("float branch picker agrees off the boundary", float_ok)

    inv_ok = True
    for level in (0.5, 1.0, 2.0, 5.0, 10.0):
        for v in (0.25, 1.0, 4.0):
            threshold, target = bnd.bennett_inverse(level, v)
            if bnd.bennett(threshold, v).log_value > target.log_value + math.log1p(1e-12):
                inv_ok = False
    rep.add("inverse threshold level/3 + v sqrt(2 level) reaches e^-level", inv_ok)
    return rep


# ---------------------------------------------------------------------------
# oracle suite: exact first-passage probabilities against every bound
# ---------------------------------------------------------------------------


def _corpus_laws() -> list[IncrementLaw]:
    return (
        [TwoPointExtremal(s2) for s2 in (0.25, 0.5, 1.0, 2.0)]
        + [TwoPointBounded(0.45)]
        + [DriftedTwoPoint(0.5, 0.25), DriftedTwoPoint(1.0, 0.5)]
    )


def oracle_corpus() -> Iterator[tuple[IncrementLaw, int, float, float]]:
    """(law, n, x, v) instances satisfying the hypotheses; v^2 is n m2 times
    a scale, and a scale above 1 means the variance clause never binds."""
    for law in _corpus_laws():
        m2 = law.second_moment()
        for n in (2, 5, 10, 25):
            for scale in (1.0000001, 0.5):
                v = math.sqrt(n * m2 * scale)
                for x in (1.0, 0.3 * n, 0.6 * n, float(n)):
                    yield law, n, x, v


def suite_oracle() -> SuiteReport:
    rep = SuiteReport("oracle")

    comps = [(f"{law.label()} n={n} x={x:g} v={v:g}", exact_vs_bound(law, n, x, v))
             for law, n, x, v in oracle_corpus()]
    bad = [label for label, comp in comps if not comp.valid]
    rep.add(f"exact stopped probability below every bound ({len(comps)} instances)", not bad,
            f"{len(bad)} violations" + (f", first: {bad[0]}" if bad else ""))
    results = [comp.result for _, comp in comps]
    rep.add("event nesting p_final <= p_max <= p_stopped",
            all(r.p_final <= r.p_max + 1e-15 and r.p_max <= r.p_stopped + 1e-15 for r in results))
    rep.add("probability mass conserved by the first-passage DP",
            all(r.defect <= 1e-12 for r in results))

    rng = np.random.default_rng(20240917)
    pool = _corpus_laws()
    # atoms 1 and -0.45 at 0.3/0.7, a pair of values and weights that no
    # corpus law has, so the DP meets thresholds the corpus does not make
    extra = orc.LatticeLaw(((1.0, 0.3), (-0.45, 0.7)))
    worst = 0.0
    for _ in range(200):
        pick = rng.integers(0, len(pool) + 1)
        lat = extra if pick == len(pool) else orc.LatticeLaw.from_increment_law(pool[pick])
        n = int(rng.integers(1, 11))
        x = float(rng.uniform(-1.0, 0.9 * n))
        v = math.sqrt(float(rng.uniform(0.3, 1.4)) * n * lat.m2)
        a = orc.exact_event_probability(lat, n, x, v, method="dp")
        b = orc.exact_event_probability(lat, n, x, v, method="enumerate")
        worst = max(worst, abs(a.p_stopped - b.p_stopped), abs(a.p_max - b.p_max),
                    abs(a.p_final - b.p_final))
    rep.add("DP agrees with path enumeration on 200 random instances",
            worst <= 1e-12, f"max |gap| {worst:.3e}")
    return rep


# ---------------------------------------------------------------------------
# Monte Carlo suite: the standard corpus at gamma = 0.999
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McInstance:
    law: IncrementLaw
    n: int
    x: float
    v: float
    seed: int
    y: Optional[float] = None


def mc_corpus() -> list[McInstance]:
    return [
        McInstance(TwoPointExtremal(1.0), 50, 8.0, math.sqrt(50 * 1.0000001), 20240101),
        McInstance(TwoPointExtremal(0.5), 20, 5.0, math.sqrt(10 * 1.0000001), 20240102),
        McInstance(TwoPointBounded(0.5), 20, 4.0, math.sqrt(10 * 1.0000001), 20240103),
        McInstance(DriftedTwoPoint(0.5, 0.1), 20, 4.0, math.sqrt(20 * 0.51 * 1.0000001), 20240104),
        McInstance(CenteredExponential(), 20, 6.0, math.sqrt(20.0), 20240105, y=3.0),
    ]


def applicable_checks(law: IncrementLaw, spec: EventSpec, n: int) -> list[tuple[str, bnd.LogProb]]:
    """The bounds of the bound table whose hypotheses the (law, event) pair
    meets.  Every bound needs x >= 0 and a mean <= 0 (within 1e-12), and with
    increments <= 1 every event variant sits inside the stopped event.  The
    law gives b = -(lower atom), a supermartingale at a mean below -1e-15, and
    for a truncated event the exact P(some step > y) and n P(xi > y), with an
    overflow term of 0: the event already holds the truncated variance budget."""
    truncated = spec.variant is EventVariant.TRUNCATED_ANY_K
    if spec.x < 0 or law.mean() > 1e-12 or not truncated and law.support_max > 1.0:
        return []  # none below 0 or at a positive drift; past 1 only the truncated ones
    inputs = dict(x=spec.x, v=spec.v, n=n)
    if truncated:
        per_step, p_max = exceedance_tail(law, spec.y, n)
        inputs.update(y=spec.y, p_exceed=p_max, sum_exceed=n * per_step, p_qc_exceed=0.0)
    else:
        inputs.update(b=-min(val for val, _ in law.atoms()), supermartingale=law.mean() < -1e-15)
    return [(e.name, bound)
            for e, bound, _ in bnd._evaluate(inputs, "truncated" if truncated else "stopped")]


@dataclass(frozen=True)
class BoundComparison:
    """Exact stopped-event probability against every applicable closed-form
    bound, with per-bound validity flags (reproduction data is the record)."""

    result: orc.ExactResult
    bound_values: dict[str, float]
    bound_ok: dict[str, bool]

    @property
    def valid(self) -> bool:
        return all(self.bound_ok.values())


def exact_vs_bound(law: IncrementLaw, n: int, x: float, v: float) -> BoundComparison:
    """The oracle's exact stopped-event probability of a two-point law against
    every bound `applicable_checks` admits for the stopped event, each within
    `oracle.COMPARISON_SLACK`.  A pair that admits no bound is refused with a
    ValueError: outside the hypotheses the bounds claim nothing."""
    checks = applicable_checks(law, EventSpec(x, v, EventVariant.STOPPED_ANY_K), n)
    if not checks:
        raise ValueError(f"no bound applies to {law.label()} at x={x!r}: the bounds "
                         f"need x >= 0, mean <= 0 and support <= 1")
    result = orc.exact_event_probability(orc.LatticeLaw.from_increment_law(law), n, x, v)
    values = {name: bound.value for name, bound in checks}
    ok = {name: result.p_stopped <= val + orc.COMPARISON_SLACK for name, val in values.items()}
    return BoundComparison(result, values, ok)


def suite_mc(trials: int = 10**6, gamma: float = 0.999) -> SuiteReport:
    rep = SuiteReport("mc")
    for inst in mc_corpus():
        label = f"{inst.law.label()} n={inst.n} x={inst.x:g}"
        if inst.y is None:
            nested = mc.nested_event_estimates(inst.law, inst.x, inst.v, inst.n, trials,
                                               inst.seed, gamma)
            rep.add(f"{label} per-path event nesting", nested.nesting_ok)
            # the stopped event sits inside the running max the range pair bounds
            est = nested.stopped
        else:
            label += f" truncated(y={inst.y:g})"
            spec = EventSpec(inst.x, inst.v, EventVariant.TRUNCATED_ANY_K, y=inst.y)
            est = mc.estimate_event(inst.law, spec, inst.n, trials, inst.seed, gamma)
        for name, bound in applicable_checks(inst.law, est.spec, inst.n):
            check = mc.verify_bound(est, bound)
            rep.add(f"{label} vs {name}", check.verdict == "PASS",
                    f"p_hat={est.p_hat:.3e} ci_low={est.ci_low:.3e} bound={bound.value:.3e}")
    return rep


SUITES = {
    "cumulant": suite_cumulant,
    "chain": suite_chain,
    "variational": suite_variational,
    "oracle": suite_oracle,
    "mc": suite_mc,
}


def run_suites(names: list[str], trials: int = 10**6) -> list[SuiteReport]:
    reports = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
        reports.append(suite_mc(trials) if name == "mc" else SUITES[name]())
    return reports
