"""The benchmark's seeded workloads.

Each workload is a fixed list of steps built from ``--seed``; one pass runs
every step once, and a run repeats whole passes.  A step is one call into the
package (the op whose latency is measured), optional library calls that
complete it (timed as part of the pass, not of the op), and an untimed check
of the outputs.  The seed only chooses input values, never input sizes, so the
work per pass is the same for every seed.

Workload sizes here were picked on a 2-core, 8 GB machine so that one pass
takes 0.5-9 s.  ``tiny`` shrinks every size for the benchmark's own test.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

#: Chain slack, as in the package's ordering checks.
ORDER_SLACK = 1e-10
#: Closed forms must match direct tilt minimization this closely.
TILT_TOL = 1e-8
#: Thresholds below this sit in the cancellation regime of the log kernels.
CANCELLATION_X = 1e-6
#: Confidence of the MC intervals checked against the bounds (the mc suite's).
GAMMA = 0.999
#: Confidence of the MC interval that must contain the exact probability.
CROSS_GAMMA = 1.0 - 1e-6
#: Paths per Monte Carlo chunk in the package.
CHUNK = 1 << 16

#: Passes every run makes, whatever ``--seconds`` says; the latency
#: percentiles reported are fixed from this count (see run.py).
MIN_PASSES = 2

#: Modules each workload imports; ``setup_s`` times these in a fresh interpreter.
IMPORTS = {
    "sweep": ("smbounds.cli", "smbounds.cumulant", "smbounds.bounds"),
    "oracle_deep": ("smbounds.oracle", "smbounds.processes", "smbounds.bounds"),
    "mc_short": ("smbounds.montecarlo", "smbounds.processes", "smbounds.suites",
                 "smbounds.oracle"),
    "mc_long": ("smbounds.montecarlo", "smbounds.processes", "smbounds.suites",
                "smbounds.oracle"),
}

#: Horizon tiers of oracle_deep (full size) and the laws it runs.
ORACLE_TIERS = (300, 1000, 2000)
ORACLE_LAWS = ("extremal:0.5", "bounded:0.45", "drifted:0.5,0.1")
DP_BRANCHES = ("dyadic", "nondyadic")


@dataclass
class Verdict:
    """Outcome of checking one step: how many items it stands for, how many
    failed, what went wrong, the hit counts (MC), and per-pass counters."""

    attempted: int
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    hits: Optional[tuple] = None
    counts: dict[str, float] = field(default_factory=dict)


@dataclass
class Step:
    label: str
    layer: str  # span name of the op
    run: Callable[[], Any]
    check: Callable[[Any, Any], Verdict]
    weight: int = 1  # ops the call answers; 0 = not an op (a cross-check)
    follow: Optional[Callable[[Any], Any]] = None
    path_steps: int = 0  # paths x horizon simulated by the op


@dataclass
class Plan:
    name: str
    steps: list[Step]
    precheck: Callable[[], Verdict]
    dp_name: Callable[[tuple], str]
    facts: dict[str, Any]
    canary: str = "python"  # the CANARIES entry whose speed tracks this workload's

    @property
    def ops_per_pass(self) -> int:
        return sum(s.weight for s in self.steps)

    @property
    def samples_per_pass(self) -> int:
        return sum(1 for s in self.steps if s.weight)

    @property
    def path_steps_per_pass(self) -> int:
        return sum(s.path_steps for s in self.steps)


# ---------------------------------------------------------------------------
# speed canaries
# ---------------------------------------------------------------------------
#
# The machine this benchmark was built on is a shared 2-vCPU VM whose speed
# drifts by 25% and more within minutes (thread CPU time drifts with it, so it
# is the host, not scheduling).  A canary is a small fixed computation, timed
# before every step; each step's time is scaled by the canary's nominal time
# over its measured time nearby, which reports times at the nominal machine
# speed.  The canaries do not touch the package, so a change to the package
# still shows in full.  Interpreter-bound work tracks the Python canary
# (scaled drift ~2% against ~25% raw); numpy-bound Monte Carlo tracks the
# numpy canary less closely (~7% against ~13% raw).


def python_canary() -> None:
    """Dict updates and float adds, the mix of the bound kernels and the DP."""
    d: dict[int, float] = {}
    for i in range(20000):
        k = i % 97
        d[k] = d.get(k, 0.0) + i * 0.5


def numpy_canary() -> None:
    """Uniform draws, a two-point map and a cumsum, the mix of an MC chunk."""
    import numpy as np

    u = np.random.Generator(np.random.Philox(7)).random(1 << 17)
    np.cumsum(np.where(u < 0.5, 1.0, -1.0)).sum()


#: canary -> (function, its time in seconds on the quiet reference machine)
CANARIES = {
    "python": (python_canary, 2.4e-3),
    "numpy": (numpy_canary, 2.9e-3),
}


def _no_precheck() -> Verdict:
    return Verdict(attempted=0)


def _is_dyadic(values) -> bool:
    """Atoms on a coarse binary lattice (the oracle's exact integer branch)."""
    return all(Fraction(v).denominator <= 1 << 20 for v in values)


def dp_name_for(tiers: dict[int, int]) -> Callable[[tuple], str]:
    """Span name of a first_passage_dp call: horizon tier and lattice branch."""

    def name(args: tuple) -> str:
        law, n = args[0], args[1]
        branch = "dyadic" if _is_dyadic(v for v, _ in law.atoms) else "nondyadic"
        return f"oracle.first_passage_dp.n{tiers.get(n, n)}.{branch}"

    return name


def derive_seed(seed: int, *path: int) -> int:
    """Instance seed from the workload seed and the instance's position."""
    text = ":".join(str(p) for p in (seed,) + path)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _chain_ok(logs: dict[str, float]) -> bool:
    s = ORDER_SLACK
    return (logs["hoeffding"] <= logs["freedman"] + s
            and logs["freedman"] <= logs["bennett"] + s
            and logs["bennett"] <= logs["bernstein"] + s
            and logs["hoeffding"] <= logs["prohorov"] + s
            and max(logs.values()) <= 0.0)


def _compare_check(out: Path, points: int, digests: dict) -> Callable[[Any, Any], Verdict]:
    """Check a compare call: exit code 0, five rows per point, the ordering
    chain at every point; later passes must write the same bytes."""

    def check(rc, _followed) -> Verdict:
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digests.get(out) == digest and rc == 0:
            return Verdict(attempted=points)
        notes = [] if rc == 0 else [f"{out.name}: compare exited {rc}"]
        rows = list(csv.DictReader(data.decode().splitlines()))
        by_point: dict[tuple, dict[str, float]] = {}
        verdicts: dict[tuple, set] = {}
        for row in rows:
            key = (row["x"], row["v"], row["n"])
            by_point.setdefault(key, {})[row["bound_name"]] = float(row["log_value"])
            verdicts.setdefault(key, set()).add(row["verdict"])
        bad = sum(1 for key, logs in by_point.items()
                  if len(logs) != 5 or not _chain_ok(logs) or verdicts[key] != {"PASS"})
        bad += max(0, points - len(by_point))
        if bad:
            notes.append(f"{out.name}: ordering chain fails at {bad} of {points} points")
        if digests.setdefault(out, digest) != digest:
            notes.append(f"{out.name}: output differs from the first pass")
            bad = max(bad, 1)
        return Verdict(attempted=points, failed=bad if rc == 0 else points, notes=notes)

    return check


def _build_sweep(seed: int, tiny: bool, workdir: Path) -> Plan:
    from smbounds import bounds as bnd
    from smbounds import cli
    from smbounds import cumulant as cml

    rng = random.Random(seed)
    n_count, v_count, x_count, tilt_points = (3, 3, 12, 16) if tiny else (20, 10, 52, 256)
    ns = {1, 2, 5, 10, 100, 10**4, 10**6}
    ns = set(sorted(ns)[:n_count])
    while len(ns) < n_count:
        ns.add(round(math.exp(rng.uniform(math.log(3), math.log(1e6)))))
    # v = 3e4 with x ~ 1e-10 is the cancellation regime of the log kernels
    vs = [3.0e4] + [math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
                    for _ in range(v_count - 1)]
    steps = []
    digests: dict = {}
    grid = []
    for i, n in enumerate(sorted(ns)):
        xs = {0.0, 0.3 * n, 0.7 * n, float(n)}
        xs |= {10.0 ** rng.uniform(-12.0, -9.0) for _ in range(3)}
        while len(xs) < x_count:
            xs.add(rng.uniform(0.0, n))
        grid += [(x, v, n) for v in vs for x in sorted(xs)]
        path = workdir / f"grid{i}.cfg"
        path.write_text(f"x = {','.join(repr(x) for x in sorted(xs))}\n"
                        f"v = {','.join(repr(v) for v in vs)}\n"
                        f"n = {n}\n")
        out = workdir / f"compare{i}.csv"
        argv = ["compare", "--grid", str(path), "--out", str(out)]
        points = len(xs) * len(vs)
        steps.append(Step(f"compare n={n}", "cli.compare", lambda argv=argv: cli.main(argv),
                          _compare_check(out, points, digests), weight=points))

    subset = rng.sample([p for p in grid if 0.0 < p[0] < p[2]], tilt_points)

    def run_tilt():
        evals = [0]
        outcomes = []
        for x, v, n in subset:
            t, v2 = v * v / n, v * v

            def horizon(lam):
                evals[0] += 1
                return -lam * x + n * cml.cgf_bound(lam, t)

            def linear(lam):
                evals[0] += 1
                return -lam * x + cml.cumulant_bound_linear(lam, v2)

            for kind, objective, closed in (
                    ("hoeffding", horizon, lambda: bnd.hoeffding(bnd.TailQuery(x, v, n))),
                    ("freedman", linear, lambda: bnd.freedman(x, v))):
                try:
                    _, val = cml.minimize_tilt(objective, 1.0)
                    gap = abs(val - closed().log_value)
                except RuntimeError as exc:  # minimize_tilt refuses a non-unimodal objective
                    gap = exc
                outcomes.append((kind, x, v, n, gap))
        return evals[0], outcomes

    def check_tilt(result, _followed) -> Verdict:
        evals, outcomes = result
        verdict = Verdict(attempted=len(outcomes), counts={
            "cumulant.objective_evals": evals, "cumulant.cancellation_mismatches": 0})
        for kind, x, v, n, gap in outcomes:
            if isinstance(gap, float) and gap <= TILT_TOL:
                continue
            if x < CANCELLATION_X:
                # at x ~ 1e-10 and n >= 1e4 the objective is not unimodal at
                # the 1e-12 level and minimize_tilt refuses it: a known
                # weakness of the log kernels, counted here, not failed
                verdict.counts["cumulant.cancellation_mismatches"] += 1
            else:
                verdict.failed += 1
                verdict.notes.append(f"tilt {kind} x={x!r} v={v!r} n={n}: {gap}")
        return verdict

    steps.append(Step("tilt cross-check", "cumulant.cross_check", run_tilt, check_tilt,
                      weight=0))
    facts = {"grid_points": len(grid), "tilt_points": len(subset)}
    return Plan("sweep", steps, _no_precheck, dp_name_for({}), facts)


# ---------------------------------------------------------------------------
# oracle_deep
# ---------------------------------------------------------------------------


def _exact_check(lat, n: int, x: float, v: float, label: str) -> Callable[[Any, Any], Verdict]:
    """Nesting of the three events, and the exact stopped probability below
    every closed-form bound (+ COMPARISON_SLACK)."""
    from smbounds import bounds as bnd
    from smbounds import oracle as orc

    def check(res, _followed) -> Verdict:
        q = bnd.TailQuery(x, v, n)
        bound_values = {
            "hoeffding": bnd.hoeffding(q).value,
            "freedman": bnd.freedman(x, v).value,
            "bennett": bnd.bennett(x, v).value,
            "bernstein": bnd.bernstein(x, v).value,
            "prohorov": bnd.prohorov(x, v).value,
        }
        notes = [f"{label}: p_stopped {res.p_stopped!r} above {name} {val!r}"
                 for name, val in bound_values.items()
                 if res.p_stopped > val + orc.COMPARISON_SLACK]
        if not (res.p_final <= res.p_max + 1e-15 and res.p_max <= res.p_stopped + 1e-15):
            notes.append(f"{label}: event nesting fails")
        return Verdict(attempted=1, failed=int(bool(notes)), notes=notes)

    return check


def _build_oracle(seed: int, tiny: bool, workdir: Path) -> Plan:
    from smbounds import oracle as orc
    from smbounds.processes import parse_law

    rng = random.Random(seed)
    tiers = {t: (t // 10 if tiny else t) for t in ORACLE_TIERS}
    per_tier = {300: 4, 1000: 2, 2000: 1}
    steps = []
    defect_cases = []
    for spec in ORACLE_LAWS:
        lat = orc.LatticeLaw.from_increment_law(parse_law(spec))
        for tier, n in tiers.items():
            for i in range(per_tier[tier]):
                # budgets that bind (k_max < n) cost one DP pass; budgets that
                # never bind add the free final-tail pass.  Only the smallest
                # tier has the second kind, so the pass stays near 9 s.
                binding = tier != 300 or i % 2 == 0
                scale = rng.uniform(0.3, 0.9) if binding else rng.uniform(1.01, 2.0)
                x, v = 0.3 * n, math.sqrt(n * lat.m2 * scale)
                label = f"{spec} n={n} v={v:.6g}"
                steps.append(Step(
                    label, "oracle.exact",
                    lambda lat=lat, n=n, x=x, v=v: orc.exact_event_probability(lat, n, x, v),
                    _exact_check(lat, n, x, v, label)))
                if tier == 300:
                    defect_cases.append((lat, n, x))

    enum_cases = []
    for _ in range(8 if tiny else 24):
        lat = orc.LatticeLaw.from_increment_law(parse_law(rng.choice(ORACLE_LAWS)))
        n = rng.randint(1, 12)
        enum_cases.append((lat, n, rng.uniform(-1.0, 0.9 * n),
                           math.sqrt(rng.uniform(0.3, 1.4) * n * lat.m2)))

    def precheck() -> Verdict:
        """DP against path enumeration (n <= 12) and DP mass conservation."""
        verdict = Verdict(attempted=len(enum_cases) + len(defect_cases))
        for lat, n, x, v in enum_cases:
            a = orc.exact_event_probability(lat, n, x, v, method="dp")
            b = orc.exact_event_probability(lat, n, x, v, method="enumerate")
            gap = max(abs(a.p_stopped - b.p_stopped), abs(a.p_max - b.p_max),
                      abs(a.p_final - b.p_final))
            if gap > 1e-12:
                verdict.failed += 1
                verdict.notes.append(f"dp vs enumerate n={n} x={x!r}: gap {gap:.3e}")
        for lat, n, x in defect_cases:
            _, _, defect = orc.first_passage_dp(lat, n, x)
            if defect > 1e-12:
                verdict.failed += 1
                verdict.notes.append(f"mass defect {defect:.3e} at n={n}")
        return verdict

    facts = {"horizons": sorted(tiers.values()), "laws": list(ORACLE_LAWS),
             "enumeration_checks": len(enum_cases)}
    return Plan("oracle_deep", steps, precheck, dp_name_for({n: t for t, n in tiers.items()}),
                facts)


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McCase:
    """One estimate call: the law, event parameters, and what it estimates."""

    law: Any
    n: int
    x: float
    v: float
    trials: int
    seed: int
    kind: str  # "nested", "stopped", "truncated", or "courbot_max"
    y: Optional[float] = None


def _mc_step(case: McCase, exact: Optional[tuple]) -> Step:
    """An estimate call, its bound verdicts, and its checks.

    ``exact`` holds the oracle's (stopped, max, final) probabilities for a
    two-point law; each estimated event must have it inside its 1 - 1e-6
    interval, and misses are counted as oracle disagreements."""
    from smbounds import bounds as bnd
    from smbounds import montecarlo as mc
    from smbounds import suites
    from smbounds.processes import EventSpec, EventVariant, exceedance_tail

    law, n, x, v, trials, seed = case.law, case.n, case.x, case.v, case.trials, case.seed
    label = f"{law.label()} n={n} x={x:g} {case.kind} seed={seed}"

    if case.kind == "nested":
        def run():
            return mc.nested_event_estimates(law, x, v, n, trials, seed, GAMMA)

        def estimates(res):
            return {"stopped": res.stopped, "max": res.max_qc, "final": res.final}
    else:
        if case.kind == "stopped":
            spec = EventSpec(x, v, EventVariant.STOPPED_ANY_K)
        elif case.kind == "truncated":
            spec = EventSpec(x, v, EventVariant.TRUNCATED_ANY_K, y=case.y)
        else:  # the running maximum under the three-term truncation bound
            spec = EventSpec(x, v, EventVariant.MAX_WITH_FINAL_QC)

        def run():
            return mc.estimate_event(law, spec, n, trials, seed, GAMMA)

        def estimates(res):
            return {case.kind: res}

    def follow(res):
        est = estimates(res)
        if case.kind == "courbot_max":
            per_step, _ = exceedance_tail(law, case.y, n)
            bound = bnd.courbot(x, case.y, v, n * per_step, 0.0)
            return [("courbot", mc.verify_bound(res, bound).verdict)]
        target = est.get("stopped") or est[case.kind]
        verdicts = []
        for name, bound in suites.applicable_checks(law, target.spec, n):
            if name in ("azuma_refined", "hoeffding_bounded") and "max" in est:
                verdicts.append((name, mc.verify_bound(est["max"], bound).verdict))
            else:
                verdicts.append((name, mc.verify_bound(target, bound).verdict))
        return verdicts

    def check(res, verdicts) -> Verdict:
        est = estimates(res)
        hits = tuple(e.hits for e in est.values())
        notes = [f"{label}: {name} {verdict}" for name, verdict in verdicts if verdict != "PASS"]
        if not verdicts:
            notes.append(f"{label}: no applicable bound")
        if case.kind == "nested" and not res.nesting_ok:
            notes.append(f"{label}: event nesting fails on some path")
        disagreements = 0
        if exact is not None:
            for event, e in est.items():
                p = exact[("stopped", "max", "final").index(event)]
                lo, hi = mc.clopper_pearson(e.hits, e.trials, CROSS_GAMMA)
                disagreements += not lo <= p <= hi
        return Verdict(attempted=1, failed=int(bool(notes)), notes=notes, hits=hits, counts={
            "montecarlo.hits": sum(hits), "montecarlo.oracle_disagreements": disagreements})

    return Step(label, "montecarlo.estimate", run, check, follow=follow,
                path_steps=trials * n)


def _exact_reference(case: McCase) -> Optional[tuple]:
    from smbounds import oracle as orc

    if case.law.atoms() is None or case.kind not in ("nested", "stopped"):
        return None
    lat = orc.LatticeLaw.from_increment_law(case.law)
    res = orc.exact_event_probability(lat, case.n, case.x, case.v)
    return res.p_stopped, res.p_max, res.p_final


def _mc_plan(name: str, cases: list[McCase]) -> Plan:
    references: dict[McCase, Optional[tuple]] = {}
    steps = []
    for case in cases:
        key = replace(case, trials=0, seed=0)
        if key not in references:
            references[key] = _exact_reference(case)
        steps.append(_mc_step(case, references[key]))
    n_max = max(c.n for c in cases)
    paths = min(max(c.trials for c in cases), CHUNK)
    facts = {
        "estimate_calls": len(cases),
        "chunk_paths": paths,
        "max_horizon": n_max,
        # one chunk holds the uniform draws, the increments and the partial
        # sums as float64 (paths x n each) -- computed, not measured
        "chunk_array_mb": paths * n_max * 8 / 1e6,
        "chunk_working_set_mb": 3 * paths * n_max * 8 / 1e6,
    }
    return Plan(name, steps, _no_precheck, dp_name_for({}), facts, canary="numpy")


def _build_mc_short(seed: int, tiny: bool, workdir: Path) -> Plan:
    from smbounds import suites
    from smbounds.processes import TwoPointBounded

    calls, trials = (1, 1 << 12) if tiny else (4, 1 << 18)
    cases = []
    for i, inst in enumerate(suites.mc_corpus()):
        for c in range(calls):
            s = derive_seed(seed, i, c)
            if inst.y is None:
                cases.append(McCase(inst.law, inst.n, inst.x, inst.v, trials, s, "nested"))
            else:
                cases.append(McCase(inst.law, inst.n, inst.x, inst.v, trials, s, "truncated",
                                    inst.y))
                # the corpus's running-max event for the three-term bound
                v_max = math.sqrt(2 * inst.n * inst.law.second_moment())
                cases.append(McCase(inst.law, inst.n, inst.x, v_max, trials, s, "courbot_max",
                                    inst.y))
    # Non-dyadic atoms at the boundary: the path (-0.45, -0.45, +1) sums to
    # 0.09999999999999998 under float cumsum, so Monte Carlo misses a path the
    # oracle's tolerance-merged states count, and this case disagrees with
    # the oracle.  It is kept so the disagreement count shows when it is fixed.
    law = TwoPointBounded(0.45)
    cases.append(McCase(law, 3, 0.1, math.sqrt(3 * law.second_moment() * (1 + 1e-7)),
                        trials * calls, derive_seed(seed, 99), "nested"))
    return _mc_plan("mc_short", cases)


def _build_mc_long(seed: int, tiny: bool, workdir: Path) -> Plan:
    from smbounds.processes import TwoPointExtremal

    rng = random.Random(seed)
    n, trials = (50, 1 << 10) if tiny else (500, CHUNK)
    law = TwoPointExtremal(1.0)
    m2 = law.second_moment()
    # budget never binds: all three events, k scanned to n
    x_free = float(round(rng.uniform(0.08, 0.12) * n))
    v_free = math.sqrt(n * m2 * (1 + 1e-7))
    # k_max = n/2: the stopped event only
    x_half = float(round(rng.uniform(0.04, 0.06) * n))
    v_half = math.sqrt((n // 2) * m2 * (1 + 1e-7))
    # three one-chunk calls on the first instance and one two-chunk call on
    # the second, so the median op is a mid-sample of one kind of call
    cases = [McCase(law, n, x_free, v_free, trials, derive_seed(seed, 0, c), "nested")
             for c in range(3)]
    cases.append(McCase(law, n, x_half, v_half, 2 * trials, derive_seed(seed, 1), "stopped"))
    return _mc_plan("mc_long", cases)


BUILDERS = {
    "sweep": _build_sweep,
    "oracle_deep": _build_oracle,
    "mc_short": _build_mc_short,
    "mc_long": _build_mc_long,
}


WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, tiny: bool, workdir: Path) -> Plan:
    return BUILDERS[name](seed, tiny, workdir)
