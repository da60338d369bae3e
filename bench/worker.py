"""One measured phase of one workload, in its own process.

``run.py`` starts this once per phase (untraced, or traced) with the package
source on ``PYTHONPATH``.  It builds the workload from the seed, runs the
untimed pre-checks, then repeats whole passes in a closed loop -- each call
waits for the previous one -- for about ``--seconds`` and at least
``workloads.MIN_PASSES`` passes.  It prints one JSON object with the raw timings,
counts and check results; ``run.py`` turns those into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import NO_PARENT, Tracer, install

#: No new pass starts after this many multiples of ``--seconds``.
HARD_STOP = 4.0


def _layer_metrics(tracer: Tracer, passes: int, counts: dict) -> dict:
    """Per-pass layer numbers from the spans, the tracer's counters and the
    counts the checks extracted."""
    dur, self_time = tracer.durations()
    names = [tracer.names[c] for c in tracer.name]
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    bounds_busy = 0.0
    bounds_calls = 0
    for i, name in enumerate(names):
        busy[name] = busy.get(name, 0.0) + dur[i]
        own[name] = own.get(name, 0.0) + self_time[i]
        calls[name] = calls.get(name, 0) + 1
        parent = tracer.parent[i]
        if name.startswith("bounds.") and not (
                parent != NO_PARENT and names[parent].startswith("bounds.")):
            bounds_busy += dur[i]
            bounds_calls += 1

    def per_pass(value: float) -> float:
        return value / passes

    m = {
        "cli.compare.busy_s": per_pass(busy.get("cli.compare", 0.0)),
        "cli.compare.self_s": per_pass(own.get("cli.compare", 0.0)),
        "bounds.calls": per_pass(bounds_calls),
        "bounds.busy_s": per_pass(bounds_busy),
    }
    for b in ("hoeffding", "freedman", "bennett", "bernstein", "prohorov"):
        key = f"bounds.{b}"
        m[f"{key}.us_per_call"] = 1e6 * busy[key] / calls[key] if key in calls else 0.0
    m.update({
        "cumulant.minimize_tilt.calls": per_pass(calls.get("cumulant.minimize_tilt", 0)),
        "cumulant.minimize_tilt.busy_s": per_pass(busy.get("cumulant.minimize_tilt", 0.0)),
        "cumulant.objective_evals": counts.get("cumulant.objective_evals", 0),
        "cumulant.cancellation_mismatches": counts.get("cumulant.cancellation_mismatches", 0),
        "processes.sample.busy_s": per_pass(busy.get("processes.sample", 0.0)),
        "processes.event_hits.busy_s": per_pass(busy.get("processes.event_hits", 0.0)),
        "processes.event_hits.calls": per_pass(calls.get("processes.event_hits", 0)),
        "processes.bytes_sampled": per_pass(tracer.counters["processes.bytes_sampled"]),
        "montecarlo.estimate.busy_s": per_pass(busy.get("montecarlo.estimate", 0.0)),
        "montecarlo.self_s": per_pass(own.get("montecarlo.estimate", 0.0)),
        "montecarlo.clopper_pearson.busy_s":
            per_pass(busy.get("montecarlo.clopper_pearson", 0.0)),
        "montecarlo.chunks": per_pass(calls.get("processes.sample", 0)),
        "montecarlo.paths": per_pass(tracer.counters["montecarlo.paths"]),
        "montecarlo.hits": counts.get("montecarlo.hits", 0),
        "montecarlo.oracle_disagreements": counts.get("montecarlo.oracle_disagreements", 0),
    })
    for tier in workloads.ORACLE_TIERS:
        for branch in workloads.DP_BRANCHES:
            key = f"oracle.first_passage_dp.n{tier}.{branch}"
            m[f"{key}.busy_s"] = per_pass(busy.get(key, 0.0))
    m.update({
        "oracle.self_s": per_pass(own.get("oracle.exact", 0.0)),
        "oracle.final_states": per_pass(tracer.counters["oracle.final_states"]),
        "oracle.mass_defect_max": tracer.maxima["oracle.mass_defect_max"],
        "oracle.refusals": counts.get("oracle.refusals", 0),
        "suites.applicable_checks.busy_s":
            per_pass(busy.get("suites.applicable_checks", 0.0)),
    })
    return m


def _run_step(step, tracer):
    """Run one step; returns (op seconds, step seconds, result, follow-up, error)."""
    from smbounds.oracle import StateSpaceError

    result = followed = error = None
    root = tracer.begin_op("step") if tracer else None
    op = tracer.open(step.layer) if tracer else None
    t0 = time.perf_counter()
    try:
        result = step.run()
    except StateSpaceError as exc:
        error = exc
    except Exception:  # a failing op is counted, and the run goes on
        error = traceback.format_exc(limit=3)
    t1 = time.perf_counter()
    if tracer:
        tracer.close(op)
    if error is None and step.follow is not None:
        try:
            followed = step.follow(result)
        except Exception:
            error = traceback.format_exc(limit=3)
    t2 = time.perf_counter()
    if tracer:
        tracer.end_op(root)
    return t1 - t0, t2 - t0, result, followed, error


def _scales(canary_s: list[float], nominal: float) -> list[float]:
    """Per-step speed scale: nominal canary time over the median of the five
    canary timings centred on the step."""
    return [nominal / statistics.median(canary_s[max(0, i - 2):i + 3])
            for i in range(len(canary_s))]


def measure(plan, seconds: float, tracer) -> dict:
    from smbounds.oracle import StateSpaceError

    canary, nominal = workloads.CANARIES[plan.canary]
    pre = plan.precheck()
    attempted, failed, notes = pre.attempted, pre.failed, list(pre.notes)
    # one row per step run: (pass, op seconds, step seconds, weight)
    rows: list[tuple[int, float, float, int]] = []
    canary_s: list[float] = []
    pass_raw: list[float] = []
    first_hits = first_counts = None
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if (len(pass_raw) >= workloads.MIN_PASSES
                and elapsed + statistics.median(pass_raw) > seconds):
            break
        if pass_raw and elapsed > HARD_STOP * seconds:
            break
        total, hits, counts = 0.0, [], {}
        for step in plan.steps:
            t = time.perf_counter()
            canary()
            canary_s.append(time.perf_counter() - t)
            op_s, step_s, result, followed, error = _run_step(step, tracer)
            rows.append((len(pass_raw), op_s, step_s, step.weight))
            total += step_s
            if error is None:
                verdict = step.check(result, followed)
            else:
                verdict = workloads.Verdict(attempted=max(step.weight, 1),
                                            failed=max(step.weight, 1),
                                            notes=[f"{step.label}: {error}"])
                if isinstance(error, StateSpaceError):
                    verdict.counts["oracle.refusals"] = 1
            attempted += verdict.attempted
            failed += verdict.failed
            notes += verdict.notes
            hits.append(verdict.hits)
            for key, value in verdict.counts.items():
                counts[key] = counts.get(key, 0) + value
        pass_raw.append(total)
        if first_hits is None:
            first_hits, first_counts = hits, counts
        elif hits != first_hits:
            failed += 1
            notes.append(f"pass {len(pass_raw)}: hit counts differ from the first pass")
    pass_s = [0.0] * len(pass_raw)
    latencies = []
    for (index, op_s, step_s, weight), scale in zip(rows, _scales(canary_s, nominal)):
        pass_s[index] += step_s * scale
        if weight:
            latencies.append(op_s * scale / weight)
    out = {
        "passes": len(pass_s),
        "pass_s": pass_s,
        "pass_raw_s": pass_raw,
        "canary": plan.canary,
        "canary_median_s": statistics.median(canary_s),
        "latencies_s": latencies,
        "ops_per_pass": plan.ops_per_pass,
        "samples_per_pass": plan.samples_per_pass,
        "path_steps_per_pass": plan.path_steps_per_pass,
        "attempted": attempted,
        "failed": failed,
        "notes": notes[:20],
        "hits": first_hits,
        "counts": first_counts,
    }
    if tracer is not None:
        out["layers"] = _layer_metrics(tracer, len(pass_s), first_counts)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    import numpy
    import scipy

    import smbounds

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    plan = workloads.build(args.workload, args.seed, args.tiny, workdir)
    tracer = None
    if args.traced:
        tracer = Tracer()
        install(tracer, plan.dp_name)
    out = measure(plan, args.seconds, tracer)
    if tracer is not None:
        tracer.save(str(workdir / "spans.npz"))
        out["spans"] = len(tracer.start)
    out.update({
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "facts": plan.facts,
        "package": str(Path(smbounds.__file__).resolve().parent),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
