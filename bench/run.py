"""smbounds benchmark: one seeded workload per call, metrics on stdout.

Run from the repository root::

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

- ``sweep``       10^4-point grid through ``smbounds compare`` + tilt cross-checks
- ``oracle_deep`` exact first-passage DP at n = 300, 1000, 2000
- ``mc_short``    the Monte Carlo corpus, 2^20 paths per instance
- ``mc_long``     n = 500 Monte Carlo in full 2^16-path chunks

The package is imported from ``src/`` of the current directory, never from an
installed copy; without it the benchmark exits with code 2 and no result.
All load comes from this one process, which runs one single-threaded worker
process at a time (``bench/worker.py``); the worker calls the package in a
closed loop, each call waiting for the previous one.

Times are reported at a fixed nominal machine speed.  This benchmark was
built on a shared 2-vCPU VM whose speed drifts by 25% and more within
minutes, so the worker times a small speed canary (``workloads.CANARIES``,
independent of the package) before every step and scales each step's time by
nominal / measured canary time; setup probes are scaled the same way.  The
raw times are kept in the details.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``     median over fresh interpreters of the time from process
                  start to the workload's imports being done
- ``wall_s``      median duration of one pass (the workload's fixed op list)
- ``ops_per_s``   ops per pass / ``wall_s``; an op is a grid query (sweep), an
                  exact instance (oracle_deep) or an estimate call (MC)
- ``op_p50_ms``, ``op_tail_ms``  op latency at the median and at the
                  highest percentile with >= 10 samples beyond it in the
                  shortest run allowed (two passes), so the statistic is the
                  same on every run; a sweep query's latency is its compare
                  call's time over the call's grid points
- ``peak_rss_mb`` peak resident memory of the measuring worker

``--trace 1`` runs the workload twice, half the time each: untraced, then with
spans recorded around every call into the package's layers.  It prints the
per-layer metrics: busy and self seconds and counts per pass, per-call
microseconds of the core bounds, fresh-interpreter import splits, and the
tracing overhead.  Hit counts must be identical in the two halves.

Lines before the last are human-readable details: every metric with its
unit, ``fail_frac``, ``msteps_per_s`` (MC), the percentile and sample count
of ``op_tail_ms``, the machine and size facts, and why the workload exists.
The last line is the JSON result.  The full record is also written under
``bench/out/``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the benchmark's own module, next to this file)

WHY = {w["name"]: w["why"]
       for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.numpy_s": "s",
    "setup.scipy_s": "s",
    "setup.smbounds_s": "s",
    "cli.compare.busy_s": "s",
    "cli.compare.self_s": "s",
    "bounds.calls": "count",
    "bounds.busy_s": "s",
    **{f"bounds.{b}.us_per_call": "us"
       for b in ("hoeffding", "freedman", "bennett", "bernstein", "prohorov")},
    "cumulant.minimize_tilt.calls": "count",
    "cumulant.minimize_tilt.busy_s": "s",
    "cumulant.objective_evals": "count",
    "cumulant.cancellation_mismatches": "count",
    "processes.sample.busy_s": "s",
    "processes.event_hits.busy_s": "s",
    "processes.event_hits.calls": "count",
    "processes.bytes_sampled": "B",
    "montecarlo.estimate.busy_s": "s",
    "montecarlo.self_s": "s",
    "montecarlo.clopper_pearson.busy_s": "s",
    "montecarlo.chunks": "count",
    "montecarlo.paths": "count",
    "montecarlo.hits": "count",
    "montecarlo.oracle_disagreements": "count",
    **{f"oracle.first_passage_dp.n{t}.{b}.busy_s": "s"
       for t in workloads.ORACLE_TIERS for b in workloads.DP_BRANCHES},
    "oracle.self_s": "s",
    "oracle.final_states": "count",
    "oracle.mass_defect_max": "prob",
    "oracle.refusals": "count",
    "suites.applicable_checks.busy_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Fresh interpreters timed per run for ``setup_s`` and for the import split.
SETUP_PROBES = 5
SPLIT_PROBES = 3
#: Candidate tail percentiles, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Every run ends within this many seconds.
RUN_BUDGET = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def tail_percentile(samples: int) -> float:
    """Highest candidate percentile with at least 10 samples beyond it."""
    for p in PERCENTILES:
        if samples * (100.0 - p) / 100.0 >= 10.0:
            return p
    return PERCENTILES[-1]


def nearest_rank(sorted_values: list[float], p: float) -> float:
    k = max(1, math.ceil(p * len(sorted_values) / 100.0 - 1e-9))
    return sorted_values[k - 1]


def machine_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "llc_mb": None,
        "llc_level": None,
    }
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(cache.glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction" or not size:
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1], 1)
        size_bytes = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, size_bytes)
    if best is not None:
        facts["llc_level"], facts["llc_mb"] = best[0], best[1] / 2**20
    return facts


class Runner:
    """Starts the benchmark's child processes, one at a time, within the run budget."""

    def __init__(self, root: Path, workload: str) -> None:
        self.root = root
        self.workload = workload
        self.deadline = time.monotonic() + RUN_BUDGET
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.imports = ", ".join(workloads.IMPORTS[workload])

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        try:
            proc = subprocess.run(argv, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[1:3]} did not finish within the run budget") from exc
        if proc.returncode != 0:
            raise BenchError(f"{argv[1:3]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc

    def setup_seconds(self) -> tuple[float, float]:
        """Process start to the workload's imports done, in a fresh interpreter:
        (scaled to the nominal machine speed, as measured).  The child times
        the canary before importing; that time is not counted."""
        script = (f"import time\n{inspect.getsource(workloads.python_canary)}"
                  "c = []\n"
                  "for _ in range(3):\n"
                  "    t = time.monotonic(); python_canary(); c.append(time.monotonic() - t)\n"
                  f"import {self.imports}\n"
                  "print(time.monotonic(), sum(c), sorted(c)[1])\n")
        start = time.monotonic()
        proc = self._run([sys.executable, "-c", script])
        done, canary_total, canary = map(float, proc.stdout.split())
        raw = done - start - canary_total
        return raw * workloads.CANARIES["python"][1] / canary, raw

    def import_split(self) -> dict[str, float]:
        """Seconds of import work owned by numpy, scipy and smbounds, from
        ``-X importtime``; a module imported by one of them counts for it."""
        proc = self._run([sys.executable, "-X", "importtime", "-c", f"import {self.imports}"])
        rows = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|", 2)
            depth = (len(name) - len(name.lstrip())) // 2
            rows.append((depth, int(self_us), name.strip()))
        owners = {"numpy": 0.0, "scipy": 0.0, "smbounds": 0.0}
        stack: list[tuple[int, str]] = []  # (depth, owner) of open ancestors
        # importtime lists a module after its children; walk it backwards so
        # each module is seen before what it imported
        for depth, self_us, name in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            top = name.split(".")[0]
            owner = top if top in owners else (stack[-1][1] if stack else None)
            stack.append((depth, owner))
            if owner is not None:
                owners[owner] += self_us / 1e6
        return owners

    def worker(self, seed: int, seconds: float, traced: bool, tiny: bool) -> dict:
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                "--seed", str(seed), "--seconds", repr(seconds),
                "--workdir", str(HERE / "out" / self.workload)]
        if traced:
            argv.append("--traced")
        if tiny:
            argv.append("--tiny")
        out = json.loads(self._run(argv).stdout.strip().splitlines()[-1])
        package = Path(out["package"])
        if package != (self.root / "src" / "smbounds").resolve():
            raise BenchError(f"imported smbounds from {package}, not from this checkout")
        return out


def end_to_end(phase: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced phase, and the details behind them."""
    wall = statistics.median(phase["pass_s"])
    latencies = sorted(phase["latencies_s"])
    p_tail = tail_percentile(phase["samples_per_pass"] * workloads.MIN_PASSES)
    metrics = {
        "setup_s": statistics.median(scaled for scaled, _ in setups),
        "wall_s": wall,
        "ops_per_s": phase["ops_per_pass"] / wall,
        "op_p50_ms": 1e3 * nearest_rank(latencies, 50.0),
        "op_tail_ms": 1e3 * nearest_rank(latencies, p_tail),
        "peak_rss_mb": phase["peak_rss_mb"],
    }
    details = {
        "op_tail_percentile": p_tail,
        "latency_samples": len(latencies),
        "samples_beyond_tail": len(latencies) - math.ceil(p_tail * len(latencies) / 100 - 1e-9),
        "passes": phase["passes"],
        "pass_s": phase["pass_s"],
        "pass_raw_s": phase["pass_raw_s"],
        "wall_raw_s": statistics.median(phase["pass_raw_s"]),
        "canary": phase["canary"],
        "canary_median_s": phase["canary_median_s"],
        "setup_raw_s": [raw for _, raw in setups],
    }
    if phase["path_steps_per_pass"]:
        details["msteps_per_s"] = phase["path_steps_per_pass"] / wall / 1e6
    return metrics, details


def run(args: argparse.Namespace) -> dict:
    root = Path.cwd()
    if not (root / "src" / "smbounds" / "__init__.py").is_file():
        raise BenchError(f"no smbounds source under {root / 'src'}; run from the repository root")
    runner = Runner(root, args.workload)
    probes = 1 if args.tiny else SETUP_PROBES
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": WHY[args.workload],
              "machine": machine_facts()}
    if args.trace == 0:
        setups = [runner.setup_seconds() for _ in range(probes)]
        phase = runner.worker(args.seed, args.seconds, traced=False, tiny=args.tiny)
        metrics, details = end_to_end(phase, setups)
        attempted, failed, notes = phase["attempted"], phase["failed"], phase["notes"]
        units = END_TO_END
    else:
        splits = [runner.import_split() for _ in range(1 if args.tiny else SPLIT_PROBES)]
        plain = runner.worker(args.seed, args.seconds / 2, traced=False, tiny=args.tiny)
        traced = runner.worker(args.seed, args.seconds / 2, traced=True, tiny=args.tiny)
        metrics = dict(traced["layers"])
        for part in ("numpy", "scipy", "smbounds"):
            metrics[f"setup.{part}_s"] = statistics.median(s[part] for s in splits)
        metrics["trace.overhead_frac"] = (statistics.median(traced["pass_s"])
                                          / statistics.median(plain["pass_s"]) - 1.0)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        notes = plain["notes"] + traced["notes"]
        if plain["hits"] != traced["hits"]:
            failed += 1
            notes.append("hit counts differ between the untraced and traced runs")
        details = {"passes_untraced": plain["passes"], "passes_traced": traced["passes"],
                   "spans": traced["spans"]}
        phase = traced
        units = PER_LAYER
    details["fail_frac"] = failed / attempted
    missing = set(units) ^ set(metrics)
    if missing:
        raise BenchError(f"metric set differs from the declared one: {sorted(missing)}")
    record.update({
        "versions": phase["versions"],
        "facts": phase["facts"],
        "details": details,
        "latencies_s": phase["latencies_s"],
        "notes": notes,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    })
    llc = record["machine"]["llc_mb"]
    if "chunk_working_set_mb" in phase["facts"] and llc:
        record["facts"]["chunk_working_set_over_llc"] = phase["facts"]["chunk_working_set_mb"] / llc
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="smbounds benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size (for the benchmark's own test)")
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    out_dir = HERE / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    result = record["result"]
    print(f"workload {args.workload}: {record['why']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    # reported, not gated: fail_frac is 0 when the run is correct, and
    # msteps_per_s exists only on the Monte Carlo workloads
    details = record["details"]
    print(f"  {'fail_frac':<44} {details['fail_frac']:.6g} ratio")
    if "msteps_per_s" in details:
        print(f"  {'msteps_per_s':<44} {details['msteps_per_s']:.6g} Msteps/s")
    print("details " + json.dumps(record["details"]))
    print("facts " + json.dumps({"machine": record["machine"], "versions": record["versions"],
                                 **record["facts"]}))
    for note in record["notes"][:10]:
        print(f"FAIL {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
