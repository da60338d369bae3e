"""Acceptance gate: every criterion at its stated tolerance and time budget.

Criteria 1-5 and 8-10 read their checks from the `verify` suites, each run
once per session; their time limits apply to the whole suite run.  Each test
prints one `ACCEPTANCE <k> PASS/FAIL` line (visible with -s, or on failure);
run `pytest tests/test_acceptance.py -v -s` for the full report.
"""

import functools
import re
import time

from smbounds import cli
from smbounds import suites


def _report(num, desc, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status} [{elapsed:6.2f}s / limit {limit:g}s] {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < limit, f"criterion {num} over budget: {elapsed:.2f}s >= {limit}s"


@functools.cache
def _suite(name):
    """One run of `suites.SUITES[name]`: its checks by label, and its wall time."""
    start = time.perf_counter()
    rep = suites.SUITES[name]()
    return {c.label: c for c in rep.checks}, time.perf_counter() - start


def _gate(num, desc, name, prefixes, limit):
    """Criterion `num` passes when, for each prefix, exactly one check of suite
    `name` has a label starting with it, and that check passed.  Returns the
    matched checks in prefix order."""
    checks, elapsed = _suite(name)
    found = [[c for label, c in checks.items() if label.startswith(p)] for p in prefixes]
    failed = [p for p, cs in zip(prefixes, found) if len(cs) != 1 or not cs[0].passed]
    details = "; ".join(f"{c.label}: {c.detail}" if c.detail else c.label
                        for cs in found for c in cs)
    _report(num, f"{desc} [{name} suite: {details}]"
                 + (f" (failed: {failed})" if failed else ""), not failed, elapsed, limit)
    return [cs[0] for cs in found]


def _count(check):
    """The first integer in a check's label: the number of points it covered."""
    return int(re.search(r"\d+", check.label).group())


def test_criterion_1_dominance_chain():
    chain, = _gate(1, "dominance chain H <= F <= B1 <= B2", "chain", ["ordering chain on "], 5.0)
    assert _count(chain) >= 10**4


def test_criterion_2_limit_and_monotonicity():
    _gate(2, "n=1e6 limit within 1e-3 of the horizon-free form; nondecreasing in n", "chain",
          ["bound nondecreasing in the horizon n", "large-n limit "], 5.0)


def test_criterion_3_variational_identities():
    _gate(3, "closed forms match golden-section minima", "variational",
          ["closed form equals tilt minimization (horizon-n bound)",
           "closed form equals tilt minimization (horizon-free bound)"], 10.0)


def test_criterion_4_reduction_identity():
    red, = _gate(4, "independent-case reduction", "variational",
                 ["independent-case reduction identity ("], 2.0)
    assert _count(red) >= 500


def test_criterion_5_mgf_sharpness():
    _gate(5, "extremal two-point MGF attains the estimate", "cumulant",
          ["MGF sharpness on the extremal law"], 2.0)


def test_criterion_6_oracle_validity():
    start = time.perf_counter()
    rep = suites.suite_oracle()
    elapsed = time.perf_counter() - start
    failed = [c.label for c in rep.checks if not c.passed]
    _report(6, "exact oracle corpus: probabilities below bounds, DP == enumeration"
               + (f" (failed: {failed})" if failed else ""),
            rep.passed, elapsed, 60.0)


def test_criterion_7_monte_carlo_validity():
    start = time.perf_counter()
    rep = suites.suite_mc(trials=10**6, gamma=0.999)
    elapsed = time.perf_counter() - start
    failed = [c.label for c in rep.checks if not c.passed]
    _report(7, f"Monte Carlo corpus at 1e6 trials, gamma=0.999 ({len(rep.checks)} checks)"
               + (f" (failed: {failed})" if failed else ""),
            rep.passed, elapsed, 600.0)


def test_criterion_8_azuma_branch_claim():
    _gate(8, "branch identity 4(nb+x/3) < n(1+b)^2 iff x < (3/4)n(1-b)^2", "variational",
          ["denominator branch point ", "float branch picker "], 2.0)


def test_criterion_9_cumulant_analysis():
    _gate(9, "finite-difference shape, ratio decrease, linear and quadratic envelopes",
          "cumulant", ["concavity in t ", "strict increase in t ", "t -> bound/t nonincreasing",
                       "linear envelope ", "quadratic envelope "], 5.0)


def test_criterion_10_bennett_inverse_form():
    _gate(10, "threshold level/3 + v sqrt(2 level) attains e^-level", "variational",
          ["inverse threshold "], 1.0)


def test_criterion_11_cli_reproducibility(tmp_path):
    start = time.perf_counter()
    ok = True

    def replay(save_args, command):
        cfg = tmp_path / f"{command}-{len(save_args)}.cfg"
        out1 = tmp_path / f"{command}-a.out"
        out2 = tmp_path / f"{command}-b.out"
        assert cli.main(save_args + ["--save-config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main([command, "--config", str(cfg), "--out", str(out2)]) == 0
        return out1.read_bytes() == out2.read_bytes()

    ok &= replay(["bounds", "--x", "1.5", "--v", "0.8", "--n", "12",
                  "--b", "0.4", "--y", "2", "--format", "json"], "bounds")
    grid = tmp_path / "grid.cfg"
    grid.write_text("x = 0,0.5,1,2\nv = 0.5,1\nn = 1,2,10\n")
    ok &= replay(["compare", "--grid", str(grid), "--format", "csv"], "compare")
    ok &= replay(["simulate", "--law", "drifted:0.5,0.1", "--event", "stopped",
                  "--x", "3", "--v", "4", "--n", "15", "--trials", "50000",
                  "--seed", "424242", "--format", "json"], "simulate")
    elapsed = time.perf_counter() - start
    _report(11, "three CLI runs replay byte-identically from saved configs",
            ok, elapsed, 60.0)
