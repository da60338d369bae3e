"""Verification-suite plumbing: which bounds apply to a (law, event) pair."""

import math

import pytest

from smbounds import bounds as bnd
from smbounds import suites
from smbounds.processes import (
    CenteredExponential,
    DriftedTwoPoint,
    EventSpec,
    EventVariant,
    TwoPoint,
    TwoPointBounded,
)

CORE = ["hoeffding", "freedman", "bennett", "bernstein", "prohorov"]
RANGE = ["azuma_refined", "hoeffding_bounded"]


def names(law, x=2.0, v=3.0, n=10, variant=EventVariant.STOPPED_ANY_K, y=None):
    spec = EventSpec(x, v, variant, y=y)
    return [name for name, _ in suites.applicable_checks(law, spec, n)]


def test_martingale_gets_the_range_pair_at_any_b():
    assert names(TwoPointBounded(0.5)) == CORE + RANGE
    assert names(TwoPointBounded(1.5)) == CORE + RANGE


def test_supermartingale_range_pair_needs_b_at_most_1():
    assert names(DriftedTwoPoint(0.5, 0.25)) == CORE + RANGE  # b_eff = 0.75
    assert names(DriftedTwoPoint(1.0, 0.5)) == CORE  # b_eff = 1.5


def test_unbounded_law():
    assert names(CenteredExponential()) == []
    assert names(CenteredExponential(), variant=EventVariant.TRUNCATED_ANY_K,
                 y=3.0) == ["fuk_nagaev", "courbot"]


# atom 3 above y = 1 and below y = 4; mean 3/4 - 3/4 = 0
TALL = TwoPoint(3.0, -1.0, 0.25, 0.75, "tall")


@pytest.mark.parametrize("law, y", [(CenteredExponential(), 3.0), (TALL, 1.0), (TALL, 4.0)])
def test_truncation_pair_values(law, y):
    x, v, n = 6.0, math.sqrt(20.0), 20
    spec = EventSpec(x, v, EventVariant.TRUNCATED_ANY_K, y=y)
    checks = dict(suites.applicable_checks(law, spec, n))
    # the event holds the truncated budget, so Courbot's overflow term is 0
    want = bnd.courbot(x, y, v, n * law.exceed_prob(y), 0.0)
    assert checks["courbot"].log_value == want.log_value
    assert checks["fuk_nagaev"].log_value <= checks["courbot"].log_value


def test_negative_threshold_claims_nothing():
    assert names(TwoPointBounded(0.5), x=-1.0) == []


def test_range_pair_values():
    law = TwoPointBounded(0.5)
    spec = EventSpec(2.0, 3.0, EventVariant.MAX_WITH_FINAL_QC)
    checks = dict(suites.applicable_checks(law, spec, 10))
    # U_10(2, 0.5) = min(22.5, 4 (5 + 2/3)) = 22.5 on the range branch
    assert math.isclose(checks["azuma_refined"].log_value, -8.0 / 22.5, rel_tol=1e-15)


# mean +0.25: not a supermartingale difference, though bounded above by 1
DRIFTING_UP = TwoPoint(1.0, -0.5, 0.5, 0.5, "up")


def test_positive_mean_claims_nothing():
    assert names(DRIFTING_UP) == []
    assert names(DRIFTING_UP, variant=EventVariant.TRUNCATED_ANY_K, y=0.5) == []


def test_exact_vs_bound_refuses_what_admits_no_bound():
    for law in (DRIFTING_UP, TwoPoint(2.0, -2.0, 0.5, 0.5, "wide")):
        with pytest.raises(ValueError, match="no bound applies"):
            suites.exact_vs_bound(law, 5, 1.0, 2.0)


def test_corpus_laws_keep_their_lists():
    for law in suites._corpus_laws():
        assert law.mean() <= 1e-12
        assert names(law)[:5] == CORE
    for inst in suites.mc_corpus():
        assert inst.law.mean() <= 1e-12
        variant = EventVariant.STOPPED_ANY_K if inst.y is None else EventVariant.TRUNCATED_ANY_K
        assert names(inst.law, inst.x, inst.v, inst.n, variant, inst.y)


def test_exact_vs_bound_compares_with_the_applicable_list():
    for law, n, x, v in suites.oracle_corpus():
        comp = suites.exact_vs_bound(law, n, x, v)
        assert list(comp.bound_values) == names(law, x, v, n)
        assert comp.valid


def test_suite_mc_takes_every_bound_from_applicable_checks(monkeypatch):
    real = suites.applicable_checks
    returned = []

    def recording(law, spec, n):
        checks = real(law, spec, n)
        returned.append((f"{law.label()} n={n} x={spec.x:g}", [name for name, _ in checks]))
        return checks

    monkeypatch.setattr(suites, "applicable_checks", recording)
    rep = suites.suite_mc(trials=4096)
    labels = [c.label for c in rep.checks if not c.label.endswith("per-path event nesting")]
    want = [(prefix, name) for prefix, picked in returned for name in picked]
    assert len(returned) == len(suites.mc_corpus())
    assert len(labels) == len(want)
    for label, (prefix, name) in zip(labels, want):
        assert label.startswith(prefix) and label.endswith(f" vs {name}")


# laws that admit: every bound for the stopped event, the range pair at b > 1
# only for a martingale, nothing on an unbounded law's stopped event, and
# nothing at a positive mean
TABLE_LAWS = [TwoPointBounded(0.5), TwoPointBounded(1.5), DriftedTwoPoint(0.5, 0.25),
              DriftedTwoPoint(1.0, 0.5), CenteredExponential(), DRIFTING_UP]


@pytest.mark.parametrize("needs, event, gates, admitted", [
    ("", "stopped", True, [True, True, True, True, False, False]),
    ("b", "stopped", True, [True, True, True, False, False, False]),
    ("b", "stopped", False, [False] * 6),
    ("y", "truncated", True, [True, True, True, True, True, False]),
])
def test_a_table_entry_reaches_every_reader(monkeypatch, capsys, needs, event, gates, admitted):
    # one entry added to the table, with no other edit, is reported by the
    # bounds command, checked for exactly the laws its needs admit, and gates
    # the oracle suite; its bound, e^(-100 x), is below every exact probability
    from smbounds import cli

    dummy = bnd._Bound("dummy", needs, event, gates, (), lambda a: bnd.LogProb(-100.0 * a["x"]))
    monkeypatch.setattr(bnd, "_TABLE", bnd._TABLE + (dummy,))

    assert cli.main(["bounds", "--x", "1", "--v", "1", "--n", "10", "--b", "0.5", "--y", "2",
                     "--format", "csv"]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert row[:6] == ["1", "1", "10", "0.5" if needs == "b" else "", "2" if needs == "y" else "",
                       "dummy"]
    assert float(row[6]) == -100.0
    assert cli.main(["bounds", "--x", "1", "--v", "1", "--n", "10", "--format", "csv"]) == 0
    assert ("dummy" in capsys.readouterr().out) is (needs == "")

    truncated = event == "truncated"
    variant = EventVariant.TRUNCATED_ANY_K if truncated else EventVariant.STOPPED_ANY_K
    assert ["dummy" in names(law, variant=variant, y=0.5 if truncated else None)
            for law in TABLE_LAWS] == admitted
    other = EventVariant.STOPPED_ANY_K if truncated else EventVariant.TRUNCATED_ANY_K
    assert not any("dummy" in names(law, variant=other, y=None if truncated else 0.5)
                   for law in TABLE_LAWS)

    comp = suites.exact_vs_bound(TwoPointBounded(0.5), 10, 1.0, 3.0)
    gated = admitted[0] and not truncated
    assert ("dummy" in comp.bound_values) is gated
    assert comp.valid is not gated
    if gated:
        assert not suites.suite_oracle().checks[0].passed
