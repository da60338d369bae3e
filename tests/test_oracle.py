"""Exact first-passage oracle: DP vs enumeration, closed-form cases, caps."""

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from reference import exact_hit
from smbounds import oracle as orc
from smbounds import processes as prc
from smbounds import suites
from smbounds.bounds import TailQuery, hoeffding

RADEMACHER = orc.LatticeLaw(((1.0, 0.5), (-1.0, 0.5)))


class TestLatticeLaw:
    def test_validation(self):
        with pytest.raises(ValueError):
            orc.LatticeLaw(())
        with pytest.raises(ValueError):
            orc.LatticeLaw(((1.0, 0.5), (1.0, 0.5)))  # duplicate values
        with pytest.raises(ValueError):
            orc.LatticeLaw(((1.0, 0.6), (-1.0, 0.5)))  # sums to 1.1
        with pytest.raises(ValueError):
            orc.LatticeLaw(((1.0, 1.0), (-1.0, 0.0)))  # zero probability

    @pytest.mark.parametrize("atoms", [
        ((1.0, math.nan), (-1.0, math.nan)),
        ((math.inf, 0.5), (-1.0, 0.5)),
        ((1.0, 0.5), (-math.inf, 0.5)),
        ((math.nan, 0.5), (-1.0, 0.5)),
    ])
    def test_rejects_non_finite_atoms(self, atoms):
        with pytest.raises(ValueError, match="finite"):
            orc.LatticeLaw(atoms)

    def test_from_increment_law(self):
        law = orc.LatticeLaw.from_increment_law(prc.TwoPointExtremal(0.5))
        assert law.m2 == pytest.approx(0.5, rel=1e-14)
        with pytest.raises(ValueError):
            orc.LatticeLaw.from_increment_law(prc.CenteredExponential())


class TestExactEventProbability:
    def test_double_step_reach(self):
        # only the (+1, +1) path reaches 2, and <X>_2 = 2 <= v^2
        res = orc.exact_event_probability(RADEMACHER, 2, 2.0, math.sqrt(2.0))
        assert res.p_stopped == pytest.approx(0.25, abs=1e-15)
        assert res.p_max == pytest.approx(0.25, abs=1e-15)
        assert res.p_final == pytest.approx(0.25, abs=1e-15)

    def test_budget_forbids_the_reach(self):
        # k_max = floor(1/1) = 1 and X_1 <= 1 < 2
        res = orc.exact_event_probability(RADEMACHER, 2, 2.0, 1.0)
        assert res.p_stopped == 0.0
        assert res.p_max == 0.0  # final budget 2 > 1

    def test_threshold_below_support(self):
        res = orc.exact_event_probability(RADEMACHER, 3, -1e6, 10.0)
        assert res.p_stopped == 1.0

    def test_zero_threshold_hits_positive_mass(self):
        law = orc.LatticeLaw.from_increment_law(prc.TwoPointExtremal(0.5))
        res = orc.exact_event_probability(law, 4, 0.0, math.sqrt(4 * 0.5 + 0.01))
        assert res.p_stopped >= 1.0 / 3.0  # P(xi_1 = +1) = 1/3

    def test_x_equals_n_is_the_all_ones_path(self):
        for s2 in (0.5, 1.0, 2.0):
            law = prc.TwoPointExtremal(s2)
            lat = orc.LatticeLaw.from_increment_law(law)
            n = 10
            v = math.sqrt(n * s2 * 1.0000001)
            res = orc.exact_event_probability(lat, n, float(n), v)
            want = (s2 / (1 + s2)) ** n
            assert res.p_stopped == pytest.approx(want, rel=1e-12, abs=0)
            # the extremal law attains the bound at x = n
            bound = hoeffding(TailQuery(float(n), math.sqrt(n * s2), n))
            assert res.p_stopped == pytest.approx(bound.value, rel=1e-12, abs=0)

    def test_x_beyond_n_impossible_for_bounded_laws(self):
        res = orc.exact_event_probability(RADEMACHER, 4, 5.0, 10.0)
        assert res.p_stopped == 0.0

    def test_rejects_zero_second_moment(self):
        law = orc.LatticeLaw(((0.0, 0.5), (5e-324, 0.5)))  # m2 underflows to 0
        with pytest.raises(ValueError):
            orc.exact_event_probability(law, 2, 0.5, 1.0)

    def test_negative_threshold(self):
        # paths (+1, .) and (-1, +1) touch a sum >= -0.5; (-1, -1) never does
        res = orc.exact_event_probability(RADEMACHER, 2, -0.5, math.sqrt(2.0))
        assert res.p_stopped == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("param, x, v", [
        ("x", math.inf, 2.0), ("x", -math.inf, 2.0), ("x", math.nan, 2.0),
        ("v", 1.0, math.inf), ("v", 1.0, math.nan),
    ])
    def test_rejects_non_finite_x_and_v(self, param, x, v):
        with pytest.raises(ValueError, match=f"^{param} must be finite"):
            orc.exact_event_probability(RADEMACHER, 4, x, v)
        if param == "x":
            with pytest.raises(ValueError, match="^x must be finite"):
                orc.first_passage_dp(RADEMACHER, 4, x)


class TestDpVsEnumeration:
    LAWS = [
        RADEMACHER,
        orc.LatticeLaw.from_increment_law(prc.TwoPointExtremal(0.5)),
        orc.LatticeLaw.from_increment_law(prc.DriftedTwoPoint(0.5, 0.25)),
        orc.LatticeLaw(((1.0, 0.3), (-0.45, 0.7))),        # off-lattice floats
    ]

    @pytest.mark.parametrize("method", ["dp", "enumerate"])
    def test_empty_horizon_is_refused(self, method):
        # the empty path would reach x = -1 at its end but never along the way
        with pytest.raises(ValueError, match="n must be >= 1"):
            orc.exact_event_probability(RADEMACHER, 0, -1.0, 1.0, method=method)

    def test_enumeration_horizon_cap(self):
        with pytest.raises(ValueError):
            orc.exact_event_probability(RADEMACHER, 26, 1.0, 10.0, method="enumerate")

    def test_dp_is_the_default_method(self):
        args = (RADEMACHER, 6, 2.0, math.sqrt(4.0))
        assert orc.exact_event_probability(*args) == orc.exact_event_probability(*args, method="dp")
        for method in ("auto", "DP"):
            with pytest.raises(ValueError, match="unknown method"):
                orc.exact_event_probability(*args, method=method)


def _reference_dp(law, n, x):
    """The state propagation as a plain dict loop over exact rational sums."""
    atoms = [(Fraction(v), p) for v, p in law.atoms]
    target = Fraction(x)
    dist = {Fraction(0): 1.0}
    absorbed_cum = [0.0]
    for _ in range(n):
        new_dist, hit = {}, 0.0
        for s, mass in dist.items():
            for a, p in atoms:
                if s + a >= target:
                    hit += mass * p
                else:
                    new_dist[s + a] = new_dist.get(s + a, 0.0) + mass * p
        absorbed_cum.append(absorbed_cum[-1] + hit)
        dist = new_dist
    return absorbed_cum, dist


def _float_count_dp(law, n, x):
    """The count-state pass as a plain Python-float loop: new[j] = m[j]*pb +
    m[j-1]*pa, absorbing the counts j >= j*_k of `count_thresholds`."""
    (a, pa), (b, pb) = sorted(law.atoms, reverse=True)
    thresholds = prc.count_thresholds(a, b, x, n).tolist()
    m, absorbed, absorbed_cum = [1.0], 0.0, [0.0]
    for k in range(1, n + 1):
        padded = [0.0] + m + [0.0]
        # once no state is left, no step makes one
        new = [padded[j + 1] * pb + padded[j] * pa for j in range(len(m) + 1)] if m else []
        cut = min(thresholds[k], len(new))
        # with b < 0 the thresholds never fall, so at most two states (both
        # at step 1) are absorbed at once, whose sum any order rounds alike
        assert len(new) - cut <= 2
        absorbed += math.fsum(new[cut:])
        m = new[:cut]
        absorbed_cum.append(absorbed)
    return absorbed_cum, m


class TestDpInternals:
    def test_mass_conservation(self):
        for law in TestDpVsEnumeration.LAWS:
            _, _, defect = orc.first_passage_dp(law, 12, 1.5)
            assert defect <= 1e-12

    def test_states_match_the_reference_loop(self):
        # the surviving counts j < live are the reference's states, whose
        # exact sums are j*a + (n - j)*b, hence the same absorption decisions;
        # masses are summed in another order, so they may differ by a few ulps
        # per step
        rng = np.random.default_rng(13)
        laws = TestDpVsEnumeration.LAWS + [
            orc.LatticeLaw.from_increment_law(prc.parse_law(spec))
            for spec in ("bounded:0.45", "drifted:0.5,0.1")]
        for law in laws:
            fa, fb = (Fraction(v) for v, _ in sorted(law.atoms, reverse=True))
            for n in (1, 5, 40, 120):
                x = float(rng.uniform(-1.0, 0.6 * n))
                absorbed_cum, final, _ = orc.first_passage_dp(law, n, x)
                ref_cum, ref_final = _reference_dp(law, n, x)
                sums = [j * fa + (n - j) * fb for j in range(len(final))]
                assert sums == sorted(ref_final)
                assert np.allclose(final, [ref_final[s] for s in sums], rtol=0, atol=1e-14)
                assert np.allclose(absorbed_cum, ref_cum, rtol=0, atol=1e-14)

    def test_bits_match_the_float_count_loop(self):
        # every state is the same two rounded products and one rounded add as
        # in the plain loop, so absorbed_cum and final agree bit for bit; x = -1
        # absorbs both states of step 1 (the slice sum, then the early break),
        # 0 absorbs one, 1e9 none
        laws = [RADEMACHER] + [orc.LatticeLaw.from_increment_law(prc.parse_law(spec))
                               for spec in ("extremal:0.5", "bounded:0.45", "drifted:0.5,0.1")]
        for law in laws:
            for n in (1, 2, 5, 40, 300):
                for x in (-1.0, 0.0, 1.0, 0.3 * n, float(n), 1e9):
                    absorbed_cum, final, _ = orc.first_passage_dp(law, n, x)
                    ref_cum, ref_final = _float_count_dp(law, n, x)
                    assert [v.hex() for v in absorbed_cum] == [v.hex() for v in ref_cum]
                    assert [v.hex() for v in final] == [v.hex() for v in ref_final]

    def test_nesting_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            law = TestDpVsEnumeration.LAWS[rng.integers(0, len(TestDpVsEnumeration.LAWS))]
            n = int(rng.integers(1, 12))
            x = float(rng.uniform(-0.5, n))
            v = math.sqrt(float(rng.uniform(0.2, 1.5)) * n * law.m2)
            res = orc.exact_event_probability(law, n, x, v)
            assert 0.0 <= res.p_final <= res.p_max + 1e-15
            assert res.p_max <= res.p_stopped + 1e-15
            assert res.p_stopped <= 1.0

    def test_state_cap_refusal(self, monkeypatch):
        # n + 1 count states exceed a shrunken cap even when the threshold is
        # out of reach and no mass is ever absorbed
        monkeypatch.setattr(orc, "STATE_CAP", 30)
        with pytest.raises(orc.StateSpaceError):
            orc.first_passage_dp(RADEMACHER, 40, 1e9)

    def test_off_lattice_three_atom_refusal(self):
        # only two-point laws have an exact DP, so three atoms are refused
        # when the law is built
        with pytest.raises(ValueError, match="exactly two atoms, got 3"):
            orc.LatticeLaw(((1.0, 0.25), (0.0, 0.25), (-0.45, 0.5)))
        # the same values on two atoms are exact step counts
        orc.exact_event_probability(orc.LatticeLaw(((1.0, 0.5), (-0.45, 0.5))), 4, 0.5, 2.0)

    def test_count_state_cap_refusal(self, monkeypatch):
        # the count states j = 0..n are refused before the first step, whether
        # or not any mass is absorbed
        monkeypatch.setattr(orc, "STATE_CAP", 100)
        orc.first_passage_dp(RADEMACHER, 99, 1.0)
        for x in (1.0, 1e9):
            with pytest.raises(orc.StateSpaceError):
                orc.first_passage_dp(RADEMACHER, 100, x)


def _rademacher_tail(n: int, m: int) -> float:
    """P(S_n >= m) for the simple random walk, exact from binomial counts."""
    k_min = max(0, -(-(m + n) // 2))
    return sum(math.comb(n, k) for k in range(k_min, n + 1)) / 2**n


class TestLargeHorizon:
    N = 2000

    @pytest.mark.parametrize("m", [1, 37, 90, 150])
    def test_rademacher_reflection_principle(self, m):
        # P(max_k S_k >= m) = P(S_n >= m) + P(S_n >= m + 1) on the integer walk
        res = orc.exact_event_probability(
            RADEMACHER, self.N, float(m), math.sqrt(self.N * 1.0000001))
        final = _rademacher_tail(self.N, m)
        assert res.p_stopped == pytest.approx(final + _rademacher_tail(self.N, m + 1),
                                              rel=1e-12, abs=0)
        assert res.p_final == pytest.approx(final, rel=1e-12, abs=0)

    def test_extremal_all_ones_path(self):
        n = 1000
        law = orc.LatticeLaw.from_increment_law(prc.TwoPointExtremal(1.0))
        res = orc.exact_event_probability(law, n, float(n), math.sqrt(n * 1.0000001))
        assert res.p_stopped == pytest.approx(2.0**-n, rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec", ["bounded:0.45", "drifted:0.5,0.1"])
    def test_mass_conservation_off_lattice(self, spec):
        law = orc.LatticeLaw.from_increment_law(prc.parse_law(spec))
        _, _, defect = orc.first_passage_dp(law, self.N, 0.3 * self.N)
        assert defect <= 1e-12

    def test_mass_conservation_at_ten_thousand_steps(self):
        n = 10**4
        law = orc.LatticeLaw.from_increment_law(prc.TwoPointExtremal(0.5))
        absorbed_cum, _, defect = orc.first_passage_dp(law, n, 0.1 * n)
        assert defect <= 1e-12
        assert 0.0 < absorbed_cum[-1] < 1.0


def _binomial_tail(p: float, q: float, n: int, j0: int) -> float:
    """sum_{j >= j0} C(n, j) p^j q^(n - j) for the doubles p and q, exact in
    integers and rounded once: C(n, j0) p^j0 q^(n - j0) times
    1 + r_j0 (1 + r_j0+1 (1 + ... r_n-1)) with r_j = (n - j) p / ((j + 1) q)."""
    if j0 > n:
        return 0.0
    fp, fq = Fraction(p), Fraction(q)
    d = math.lcm(fp.denominator, fq.denominator)
    a, b = fp.numerator * (d // fp.denominator), fq.numerator * (d // fq.denominator)
    num = den = 1
    for j in range(n - 1, j0 - 1, -1):
        num, den = (j + 1) * b * den + (n - j) * a * num, (j + 1) * b * den
    return math.comb(n, j0) * a**j0 * b**(n - j0) * num / (d**n * den)


def _count_dp_calls(monkeypatch) -> list:
    calls = []
    real = orc.first_passage_dp

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(orc, "first_passage_dp", counted)
    return calls


class TestOnePass:
    """p_final comes from the Binomial(n, p_a) tail, not a second DP pass."""

    N = 2000

    def _check_final_tail(self, spec, x):
        law = orc.LatticeLaw.from_increment_law(prc.parse_law(spec))
        (a, pa), (b, pb) = law.atoms
        res = orc.exact_event_probability(law, self.N, x, math.sqrt(1.1 * self.N * law.m2))
        j_star = int(prc.count_thresholds(a, b, x, self.N)[-1])
        exact = _binomial_tail(pa, pb, self.N, j_star)
        assert res.p_final == pytest.approx(exact, rel=1e-12, abs=0)
        return res.p_final

    @pytest.mark.parametrize("spec", ["extremal:0.5", "bounded:0.45", "drifted:0.5,0.1"])
    @pytest.mark.parametrize("frac", [0.05, 0.3, 0.5, 1.0])
    def test_final_tail_is_the_exact_binomial_tail(self, spec, frac):
        self._check_final_tail(spec, frac * self.N)

    def test_final_tail_above_one_half(self):
        assert self._check_final_tail("extremal:0.5", -10.0) > 0.5

    def test_defect_is_the_pass_defect(self):
        # the pass runs the k_max budget steps; a budget of 0 makes no pass
        rng = np.random.default_rng(17)
        for law in TestDpVsEnumeration.LAWS:
            for n in (1, 7, 300):
                x = float(rng.uniform(-1.0, 0.6 * n))
                for scale in (0.5, 1.1):
                    v = math.sqrt(scale * n * law.m2)
                    res = orc.exact_event_probability(law, n, x, v)
                    k_max = prc.budget_steps(law.m2, n, v)
                    want = orc.first_passage_dp(law, k_max, x)[2] if k_max else 0.0
                    assert res.defect == want
            res = orc.exact_event_probability(law, 6, 1.0, 2.0, method="enumerate")
            assert 0.0 <= res.defect <= 1e-15

    # the budget binds (the pass stops at k_max), never binds, or is empty
    @pytest.mark.parametrize("scale", [0.9, 1.1, 0.001])
    def test_one_dp_call_per_answer(self, monkeypatch, scale):
        calls = _count_dp_calls(monkeypatch)
        law = orc.LatticeLaw.from_increment_law(prc.TwoPointExtremal(0.5))
        orc.exact_event_probability(law, 300, 90.0, math.sqrt(scale * 300 * law.m2))
        horizons = {0.9: [270], 1.1: [300], 0.001: []}[scale]
        assert calls == [(law, k, 90.0) for k in horizons]

    def test_suite_oracle_makes_one_dp_call_per_instance(self, monkeypatch):
        # 224 corpus instances and 200 DP-vs-enumeration instances, less the
        # 13 random ones (n <= 2, v^2 < m2) whose budget covers no step
        calls = _count_dp_calls(monkeypatch)
        suites.suite_oracle()
        assert len(calls) == 411


class TestBudgetHorizon:
    """The DP stops at the budget's last step k_max; the thresholds j*_k for
    k <= k_max do not depend on n, so p_stopped is the full pass's entry."""

    @staticmethod
    def _check(law, n, x, v):
        res = orc.exact_event_probability(law, n, x, v)
        k_max = prc.budget_steps(law.m2, n, v)
        assert res.p_stopped == orc.first_passage_dp(law, n, x)[0][k_max]

    def test_bit_identical_on_the_corpus(self):
        for law, n, x, v in suites.oracle_corpus():
            self._check(orc.LatticeLaw.from_increment_law(law), n, x, v)

    @pytest.mark.parametrize("spec", ["extremal:0.5", "bounded:0.45", "drifted:0.5,0.1"])
    @pytest.mark.parametrize("n", [300, 1000, 2000])
    def test_bit_identical_at_binding_budgets(self, spec, n):
        law = orc.LatticeLaw.from_increment_law(prc.parse_law(spec))
        for scale in (0.1, 0.3, 0.6, 0.9, 0.999):
            self._check(law, n, 0.3 * n, math.sqrt(scale * n * law.m2))

    def test_the_cap_counts_budget_steps(self, monkeypatch):
        monkeypatch.setattr(orc, "STATE_CAP", 100)
        law = orc.LatticeLaw.from_increment_law(prc.TwoPointExtremal(0.5))
        far = orc.exact_event_probability(law, 10**6, 5.0, math.sqrt(50 * law.m2))
        near = orc.exact_event_probability(law, 50, 5.0, math.sqrt(50 * law.m2))
        assert far.p_stopped == near.p_stopped > 0.0
        assert far.p_max == far.p_final == 0.0
        with pytest.raises(orc.StateSpaceError):
            orc.exact_event_probability(law, 10**6, 5.0, math.sqrt(100 * law.m2))


def test_non_dyadic_boundary_value_is_exact():
    # 1 + 2 * (-0.45) is below 0.1 for the doubles 0.45 and 0.1, so one up
    # and two down steps end below x: p_stopped = p + (1 - p) p for the up
    # probability p, and p_final needs two up steps in three
    law = orc.LatticeLaw.from_increment_law(prc.parse_law("bounded:0.45"))
    res = orc.exact_event_probability(law, 3, 0.1, math.sqrt(3 * law.m2 * (1 + 1e-7)))
    assert res.p_stopped == pytest.approx(0.5243757431629014, abs=1e-15)
    (_, p), _ = law.atoms
    assert res.p_stopped == pytest.approx(p + (1 - p) * p, abs=1e-15)
    assert res.p_final == pytest.approx(p * p * (3 - 2 * p), abs=1e-15)


class TestPerPathReference:
    """Each of the oracle's probabilities is the sum, over all 2^n paths, of
    the path probabilities where `reference.exact_hit` decides the event from
    the path's exact partial sums; it shares only `budget_steps` with the DP."""

    VARIANTS = (prc.EventVariant.STOPPED_ANY_K, prc.EventVariant.MAX_WITH_FINAL_QC,
                prc.EventVariant.FINAL_ONLY)

    @pytest.mark.parametrize("n", [1, 3, 6, 9])
    def test_oracle_is_the_weighted_path_count(self, n):
        for law in suites._corpus_laws():
            m2 = law.second_moment()
            paths = [([val for val, _ in path], math.prod(p for _, p in path))
                     for path in itertools.product(law.atoms(), repeat=n)]
            for x in (0.1, 0.3 * n, 1.0, float(n)):
                for scale in (0.5, 1.0000001):
                    v = math.sqrt(n * m2 * scale)
                    res = orc.exact_event_probability(
                        orc.LatticeLaw.from_increment_law(law), n, x, v)
                    for variant, p in zip(self.VARIANTS, (res.p_stopped, res.p_max, res.p_final)):
                        spec = prc.EventSpec(x, v, variant)
                        want = math.fsum(prob for inc, prob in paths if exact_hit(inc, m2, spec))
                        assert p == pytest.approx(want, rel=0, abs=1e-12)


class TestDeepTailDefects:
    """Known wrong answers of the linear-space oracle on extremal:0.5 with
    v^2 = n m2, where the probability is below the smallest normal double.
    The log-space oracle is to make both pass, and then drop the marks."""

    LAW = orc.LatticeLaw.from_increment_law(prc.TwoPointExtremal(0.5))

    def _p_stopped(self, n, x):
        return orc.exact_event_probability(self.LAW, n, x, math.sqrt(n * self.LAW.m2)).p_stopped

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="p_stopped is the rounding residue 1.98e-321; the truth is ~e^-846")
    def test_no_subnormal_leaves_the_oracle(self):
        p = self._p_stopped(10**4, 0.3 * 10**4)
        assert not 0.0 < p < sys.float_info.min

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="(1/3)^2000, the all-ones path, underflows to p_stopped = 0.0")
    def test_positive_probability_is_not_zero(self):
        assert self._p_stopped(2000, 2000.0) > 0.0


class TestExactVsBound:
    def test_extremal_law_instance(self):
        comp = suites.exact_vs_bound(prc.TwoPointExtremal(1.0), 10, 3.0, math.sqrt(10.0))
        assert comp.valid
        assert comp.result.p_stopped <= comp.bound_values["hoeffding"] + 1e-12
        assert set(comp.bound_values) == {"hoeffding", "freedman", "bennett", "bernstein",
                                          "prohorov", "azuma_refined", "hoeffding_bounded"}

    def test_sharp_at_x_equals_n(self):
        # the all-ones path attains the bound when v^2 = n sigma^2
        s2 = 1.0
        n = 10
        law = prc.TwoPointExtremal(s2)
        comp = suites.exact_vs_bound(law, n, float(n), math.sqrt(n * s2 * 1.0000001))
        assert comp.valid
        assert comp.result.p_stopped == pytest.approx(2.0**-10, rel=1e-12, abs=0)

    def test_consistent_indicator_beyond_horizon(self):
        comp = suites.exact_vs_bound(prc.TwoPointExtremal(1.0), 4, 5.0, 10.0)
        assert comp.result.p_stopped == 0.0
        assert comp.bound_values["hoeffding"] == 0.0

    def test_rejects_hypothesis_violations(self):
        with pytest.raises(ValueError, match="no bound applies"):
            suites.exact_vs_bound(prc.TwoPoint(2.0, -2.0, 0.5, 0.5, "t"), 2, 1.0, 1.0)
        with pytest.raises(ValueError, match="no bound applies"):  # mean 0.85
            suites.exact_vs_bound(prc.TwoPoint(1.0, -0.5, 0.9, 0.1, "t"), 2, 1.0, 1.0)
