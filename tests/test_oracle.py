"""Exact first-passage oracle: DP vs enumeration, closed-form cases, caps."""

import itertools
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from reference import exact_absorbed_cum, exact_hit
from smbounds import montecarlo as mc
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

    def test_atoms_are_kept_upper_atom_first(self):
        # as `TwoPoint.atoms` returns them, whatever order they are given in
        for atoms in (((1.0, 0.3), (-0.45, 0.7)), [(-0.45, 0.7), (1.0, 0.3)]):
            law = orc.LatticeLaw(atoms)
            assert law.atoms == prc.TwoPoint(1.0, -0.45, 0.3, 0.7, "t").atoms()
            assert law == orc.LatticeLaw(((1.0, 0.3), (-0.45, 0.7)))

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

    def test_answers_a_law_of_zero_second_moment(self):
        # m2 underflows to 0, so the budget binds at no step and every event
        # is first passage within n steps: x = 0 is reached by any path, the
        # upper atom by any path with an up step, 0.5 by none
        law = orc.LatticeLaw(((0.0, 0.5), (5e-324, 0.5)))
        assert law.m2 == 0.0
        sampled = prc.TwoPoint(5e-324, 0.0, 0.5, 0.5, "tiny")
        for n in range(1, 9):
            for x, want in ((0.0, 1.0), (5e-324, 1.0 - 0.5**n), (0.5, 0.0)):
                res = orc.exact_event_probability(law, n, x, 1.0)
                assert res.p_stopped == res.p_max == res.p_final == want
                assert orc.exact_event_probability(law, n, x, 1.0, method="enumerate") == res
                spec = prc.EventSpec(x, 1.0, prc.EventVariant.STOPPED_ANY_K)
                est = mc.estimate_event(sampled, spec, n, 4000, seed=n)
                assert est.ci_low <= want <= est.ci_high

    def test_negative_threshold(self):
        # paths (+1, .) and (-1, +1) touch a sum >= -0.5; (-1, -1) never does
        res = orc.exact_event_probability(RADEMACHER, 2, -0.5, math.sqrt(2.0))
        assert res.p_stopped == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("param, x, v", [
        ("x", math.inf, 2.0), ("x", -math.inf, 2.0), ("x", math.nan, 2.0),
        ("v", 1.0, math.inf), ("v", 1.0, math.nan),
    ])
    def test_rejects_non_finite_x_and_v(self, param, x, v):
        # with the messages of Monte Carlo's `EventSpec`
        message = {"x": f"x must be finite, got {x}", "v": f"v must be > 0, got {v}"}[param]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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


def _float_count_dp(law, n, x, start=(1, (1.0,))):
    """The count-state pass stepped one step at a time: new[j] = m[j]*pb +
    m[j-1]*pa, absorbing the counts j >= j*_k of `count_thresholds`.  It runs
    from step k0 on, given the masses over the counts after step k0 - 1 as
    start = (k0, masses); by default from step 1, with all mass at count 0."""
    (a, pa), (b, pb) = law.atoms
    thresholds = prc.count_thresholds(a, b, x, n).tolist()
    k0, m = start
    m, absorbed, absorbed_cum = np.array(m, dtype=float), 0.0, [0.0] * k0
    for k in range(k0, n + 1):
        if len(m):  # once no state is left, no step makes one
            # entry j is m[j]*pb + m[j-1]*pa, two rounded products and one
            # rounded add, with none of the pass's correlations or transfers
            new = np.empty(len(m) + 1)
            np.multiply(m, pb, out=new[:-1])
            new[-1] = 0.0
            new[1:] += m * pa
            cut = min(thresholds[k], len(new))
            # with b < 0 the thresholds never fall, so at most two states (both
            # at step 1) are absorbed at once, whose sum any order rounds alike
            assert len(new) - cut <= 2
            absorbed += math.fsum(new[cut:].tolist())
            m = new[:cut]
        absorbed_cum.append(absorbed)
    return absorbed_cum, m.tolist()


def _first_absorbing_step(law, n, x):
    """The first step k >= 1 at which some count reaches x, or n + 1."""
    (a, _), (b, _) = law.atoms
    thresholds = prc.count_thresholds(a, b, x, n)
    return next((k for k in range(1, n + 1) if thresholds[k] <= k), n + 1)


def _max_rel_gap(got, want):
    """The largest |got - want| / max(|got|, |want|) over the entries where
    either is a normal double."""
    got, want = np.asarray(got), np.asarray(want)
    scale = np.maximum(abs(got), abs(want))
    normal = scale >= sys.float_info.min
    return float(np.max(abs(got - want)[normal] / scale[normal], initial=0.0))


def _assert_within_the_pass_tolerances(result, reference):
    """A pass against a plain loop's (absorbed_cum, final): absorbed_cum
    within 1e-13 relative, the normal surviving masses within 5e-13, and a
    defect below 1e-12."""
    (absorbed_cum, final, defect), (ref_cum, ref_final) = result, reference
    assert len(absorbed_cum) == len(ref_cum) and len(final) == len(ref_final)
    assert _max_rel_gap(absorbed_cum, ref_cum) <= 1e-13
    assert _max_rel_gap(final, ref_final) <= 5e-13
    assert defect <= 1e-12


def _over_common_denominator(p, q):
    """Integers a, b and d with p = a/d and q = b/d exactly, for doubles p, q."""
    fp, fq = Fraction(p), Fraction(q)
    d = math.lcm(fp.denominator, fq.denominator)
    return fp.numerator * (d // fp.denominator), fq.numerator * (d // fq.denominator), d


def _exact_binomial_pmf(m, pa, pb):
    """Binomial(m, pa / (pa + pb)) pmf for the doubles pa and pb, exact in
    integers and rounded once per term."""
    a, b, _ = _over_common_denominator(pa, pb)
    total, term, pmf = (a + b)**m, b**m, []
    for j in range(m + 1):
        pmf.append(term / total)
        term = term * (m - j) * a // ((j + 1) * b)  # C(m, j + 1) a^(j+1) b^(m-j-1)
    return pmf


DP_LAWS = [RADEMACHER] + [orc.LatticeLaw.from_increment_law(prc.parse_law(spec))
                          for spec in ("extremal:0.5", "bounded:0.45", "drifted:0.5,0.1")]


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
            fa, fb = (Fraction(v) for v, _ in law.atoms)
            for n in (1, 5, 40, 120):
                x = float(rng.uniform(-1.0, 0.6 * n))
                absorbed_cum, final, _ = orc.first_passage_dp(law, n, x)
                ref_cum, ref_final = _reference_dp(law, n, x)
                sums = [j * fa + (n - j) * fb for j in range(len(final))]
                assert sums == sorted(ref_final)
                assert np.allclose(final, [ref_final[s] for s in sums], rtol=0, atol=1e-14)
                assert np.allclose(absorbed_cum, ref_cum, rtol=0, atol=1e-14)

    def test_the_pass_from_k0_is_within_tolerance_of_the_float_count_loop(self):
        # given the same Binomial(k0 - 1) start, the block pass rounds
        # differently from the plain loop, and is held to the whole-pass
        # tolerances; x = -1 absorbs both states of step 1, 0 absorbs one,
        # 1e9 none
        cases = [(law, n, x) for law in DP_LAWS for n in (1, 2, 5, 40, 300)
                 for x in (-1.0, 0.0, 1.0, 0.3 * n, float(n), 1e9)]
        # at the deep-oracle benchmark's horizon the thresholds of the two
        # non-dyadic laws leave int64: the float64 estimate and its exact
        # fallback place them
        n, x = 2000, 0.3 * 2000
        for law in DP_LAWS[2:]:
            (a, _), (b, _) = law.atoms
            nu, nw, q = prc._threshold_line(a, b, x)
            assert abs(nu + q - 1) + n * abs(nw) >= 1 << 63
            cases.append((law, n, x))
        for law, n, x in cases:
            (_, pa), (_, pb) = law.atoms
            k0 = _first_absorbing_step(law, n, x)
            start = (k0, orc._binomial_pmf(k0 - 1, pa, pb).tolist())
            _assert_within_the_pass_tolerances(orc.first_passage_dp(law, n, x),
                                               _float_count_dp(law, n, x, start))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 40, 300, 1000, 2000])
    def test_the_whole_pass_is_within_tolerance_of_the_loop_from_step_0(self, n):
        # the Binomial(k0 - 1) start rounds differently from k0 - 1 steps of
        # the loop; the largest gaps measured on this grid are 9.2e-14
        # (absorbed_cum) and 1.5e-13 (final), and the largest defect 1.0e-13
        laws = DP_LAWS + [TestDpVsEnumeration.LAWS[3]]
        rng = np.random.default_rng(n)
        xs = [-5.0, -1.0, 0.0, 0.05 * n, 0.3 * n, float(n), 1e9, *rng.uniform(-1.0, n, 4)]
        for law in laws:
            for x in xs:
                absorbed_cum, final, defect = orc.first_passage_dp(law, n, x)
                ref_cum, ref_final = _float_count_dp(law, n, x)
                assert len(absorbed_cum) == len(ref_cum) and len(final) == len(ref_final)
                assert _max_rel_gap(absorbed_cum, ref_cum) <= 1e-13
                assert _max_rel_gap(final, ref_final) <= 5e-13
                assert defect <= 1e-12

    def test_a_pass_that_absorbs_at_step_1_starts_from_one_state(self):
        # x <= a: k0 = 1, the start is [1.0], and the pass is held to the
        # whole-pass tolerances of the plain loop
        for law in DP_LAWS:
            (_, pa), (_, pb) = law.atoms
            assert orc._binomial_pmf(0, pa, pb).tolist() == [1.0]
            for n in (1, 5, 300):
                for x in (-1.0, 0.0):
                    assert _first_absorbing_step(law, n, x) == 1
                    _assert_within_the_pass_tolerances(orc.first_passage_dp(law, n, x),
                                                       _float_count_dp(law, n, x))

    @staticmethod
    def _check_against_the_exact_integer_pass(law, n, x):
        exact = np.array(exact_absorbed_cum(law, n, x))
        absorbed_cum = np.array(orc.first_passage_dp(law, n, x)[0])
        big = exact >= 1e-300  # below, the doubles lose digits to underflow
        assert np.all(abs(absorbed_cum[big] - exact[big]) <= 2e-14 * exact[big])

    @pytest.mark.parametrize("spec", ["extremal:0.5", "bounded:0.45", "drifted:0.5,0.1"])
    def test_absorbed_cum_is_within_2e_14_of_the_exact_integer_pass(self, spec):
        # the largest gap measured on this grid is 1.46e-14 (extremal:0.5,
        # n = 300, x = n)
        law = orc.LatticeLaw.from_increment_law(prc.parse_law(spec))
        for n in (40, 130, 300):
            for x in (0.05 * n, 0.3 * n, 0.61 * n, float(n)):
                self._check_against_the_exact_integer_pass(law, n, x)

    def test_a_band_wider_than_a_block_advances_in_chunks(self):
        # with both atoms positive the thresholds fall b / (a - b) counts a
        # step, so every one of the k0 > BLOCK_STEPS counts at the first
        # block can be absorbed within it: the band is wider than a block and
        # is split.  In a full block the chunks above the first lose all
        # their mass; in the last case's last block, cut short at n (28 steps
        # after s = 194, lo = 0, live = 133), they keep some, which the
        # defect sees
        steep = orc.LatticeLaw(((1.0, 0.3), (0.9, 0.7)))
        shallow = orc.LatticeLaw(((1.0, 0.1), (0.5643349998049643, 0.9)))
        for law, n, x in ((steep, 130, 60.0), (steep, 300, 90.0),
                          (shallow, 222, 146.37354867428687)):
            assert _first_absorbing_step(law, n, x) > orc.BLOCK_STEPS
            self._check_against_the_exact_integer_pass(law, n, x)
            assert orc.first_passage_dp(law, n, x)[2] <= 1e-12

    def test_a_cold_transfer_cache_gives_the_warm_bits(self):
        # the block weights are views into cached transfers, so building,
        # evicting and reusing the transfers must not move a bit
        def hexes(law, n, x):
            absorbed_cum, final, defect = orc.first_passage_dp(law, n, x)
            return [p.hex() for p in absorbed_cum], [p.hex() for p in final], defect.hex()

        for law in DP_LAWS + [orc.LatticeLaw(((1.0, 0.3), (0.9, 0.7)))]:
            for n in (40, 300, 2000):
                for x in (0.05 * n, 0.3 * n, float(n)):
                    orc._band_transfer.cache_clear()
                    cold = hexes(law, n, x)
                    assert hexes(law, n, x) == cold

    def test_a_pass_that_never_absorbs_is_the_binomial_pmf(self):
        # x = 1e9: k0 = n + 1, no step runs, and the surviving masses are the
        # Binomial(n, p_a) pmf
        for law in DP_LAWS:
            (_, pa), (_, pb) = law.atoms
            for n in (1, 40, 2000):
                assert _first_absorbing_step(law, n, 1e9) == n + 1
                absorbed_cum, final, defect = orc.first_passage_dp(law, n, 1e9)
                assert absorbed_cum == [0.0] * (n + 1)
                assert final == orc._binomial_pmf(n, pa, pb).tolist()
                assert defect <= 1e-15

    def test_a_budget_before_the_first_absorbing_step_stops_nothing(self):
        # k_max < k0: the pass over the budget's steps absorbs nothing
        for law in DP_LAWS:
            n, x = 40, 20.0
            v = math.sqrt(10 * law.m2 * (1 + 1e-9))  # k_max = 10
            assert prc.budget_steps(law.m2, n, v) == 10 < _first_absorbing_step(law, n, x)
            res = orc.exact_event_probability(law, n, x, v)
            assert (res.p_stopped, res.p_max, res.p_final) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("pa", [1e-6, 1 / 3, 1 - 1e-6])
    @pytest.mark.parametrize("m", [0, 1, 17, 48, 50, 2000])
    def test_binomial_pmf_at_extreme_probabilities(self, pa, m):
        # a RuntimeWarning fails the test; terms below 1e-300 may underflow.
        # Up to a block the stepped weights, the surviving column of a
        # one-count transfer that never absorbs, are held closer: the
        # largest gap measured here is 3.3e-15
        pmf = orc._binomial_pmf(m, pa, 1.0 - pa)
        assert len(pmf) == m + 1 and np.all(np.isfinite(pmf))
        exact = np.array(_exact_binomial_pmf(m, pa, 1.0 - pa))
        big = exact >= 1e-300
        assert np.allclose(pmf[big], exact[big], rtol=1e-12, atol=0)
        if 1 <= m <= orc.BLOCK_STEPS:
            never = np.full(m, m + 1, np.int64).tobytes()
            weights = orc._band_transfer(pa, 1.0 - pa, 1, never)[orc.BLOCK_STEPS:, 0]
            assert not weights.flags.writeable
            assert np.all(abs(weights[big] - exact[big]) <= 1e-14 * exact[big])

    def test_defect_is_the_correctly_rounded_one_within_1e_15(self):
        # the pairwise sum of the surviving masses moves the defect by about
        # an ulp of 1 from the one taken with math.fsum
        for law in DP_LAWS:
            for n in (1, 5, 300, 2000):
                for x in (-1.0, 0.0, 0.3 * n, float(n), 1e9):
                    absorbed_cum, final, defect = orc.first_passage_dp(law, n, x)
                    exact = abs(1.0 - absorbed_cum[-1] - math.fsum(final))
                    assert abs(defect - exact) <= 1e-15

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


class TestBlockEdges:
    """From its first absorbing step k0 the pass advances BLOCK_STEPS steps
    per block; a horizon inside a block cuts the last block short."""

    B = orc.BLOCK_STEPS
    LAWS = DP_LAWS + [TestDpVsEnumeration.LAWS[3]]
    XS = (2.0, 7.3, 20.0)

    def test_block_edges_are_within_tolerance_of_the_loop_from_step_0(self):
        for law in self.LAWS:
            for x in self.XS:
                k0 = _first_absorbing_step(law, 10**4, x)
                for n in (k0 + self.B - 1, k0 + self.B, k0 + self.B + 1, k0 + 2 * self.B + 1):
                    _assert_within_the_pass_tolerances(orc.first_passage_dp(law, n, x),
                                                       _float_count_dp(law, n, x))

    def test_every_budget_in_the_first_two_blocks_is_the_longer_pass_entry(self):
        # the pass cut at k_max reads the same threshold windows as a longer
        # pass, so its absorbed probability is that pass's entry k_max
        for law in self.LAWS:
            for x in self.XS:
                k0 = _first_absorbing_step(law, 10**4, x)
                n = k0 + 3 * self.B
                absorbed_cum = orc.first_passage_dp(law, n, x)[0]
                assert absorbed_cum[k0] > 0.0
                for k_max in range(k0, k0 + 2 * self.B + 2):
                    v = math.sqrt((k_max + 0.5) * law.m2)
                    assert prc.budget_steps(law.m2, n, v) == k_max
                    p = orc.exact_event_probability(law, n, x, v).p_stopped
                    assert p.hex() == absorbed_cum[k_max].hex()


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

    def test_mass_conservation_at_thirty_thousand_steps(self):
        # the law's probabilities sum to exactly 1, so the defect is rounding
        # alone: 2.5e-13, against 1.26e-12 when they missed 1 by 5.55e-17
        n = 3 * 10**4
        law = orc.LatticeLaw.from_increment_law(prc.TwoPointExtremal(0.5))
        _, _, defect = orc.first_passage_dp(law, n, 0.1 * n)
        assert defect <= 1e-12


def _binomial_tail(p: float, q: float, n: int, j0: int) -> float:
    """sum_{j >= j0} C(n, j) p^j q^(n - j) for the doubles p and q, exact in
    integers and rounded once: C(n, j0) p^j0 q^(n - j0) times
    1 + r_j0 (1 + r_j0+1 (1 + ... r_n-1)) with r_j = (n - j) p / ((j + 1) q)."""
    if j0 > n:
        return 0.0
    a, b, d = _over_common_denominator(p, q)
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
    """Known wrong answers of the linear-space oracle where the probability
    is below the smallest normal double.  The log-space oracle is to make
    both pass, and then drop the marks."""

    LAW = orc.LatticeLaw.from_increment_law(prc.TwoPointExtremal(0.5))

    def _p_stopped(self, n, x):
        return orc.exact_event_probability(self.LAW, n, x, math.sqrt(n * self.LAW.m2)).p_stopped

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="p_stopped is the subnormal 1.914e-314, right to about 10 digits")
    def test_no_subnormal_leaves_the_oracle(self):
        # the deep-oracle benchmark draws this instance (drifted:0.5,0.1 at
        # n = 2000, x = 600, v^2 = 0.3357 n m2, so k_max = 671)
        law = orc.LatticeLaw.from_increment_law(prc.parse_law("drifted:0.5,0.1"))
        n = 2000
        p = orc.exact_event_probability(law, n, 600.0, math.sqrt(0.3357 * n * law.m2)).p_stopped
        assert not 0.0 < p < sys.float_info.min

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="(1/3)^2000, the all-ones path, and the ~e^-846 tail at "
                              "n = 10^4, x = 0.3n both underflow to p_stopped = 0.0")
    def test_positive_probability_is_not_zero(self):
        probabilities = [self._p_stopped(n, x) for n, x in ((2000, 2000.0), (10**4, 0.3 * 10**4))]
        assert min(probabilities) > 0.0


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


@pytest.mark.parametrize("call, args, message", [
    (orc.first_passage_dp, (RADEMACHER, 0, 1.0), "n must be >= 1, got 0"),
])
def test_invalid_arguments_are_refused(call, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(*args)
