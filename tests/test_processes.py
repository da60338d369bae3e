"""Increment-law zoo: moments, truncation, sampling, and event logic."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import exact_hit
from smbounds import montecarlo as mc
from smbounds import processes as prc
from smbounds import suites

ZOO = [
    prc.TwoPointExtremal(0.5),
    prc.TwoPointExtremal(1.0),
    prc.TwoPointBounded(0.5),
    prc.TwoPointBounded(1.0),
    prc.DriftedTwoPoint(0.5, 0.1),
    prc.CenteredExponential(),
]


class TestLawConstruction:
    def test_extremal_atoms(self):
        law = prc.TwoPointExtremal(0.25)
        # 1 - 0.8 = 0.19999999999999996, not 0.2: the pair sums to exactly 1
        assert law.atoms() == ((1.0, 1.0 - 0.8), (-0.25, 0.8))
        assert law.mean() == pytest.approx(0.0, abs=1e-15)
        assert law.second_moment() == pytest.approx(0.25, rel=1e-15)

    def test_bounded_second_moment(self):
        assert prc.TwoPointBounded(0.5).second_moment() == pytest.approx(0.5, rel=1e-15)

    def test_drifted_atoms_and_moments(self):
        law = prc.DriftedTwoPoint(0.5, 0.1)
        (hi, p_hi), (lo, p_lo) = law.atoms()
        assert (hi, lo) == (0.9, -0.6)
        assert (p_hi, p_lo) == pytest.approx((1 / 3, 2 / 3), rel=1e-15)
        assert law.mean() == pytest.approx(-0.1, abs=1e-15)
        assert law.second_moment() == pytest.approx(0.51, rel=1e-14)

    def test_factory_probabilities_sum_to_one_and_keep_the_mean(self):
        # P(-b) = 1/(1+b) is kept and P(1) = 1 - P(-b), exact by Sterbenz for
        # b <= 1 and rounded to nearest above, so the float sum is 1.0 and the
        # mean 1 - (1+b) P(-b) is off by three units at most; b/(1+b) and
        # 1/(1+b) missed 1 by 5.55e-17 for most b (-8.3e-17 at 0.3), and
        # 1 - b/(1+b) put the mean of extremal:1e12 at +2.2e-5
        rng = random.Random(40)
        bs = [0.3, 0.45, 0.5, 1.0, 2.0, 1e12] + [10.0 ** rng.uniform(-12.0, 12.0) for _ in range(500)]
        for b in bs:
            delta = b * rng.random()
            for law, drift in ((prc.TwoPointExtremal(b), 0.0), (prc.TwoPointBounded(b), 0.0),
                               (prc.DriftedTwoPoint(b, delta), delta)):
                assert law.p_hi + law.p_lo == 1.0, law
                if b <= 1.0:
                    assert Fraction(law.p_hi) + Fraction(law.p_lo) == 1, law
                assert law.p_lo == 1.0 / (1.0 + b), law
                assert abs(law.mean() + drift) <= 4.0 * 2.0**-53 * (1.0 + drift), law

    def test_validation(self):
        # each error names the parameter the caller passed
        with pytest.raises(ValueError, match="^sigma2 must"):
            prc.TwoPointExtremal(0.0)
        with pytest.raises(ValueError, match="^b must"):
            prc.TwoPointBounded(-1.0)
        with pytest.raises(ValueError, match="^b must"):
            prc.TwoPointBounded(math.inf)
        with pytest.raises(ValueError, match="^b must"):
            prc.DriftedTwoPoint(0.0, 0.0)
        with pytest.raises(ValueError, match="^delta must"):
            prc.DriftedTwoPoint(0.5, 0.6)  # delta > b

    @pytest.mark.parametrize("args, field", [
        ((math.inf, -1.0, 0.5, 0.5), "hi must be finite"),
        ((1.0, -math.inf, 0.5, 0.5), "lo must be finite"),
        ((1.0, -1.0, math.nan, 0.5), "p_hi must be finite"),
        ((1.0, -1.0, 0.5, math.inf), "p_lo must be finite"),
        ((1.0, 1.0, 0.5, 0.5), "hi must be > lo"),
        ((-1.0, 1.0, 0.5, 0.5), "hi must be > lo"),
        ((1.0, -1.0, 0.0, 1.0), "p_hi must be > 0"),
        ((1.0, -1.0, 1.5, -0.5), "p_lo must be > 0"),
        ((1.0, -1.0, 0.7, 0.7), "p_hi \\+ p_lo must be 1"),
        ((1.0, -1.0, 0.5, 0.5 - 2e-12), "p_hi \\+ p_lo must be 1"),
    ])
    def test_two_point_validates_itself(self, args, field):
        with pytest.raises(ValueError, match=f"^{field}"):
            prc.TwoPoint(*args, "bad")

    def test_two_point_accepts_the_sum_tolerance(self):
        prc.TwoPoint(1.0, -1.0, 0.5, 0.5 - 5e-13, "near")  # within 1e-12 of 1

    def test_drifted_law_with_an_infinite_lower_atom_is_refused(self):
        # -b - delta overflows to -inf for b = delta = 9e307
        with pytest.raises(ValueError, match="^lo must be finite"):
            prc.DriftedTwoPoint(9e307, 9e307)
        with pytest.raises(ValueError, match="lo must be finite"):
            prc.parse_law("drifted:9e307,9e307")

    def test_parse_law_round_trip(self):
        for law in ZOO:
            assert prc.parse_law(law.label()) == law
        with pytest.raises(ValueError):
            prc.parse_law("gaussian:1")
        with pytest.raises(ValueError):
            prc.parse_law("drifted:0.5")

    def test_constructors_build_one_law_type(self):
        for s in (0.25, 0.45, 1.0, 3.7):
            laws = [prc.TwoPointExtremal(s), prc.TwoPointBounded(s), prc.DriftedTwoPoint(s, 0.0)]
            assert all(type(law) is prc.TwoPoint for law in laws)
            assert laws[0].atoms() == laws[1].atoms() == laws[2].atoms()
            assert [law.label() for law in laws] == [f"extremal:{s:g}", f"bounded:{s:g}",
                                                      f"drifted:{s:g},0"]
            # hashable, so records that hold a law can key dicts: equal atoms,
            # distinct labels, and a parsed label finds its own law
            index = {law: i for i, law in enumerate(laws)}
            assert len(index) == 3
            assert [index[prc.parse_law(law.label())] for law in laws] == [0, 1, 2]

    def test_labels_are_short_where_exact(self):
        law = prc.TwoPointExtremal(0.1234567)
        assert law.label() == "extremal:0.1234567"
        assert prc.parse_law(law.label()) == law
        assert prc.DriftedTwoPoint(0.5, 1 / 3).label() == "drifted:0.5,0.3333333333333333"
        assert prc.DriftedTwoPoint(0.5, 0.1).label() == "drifted:0.5,0.1"

    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_labels_round_trip_on_finite_positive_floats(self, b, fraction):
        assume(math.isfinite(b + b * fraction))
        for law in (prc.TwoPointExtremal(b), prc.TwoPointBounded(b),
                    prc.DriftedTwoPoint(b, b * fraction)):
            assert prc.parse_law(law.label()) == law


class TestMoments:
    def test_truncated_below_support_top(self):
        assert prc.TwoPointBounded(0.5).truncated_second_moment(2.0) == pytest.approx(0.5)
        # only the -sigma2 atom survives truncation at y = 0.5
        assert prc.TwoPointExtremal(1.0).truncated_second_moment(0.5) == pytest.approx(0.5)

    def test_truncated_tends_to_full_variance(self):
        for law in ZOO:
            full = law.second_moment()
            assert law.truncated_second_moment(1e6) == pytest.approx(full, abs=1e-9)

    def test_cexp_truncated_closed_form(self):
        # E[(Z-1)^2 1{Z <= c}] = 1 - e^{-c} (c^2 + 1)
        law = prc.CenteredExponential()
        for y in (0.5, 1.0, 3.0, 10.0):
            c = y + 1.0
            want = 1.0 - math.exp(-c) * (c * c + 1.0)
            assert law.truncated_second_moment(y) == pytest.approx(want, rel=1e-12)

    def test_exceedance(self):
        per, p_max = prc.exceedance_tail(prc.TwoPointBounded(0.5), 1.0, 5)
        assert per == 0.0 and p_max == 0.0
        per, p_max = prc.exceedance_tail(prc.CenteredExponential(), 3.0, 5)
        assert per == pytest.approx(math.exp(-4.0), rel=1e-14)
        assert p_max == pytest.approx(1.0 - (1.0 - math.exp(-4.0)) ** 5, rel=1e-12)
        s2 = 0.7
        per, _ = prc.exceedance_tail(prc.TwoPointExtremal(s2), 0.5, 1)
        assert per == pytest.approx(s2 / (1 + s2), rel=1e-14)

    def test_cexp_exact_mgf_matches_mpmath(self):
        # E[e^{lam (Z-1)}] for Z ~ Exp(1), integrated at 40 digits
        mpmath = pytest.importorskip("mpmath")
        law = prc.CenteredExponential()
        with mpmath.workdps(40):
            for lam in (0.0, 0.25, 0.5, 0.9):
                ref = mpmath.quad(lambda z: mpmath.exp(lam * (z - 1) - z), [0, 1, mpmath.inf])
                assert prc.exact_mgf(law, lam) == pytest.approx(float(ref), rel=1e-12)
        assert prc.exact_mgf(law, 1.0) == math.inf
        assert prc.exact_mgf(law, 2.0) == math.inf


class TestSampling:
    N_BIG = 10**6

    def test_rademacher_case(self):
        law = prc.TwoPointBounded(1.0)
        inc = law.sample(prc.make_generator(1), (self.N_BIG,))
        assert set(np.unique(inc)) == {-1.0, 1.0}
        assert abs(inc.mean()) < 4.0 / math.sqrt(self.N_BIG)

    def test_bounded_support_over_many_draws(self):
        for law in ZOO:
            if law.support_max <= 1.0:
                inc = law.sample(prc.make_generator(2), (self.N_BIG,))
                assert inc.max() <= 1.0

    def test_second_moment_within_five_se(self):
        for i, law in enumerate(ZOO):
            inc = law.sample(prc.make_generator(100 + i), (self.N_BIG,))
            m2 = law.second_moment()
            atoms = law.atoms()
            if atoms is not None:
                m4 = sum(p * v**4 for v, p in atoms)
            else:
                m4 = 9.0  # E[(Z-1)^4] for Z ~ Exp(1)
            se = math.sqrt(max(m4 - m2 * m2, 1e-30) / self.N_BIG)
            assert abs((inc * inc).mean() - m2) < 5.0 * se + 1e-12

    def test_supermartingale_drift(self):
        law = prc.DriftedTwoPoint(0.5, 0.1)
        inc = law.sample(prc.make_generator(3), (self.N_BIG,))
        var = law.second_moment() - law.mean() ** 2
        se = math.sqrt(var / self.N_BIG)
        assert inc.mean() <= 0.0 + 5.0 * se

    def test_extremal_clt_band(self):
        law = prc.TwoPointExtremal(0.5)
        inc = law.sample(prc.make_generator(4), (10**4,))
        assert abs(inc.mean()) < 4.0 * math.sqrt(0.5 / 10**4)


class TestEventHit:
    def test_boundary_hit_at_first_step_is_inclusive(self):
        spec = prc.EventSpec(1.0, 1.0, prc.EventVariant.STOPPED_ANY_K)
        assert exact_hit([1.0, -1.0], 1.0, spec)

    def test_budget_exceeded_at_the_only_reach(self):
        # X first reaches x at k=1 but the budget is already blown there
        inc = [1.0, -1.0]
        spec = prc.EventSpec(1.0, 0.7, prc.EventVariant.STOPPED_ANY_K)  # v^2 < m2
        assert not exact_hit(inc, 1.0, spec)
        max_spec = prc.EventSpec(1.0, 0.7, prc.EventVariant.MAX_WITH_FINAL_QC)
        assert not exact_hit(inc, 1.0, max_spec)
        assert np.cumsum(inc).max() >= 1.0

    def test_nesting_implications_on_random_paths(self):
        law = prc.TwoPointBounded(1.0)
        m2, ev = law.second_moment(), prc.EventVariant
        for seed in range(200):
            inc = law.sample(prc.make_generator(seed), (12,))
            for x, v in [(2.0, 3.0), (0.0, 3.5), (4.0, 3.6), (1.0, 2.0)]:
                final = exact_hit(inc, m2, prc.EventSpec(x, v, ev.FINAL_ONLY))
                max_qc = exact_hit(inc, m2, prc.EventSpec(x, v, ev.MAX_WITH_FINAL_QC))
                stopped = exact_hit(inc, m2, prc.EventSpec(x, v, ev.STOPPED_ANY_K))
                assert (not final) or max_qc
                assert (not max_qc) or stopped

    def test_square_root_budget_counts_its_steps(self):
        # v = sqrt(3 * 0.25) squares to 0.7499999999999999, just below the
        # three-step budget; the path first reaches x = 1 at its third step
        v = math.sqrt(0.75)
        assert v * v < 3 * 0.25
        assert prc.budget_steps(0.25, 3, v) == 3
        assert prc.budget_steps(0.25, 2, v) == 2  # capped at the horizon
        assert prc.budget_steps(0.25, 3, math.sqrt(0.75 * (1 - 1e-6))) == 2
        inc = [-0.25, 1.0, 1.0]
        law = prc.TwoPointExtremal(0.25)
        for variant in (prc.EventVariant.STOPPED_ANY_K, prc.EventVariant.MAX_WITH_FINAL_QC,
                        prc.EventVariant.FINAL_ONLY):
            spec = prc.EventSpec(1.0, v, variant)
            assert exact_hit(inc, 0.25, spec)
            steps, _ = mc.event_test(law, spec, 3)
            flags = np.any(np.cumsum(inc)[None, steps] >= spec.x, axis=1)
            assert flags.tolist() == [True]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            prc.EventSpec(1.0, 1.0, prc.EventVariant.TRUNCATED_ANY_K)  # y missing
        with pytest.raises(ValueError):
            prc.EventSpec(1.0, 1.0, prc.EventVariant.FINAL_ONLY, y=1.0)  # stray y
        with pytest.raises(ValueError):
            prc.EventSpec(1.0, 0.0, prc.EventVariant.FINAL_ONLY)

    def test_vectorized_matches_scalar(self):
        # the Monte Carlo route (the running statistic of the same draws
        # against the levels of `event_test`) for every variant, at v = 1.9
        # and at budgets of exactly k steps and just short of them
        seen = set()
        for law in (prc.TwoPointExtremal(0.5), prc.CenteredExponential()):
            inc = law.sample(prc.make_generator(11), (64, 9))
            stat = mc.sample_statistic(law, prc.make_generator(11), (64, 9))
            for variant in prc.EventVariant:
                y = 0.8 if variant is prc.EventVariant.TRUNCATED_ANY_K else None
                per_step = law.truncated_second_moment(y) if y else law.second_moment()
                budgets = [1.9] + [math.sqrt(k * per_step * shrink)
                                   for k in (1, 8, 9) for shrink in (1.0, 1 - 1e-6)]
                for v in budgets:
                    spec = prc.EventSpec(1.5, v, variant, y=y)
                    cols, levels = mc.event_test(law, spec, inc.shape[1])
                    flags = np.any(stat[:, cols] >= levels, axis=1)
                    seen.update(flags.tolist())
                    for i in range(64):
                        assert flags[i] == exact_hit(inc[i], per_step, spec)
        assert seen == {False, True}


def _per_step_thresholds(a, b, x, n):
    """j*_k clamped to [0, k + 1], one Fraction-derived floor division per k:
    the reference that every fast path of `count_thresholds` must match."""
    width = Fraction(a) - Fraction(b)
    u, w = Fraction(x) / width, Fraction(b) / width
    q = math.lcm(u.denominator, w.denominator)
    nu, nw = u.numerator * (q // u.denominator), w.numerator * (q // w.denominator)
    return [min(k + 1, max(0, -((k * nw - nu) // q))) for k in range(n + 1)]


class TestCountThresholds:
    def test_matches_the_definition(self):
        # j*_k is the fewest upper steps of k whose exact sum reaches x
        rng = np.random.default_rng(17)
        cases = [(1.0, -0.45, 0.1), (1.0, -1.0, 0.0), (0.5, 0.25, 1.0), (1.0, -0.5, -3.0),
                 (-0.1, -0.3, -1.0)]
        cases += [tuple(sorted(rng.uniform(-2.0, 2.0, 2), reverse=True)) + (rng.uniform(-3, 6),)
                  for _ in range(40)]
        n = 15
        for a, b, x in cases:
            thresholds = prc.count_thresholds(a, b, x, n).tolist()
            fa, fb, fx = Fraction(a), Fraction(b), Fraction(x)
            for k in range(n + 1):
                want = next((j for j in range(k + 1) if j * fa + (k - j) * fb >= fx), k + 1)
                assert thresholds[k] == want

    def test_matches_the_per_step_loop(self):
        # random atoms (some both positive) and extreme thresholds
        rng = np.random.default_rng(29)
        for i in range(1200):
            a, b = sorted(rng.uniform(-2.0, 2.0, 2).tolist(), reverse=True)
            if i % 4 == 0:
                a, b = a + 2.5, b + 2.0
            x = [float(rng.uniform(-5.0, 40.0)), 1e300, -1e300, 5e-324, -5e-324, 0.0][i % 6]
            n = int(rng.integers(0, 60)) if i % 100 else [1023, 1024, 1025, 2049][i // 100 % 4]
            thresholds = prc.count_thresholds(a, b, x, n)
            assert thresholds.dtype == np.int64
            assert thresholds.tolist() == _per_step_thresholds(a, b, x, n)

    def test_exact_on_the_corpus_and_benchmark_laws(self):
        # every law the oracle suite and the deep-oracle benchmark run, on
        # horizons whose terms fit int64 and ones that leave it, and on
        # thresholds from signed zeros and the smallest subnormal to 1e308
        laws = suites._corpus_laws() + [prc.parse_law(spec) for spec in
                                        ("extremal:0.5", "bounded:0.45", "drifted:0.5,0.1")]
        for (a, _), (b, _) in dict.fromkeys(law.atoms() for law in laws):
            for n in (1, 2, 3, 5, 300, 2000, 10**4):
                for x in (0.0, -0.0, 1.0, -1.0, 0.1 * n, 0.3 * n, float(n), 1e9, -1e9,
                          1e308, -1e308, 5e-324, -5e-324):
                    assert prc.count_thresholds(a, b, x, n).tolist() == \
                        _per_step_thresholds(a, b, x, n)
        # the grid holds values no float64 estimate can place: on
        # drifted:0.5,0.1 at x = 0.3n, every k = 0 mod 5 has an exact
        # (x - k*b) / (a - b) within 1e-12 of an integer
        (a, _), (b, _) = prc.parse_law("drifted:0.5,0.1").atoms()
        fa, fb, fx = Fraction(a), Fraction(b), Fraction(0.3 * 2000)
        exact = [(fx - k * fb) / (fa - fb) for k in range(2001)]
        assert sum(abs(e - round(e)) < 1e-12 for e in exact) >= 400

    def test_non_dyadic_boundary(self):
        # 1 + 2 * (-0.45) < 0.1 for the doubles: one up step in three is short
        assert prc.count_thresholds(1.0, -0.45, 0.1, 3).tolist() == [1, 1, 1, 2]

    def test_rejects_unordered_atoms(self):
        with pytest.raises(ValueError):
            prc.count_thresholds(-0.45, 1.0, 0.1, 3)

    @pytest.mark.parametrize("n", [-1, -2])
    def test_rejects_a_negative_horizon(self, n):
        with pytest.raises(ValueError, match="n must be >= 0"):
            prc.count_thresholds(1.0, -0.45, 0.1, n)


class TestGeneratorKeying:
    def test_streams_are_distinct(self):
        a = prc.make_generator(1, 0).random(8)
        b = prc.make_generator(1, 1).random(8)
        assert not np.array_equal(a, b)

    def test_same_key_same_stream(self):
        a = prc.make_generator(5, 3).random(8)
        b = prc.make_generator(5, 3).random(8)
        assert np.array_equal(a, b)

    @given(st.integers(0, 2**63), st.integers(0, 2**20))
    @settings(max_examples=25)
    def test_keying_is_stable_under_reconstruction(self, seed, stream):
        a = prc.make_generator(seed, stream).random(4)
        b = prc.make_generator(seed, stream).random(4)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("call, args, message", [
    (prc.TwoPointExtremal(1.0).truncated_second_moment, (0.0,),
     "truncation level y must be > 0, got 0.0"),
    (prc.TwoPointExtremal(1.0).exceed_prob, (0.0,), "truncation level y must be > 0, got 0.0"),
    (prc.CenteredExponential().truncated_second_moment, (0.0,),
     "truncation level y must be > 0, got 0.0"),
    (prc.CenteredExponential().exceed_prob, (0.0,), "truncation level y must be > 0, got 0.0"),
    (prc.exact_mgf, (prc.TwoPointExtremal(1.0), -1.0), "lam must be >= 0, got -1.0"),
    (prc.EventSpec, (math.inf, 1.0, prc.EventVariant.STOPPED_ANY_K), "x must be finite, got inf"),
    (prc.exceedance_tail, (prc.CenteredExponential(), 1.0, 0), "n must be >= 1, got 0"),
    (prc.parse_law, ("cexp:5",), "bad law parameters in 'cexp:5': cexp takes no parameters, got '5'"),
])
def test_invalid_arguments_are_refused(call, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(*args)
