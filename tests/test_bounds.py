"""Closed-form bound values against independently evaluated constants.

Non-trivial expected values were frozen from 50-digit evaluations of the
displayed formulas (mpmath); trivial ones are asserted directly.
"""

import math
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smbounds import bounds as bnd

# 50-digit formula evaluations, truncated to double precision
LOG_H_2_1_1 = -0.46209812037329687  # -(2/3) log 2
B1_1_1 = 0.68314375796392577       # exp{-1/(1 + sqrt(5/3) + 1/3)}
B2_1_1 = 0.68728927879097220       # e^{-3/8}
PRO_1_1 = 0.78615137775742329      # exp{-arcsinh(1/2)/2}
HAEUSLER_8_1_1 = 1.7767894190798570e-4   # exp{8(1 - log 8)}
F_8_1 = 7.6943736113082207e-6
BENNETT_INV_THR_1_1 = 1.7475468957064284  # 1/3 + sqrt(2)


def close(a, b, rel=1e-12, abs_=1e-15):
    return a == pytest.approx(b, rel=rel, abs=abs_)


class TestTailQueryAndLogProb:
    def test_query_validation(self):
        with pytest.raises(ValueError):
            bnd.TailQuery(-0.1, 1.0, 2)
        with pytest.raises(ValueError):
            bnd.TailQuery(1.0, 0.0, 2)
        with pytest.raises(ValueError):
            bnd.TailQuery(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            bnd.TailQuery(math.nan, 1.0, 2)
        for n in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="^n must be a positive integer"):
                bnd.TailQuery(1.0, 1.0, n)
        # v^2 underflows to 0 or overflows, and the bounds divide by it; the
        # truncation bounds rescale v by the level y first
        for v in (1e-170, 1e170):
            with pytest.raises(ValueError, match="^v squared"):
                bnd.TailQuery(1.0, v, 5)
            with pytest.raises(ValueError, match="^v squared"):
                bnd.freedman(1.0, v)
            with pytest.raises(ValueError, match="^v/y squared"):
                bnd.fuk_nagaev(1.0, 1.0 / v, 1.0, 3, 0.0)
            with pytest.raises(ValueError, match="^v/y squared"):
                bnd.courbot(1.0, 1.0 / v, 1.0, 0.0, 0.0)

    def test_logprob_clamps(self):
        assert bnd.LogProb.from_log(0.5).log_value == 0.0
        assert bnd.LogProb.from_log(-2.0).value == pytest.approx(math.exp(-2.0))
        assert bnd.LogProb.from_log(-math.inf).value == 0.0
        with pytest.raises(ValueError):
            bnd.LogProb(0.1)
        with pytest.raises(ValueError):
            bnd.LogProb.from_log(math.nan)

    @given(st.floats(-1e6, 0.0))
    def test_logprob_linear_view_in_unit_interval(self, lv):
        assert 0.0 <= bnd.LogProb(lv).value <= 1.0


class TestHoeffding:
    def test_x_zero_is_one(self):
        assert bnd.hoeffding(bnd.TailQuery(0.0, 1.0, 5)).value == 1.0

    def test_moderate_value(self):
        lp = bnd.hoeffding(bnd.TailQuery(1.0, 1.0, 2))
        assert close(lp.log_value, LOG_H_2_1_1)
        assert close(lp.value, 2.0 ** (-2.0 / 3.0))

    def test_x_equals_n_convention(self):
        # the x = n branch is a definition, not a limit
        assert close(bnd.hoeffding(bnd.TailQuery(2.0, 1.0, 2)).value, 1.0 / 9.0)

    def test_limit_from_below_matches_convention(self):
        at_n = bnd.hoeffding(bnd.TailQuery(2.0, 1.0, 2)).log_value
        just_below = bnd.hoeffding(bnd.TailQuery(2.0 - 1e-9, 1.0, 2)).log_value
        assert at_n == pytest.approx(just_below, abs=1e-7)

    def test_indicator_beyond_horizon(self):
        assert bnd.hoeffding(bnd.TailQuery(3.0, 1.0, 2)).value == 0.0

    def test_large_n_stability(self):
        lp = bnd.hoeffding(bnd.TailQuery(1.0, 1.0, 10**6))
        assert math.isfinite(lp.log_value)
        assert lp.log_value == pytest.approx(bnd.freedman(1.0, 1.0).log_value, rel=1e-6)

    def test_horizon_gap_decays_like_one_over_n(self):
        lf = bnd.freedman(2.0, 1.5).log_value
        gaps = [abs(bnd.hoeffding(bnd.TailQuery(2.0, 1.5, n)).log_value - lf)
                for n in (10**3, 10**4, 10**5)]
        for a, b in zip(gaps, gaps[1:]):
            assert a / b == pytest.approx(10.0, rel=0.05)


class TestChainMembers:
    def test_freedman(self):
        assert bnd.freedman(0.0, 2.0).value == 1.0
        assert close(bnd.freedman(1.0, 1.0).value, math.e / 4.0)

    def test_bennett(self):
        assert bnd.bennett(0.0, 1.0).value == 1.0
        assert close(bnd.bennett(1.0, 1.0).value, B1_1_1)

    def test_bernstein(self):
        assert bnd.bernstein(0.0, 1.0).value == 1.0
        assert close(bnd.bernstein(1.0, 1.0).value, B2_1_1)

    def test_prohorov(self):
        assert bnd.prohorov(0.0, 1.0).value == 1.0
        assert close(bnd.prohorov(1.0, 1.0).value, PRO_1_1)

    def test_spot_orderings_at_1_1(self):
        f = bnd.freedman(1.0, 1.0).value
        assert f <= B1_1_1 <= B2_1_1
        assert bnd.hoeffding(bnd.TailQuery(1.0, 1.0, 2)).value <= PRO_1_1

    @given(
        st.floats(0.0, 50.0),
        st.floats(0.05, 20.0),
        st.integers(1, 10**4),
    )
    @settings(max_examples=300)
    def test_chain_property(self, x, v, n):
        assert bnd.ordering_ok(bnd.core_logs(bnd.TailQuery(x, v, n)))


class TestAzumaFamily:
    def test_branches_tie_at_x0_b1(self):
        u, branch = bnd.azuma_denominator(0.0, 10, 1.0)
        assert u == 40.0 and branch == "tie"
        assert bnd.azuma_refined(0.0, 10, 1.0).bound.value == 1.0

    def test_variance_branch(self):
        az = bnd.azuma_refined(1.0, 10, 0.5)
        assert az.branch == "variance"
        assert close(az.u, 64.0 / 3.0)
        assert close(az.bound.value, math.exp(-3.0 / 32.0))
        # n (1 + b)^2 overflows to +inf, above the finite variance term
        az = bnd.azuma_refined(1.0, 2, 1e300)
        assert (az.u, az.branch) == (4.0 * (2e300 + 1.0 / 3.0), "variance")
        assert az.bound.log_value == -2.0 / az.u

    def test_range_branch_past_the_crossover(self):
        # crossover at x = (3/4) n (1-b)^2 = 1.875
        az = bnd.azuma_refined(3.0, 10, 0.5)
        assert az.branch == "range"
        assert az.u == 22.5
        assert close(az.bound.value, math.exp(-0.8))

    def test_bounded_range_matches_rescaled_query(self):
        assert bnd.hoeffding_bounded(0.0, 4, 0.5).value == 1.0
        got = bnd.hoeffding_bounded(1.0, 2, 0.5).log_value
        assert close(got, LOG_H_2_1_1, rel=1e-9, abs_=1e-12)

    def test_bounded_range_below_refined_azuma(self):
        ho = bnd.hoeffding_bounded(1.0, 2, 0.5).log_value
        az = bnd.azuma_refined(1.0, 2, 0.5).bound.log_value
        assert ho <= az + 1e-12

    def test_supermartingale_regime_rejects_large_b(self):
        with pytest.raises(ValueError):
            bnd.hoeffding_bounded(1.0, 2, 1.5, supermartingale=True)
        assert bnd.hoeffding_bounded(1.0, 2, 1.5).value <= 1.0  # martingale form is fine


class TestTruncationFamily:
    def test_fuk_nagaev_trivial(self):
        fn = bnd.fuk_nagaev(0.0, 1.0, 1.0, 5, 0.0)
        assert fn.total.value == 1.0

    def test_fuk_nagaev_rescales(self):
        fn = bnd.fuk_nagaev(2.0, 2.0, 2.0, 2, 0.0)
        assert close(fn.h_term.log_value, LOG_H_2_1_1)
        assert close(fn.total.value, 2.0 ** (-2.0 / 3.0))

    def test_fuk_nagaev_adds_exceedance(self):
        fn = bnd.fuk_nagaev(2.0, 2.0, 2.0, 2, 0.25)
        assert close(fn.total.value, 2.0 ** (-2.0 / 3.0) + 0.25)
        with pytest.raises(ValueError):
            bnd.fuk_nagaev(1.0, 1.0, 1.0, 2, 1.5)

    def test_courbot(self):
        assert bnd.courbot(0.0, 1.0, 1.0, 0.0, 0.0).value == 1.0
        assert close(bnd.courbot(2.0, 2.0, 2.0, 0.0, 0.0).value, math.e / 4.0)
        with pytest.raises(ValueError):
            bnd.courbot(1.0, 1.0, 1.0, -0.1, 0.0)

    def test_courbot_dominates_fuk_nagaev(self):
        # the one-term form is smaller and the max-exceedance term is smaller
        for x, y, v, n in [(2.0, 1.0, 1.5, 5), (4.0, 2.0, 2.0, 10), (1.0, 0.5, 1.0, 3)]:
            per_step = 0.01
            p_max = 1.0 - (1.0 - per_step) ** n
            fn = bnd.fuk_nagaev(x, y, v, n, p_max)
            cb = bnd.courbot(x, y, v, n * per_step, 0.0)
            assert fn.total.log_value <= cb.log_value + 1e-12

    def test_haeusler_clamps(self):
        # raw exponent 2(1 - log 2) > 0, so the probability clamps to 1
        assert bnd.haeusler(2.0, 1.0, 1.0).value == 1.0
        # boundary x y = e v^2 gives exactly 1
        assert bnd.haeusler(math.e, 1.0, 1.0).log_value == pytest.approx(0.0, abs=1e-15)

    def test_haeusler_above_rescaled_f_on_clamped_region(self):
        lp = bnd.haeusler(8.0, 1.0, 1.0)
        assert close(lp.value, HAEUSLER_8_1_1, rel=1e-12)
        assert close(bnd.freedman(8.0, 1.0).value, F_8_1, rel=1e-12)
        assert bnd.freedman(8.0, 1.0).value <= lp.value

    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0), st.floats(0.01, 100.0))
    @settings(max_examples=500)
    def test_haeusler_above_rescaled_f(self, x, y, v):
        # with X = x/y, V = v/y the gap is X log(1 + V^2/X) + V^2 log(1 + X/V^2) > 0,
        # so haeusler can never fail where courbot, same exceedance term, passes
        assert bnd.haeusler(x, y, v).log_value >= bnd.freedman(x / y, v / y).log_value

    @pytest.mark.parametrize("scale", [2.0 ** -600, 2.0 ** 600])
    def test_haeusler_where_the_products_leave_the_doubles(self, scale):
        # the exponent depends on x/y and xy/v^2 only, so scaling x, y and v
        # by one power of two keeps it, while xy and v^2 underflow or overflow
        want = bnd.haeusler(3.0, 1.0, 1.0).log_value
        assert close(bnd.haeusler(3.0 * scale, scale, scale).log_value, want, rel=1e-11)


class TestIndependentCaseForms:
    def test_bennett_classic(self):
        assert bnd.bennett_classic(0.0, 1.0, 3).value == 1.0
        assert close(bnd.bennett_classic(1.0, 1.0, 1).value, math.e / 4.0)

    def test_hoeffding_independent(self):
        assert bnd.hoeffding_independent(0.0, 1.0, 5).value == 1.0
        got = bnd.hoeffding_independent(0.5, 0.5, 2).log_value
        assert close(got, LOG_H_2_1_1)
        with pytest.raises(ValueError):
            bnd.hoeffding_independent(1.0, 1.0, 2)

    @given(
        st.floats(0.001, 0.95),
        st.floats(0.05, 8.0),
        st.integers(1, 40),
    )
    @settings(max_examples=200)
    def test_reduction_identity_property(self, t, s2, n):
        li = bnd.hoeffding_independent(t, s2, n).log_value
        lh = bnd.hoeffding(bnd.TailQuery(n * t, math.sqrt(n * s2), n)).log_value
        assert li == pytest.approx(lh, abs=1e-12)


class TestBennettInverse:
    def test_continuity_at_zero(self):
        thr, lp = bnd.bennett_inverse(1e-12, 1.0)
        assert thr == pytest.approx(0.0, abs=1e-5)
        assert lp.value == pytest.approx(1.0, abs=1e-9)

    def test_threshold_values(self):
        thr, lp = bnd.bennett_inverse(1.0, 1.0)
        assert close(thr, BENNETT_INV_THR_1_1)
        assert lp.value == pytest.approx(math.exp(-1.0))
        thr2, _ = bnd.bennett_inverse(2.0, 0.5)
        assert close(thr2, 5.0 / 3.0)


def test_default_grid_covers_boundary_points():
    grid = [bnd.TailQuery(x, v, n) for n, vs, xs in bnd.default_grid() for v in vs for x in xs]
    # 10 x-values per (v, n) cell minus duplicates where 0.3n/0.7n/n land on
    # the fixed x list
    assert 300 <= len(grid) <= 350
    assert any(q.x == q.n for q in grid)
    assert any(q.x == 0.0 for q in grid)
    assert {q.n for q in grid} == set(bnd.GRID_N)


class TestCancellationRegime:
    """Log values of F and H against 50-digit evaluations of their displayed
    formulas, down to x/v^2 = 1e-16 where the closed forms cancel."""

    REL = 1e-12
    EXPONENTS = range(-16, 2)
    #: ratios on both sides of the series' switch points, at u = -0.18 (taken
    #: as x/n) and u = 0.22 (taken as x/v^2), and next to u = -1 for x/n
    AT_CUTOFF = tuple(c * f for c in (0.18, 0.22) for f in (1 - 2.0**-52, 1.0, 1 + 2.0**-52))
    NEAR_ONE = (0.9, 0.999, 1 - 2.0**-40)

    @staticmethod
    def _refs(mpmath):
        def log_f(x, v):
            x, v2 = mpmath.mpf(x), mpmath.mpf(v) ** 2
            return -(x + v2) * mpmath.log1p(x / v2) + x

        def log_h(x, v, n):
            x, v2, n = mpmath.mpf(x), mpmath.mpf(v) ** 2, mpmath.mpf(n)
            if x == n:
                return n * mpmath.log(v2 / (n + v2))
            return n / (n + v2) * (-(x + v2) * mpmath.log1p(x / v2)
                                   - (n - x) * mpmath.log1p(-x / n))

        return log_f, log_h

    def test_freedman(self):
        mpmath = pytest.importorskip("mpmath")
        log_f, _ = self._refs(mpmath)
        with mpmath.workdps(50):
            ratios = [m * 10.0**e for e in self.EXPONENTS for m in (1.0, 3.7)]
            for u in ratios + list(self.AT_CUTOFF):
                for v in (0.05, 1.0, 30.0, 3e4):
                    x = u * v * v
                    want = float(log_f(x, v))
                    assert bnd.freedman(x, v).log_value == pytest.approx(
                        want, rel=self.REL, abs=0), (x, v)

    def test_rate_against_50_digits(self):
        # w h(x/w) on 2*10^4 log-uniform (x, w) of both signs, at and a few
        # ulps from both switch points, and next to x/w = -1, within 32 units
        # and within `_rate_error`; in the series, within its 6 units
        mpmath = pytest.importorskip("mpmath")
        eps = 2.0**-53
        rng = random.Random(37)
        points = [(-2.0**53, 2**53 + 1), (-2.0**60, 2**60 + 3)]  # x/w rounds to -1
        while len(points) < 20000:
            w = 10.0 ** rng.uniform(-150.0, 150.0)
            kind = rng.random()
            if kind < 0.1:
                u = rng.choice((-0.18, 0.22)) * (1 + rng.randint(-8, 8) * 2.0**-52)
            elif kind < 0.15:
                u = -(1 - rng.randint(1, 2**20) * 2.0**-53)
            elif kind < 0.6:
                u = 10.0 ** rng.uniform(-16.0, 4.0)
            else:
                u = -(10.0 ** rng.uniform(-16.0, 0.0))
            if u * w >= -w:
                points.append((u * w, w))
        with mpmath.workdps(50):
            for x, w in points:
                mx, mw = mpmath.mpf(x), mpmath.mpf(w)
                want = float((mx + mw) * mpmath.log1p(mx / mw) - mx)
                got = bnd._rate(x, w)
                assert abs(got - want) <= 32 * eps * want, (x, w)
                assert abs(got - want) <= bnd._rate_error(want, x), (x, w)
                if -0.18 < x / w < 0.22:
                    assert abs(got - want) <= 6 * eps * want, (x, w)

    def test_freedman_at_the_known_cell(self):
        # the closed form returned 0.0 here; the reference is -9.34e-29
        assert bnd.freedman(4.1e-10, 3e4).log_value == pytest.approx(
            -9.3388888888888889e-29, rel=1e-12, abs=0)

    def test_hoeffding(self):
        mpmath = pytest.importorskip("mpmath")
        _, log_h = self._refs(mpmath)
        with mpmath.workdps(50):
            rs = [0.93 * 10.0**er for er in self.EXPONENTS if 0.93 * 10.0**er < 1.0]
            us = [1.7 * 10.0**eu for eu in self.EXPONENTS]
            for n in (1, 7, 1000, 10**6):
                for r in rs + list(self.AT_CUTOFF + self.NEAR_ONE):
                    x = r * n
                    for u in us + list(self.AT_CUTOFF):
                        v = math.sqrt(x / u)
                        want = float(log_h(x, v, n))
                        got = bnd.hoeffding(bnd.TailQuery(x, v, n)).log_value
                        assert got == pytest.approx(want, rel=self.REL, abs=0), (x, v, n)

    def test_hoeffding_at_x_equals_n(self):
        # log(v^2/(n+v^2)) loses eps/(n/v^2) when v^2 >> n
        mpmath = pytest.importorskip("mpmath")
        _, log_h = self._refs(mpmath)
        with mpmath.workdps(50):
            for n in (1, 5, 100, 10**6):
                for eu in self.EXPONENTS:
                    v = math.sqrt(n / (1.3 * 10.0**eu))
                    want = float(log_h(float(n), v, n))
                    got = bnd.hoeffding(bnd.TailQuery(float(n), v, n)).log_value
                    assert got == pytest.approx(want, rel=self.REL, abs=0), (n, v)

    def test_hoeffding_at_the_known_cell(self):
        mpmath = pytest.importorskip("mpmath")
        _, log_h = self._refs(mpmath)
        with mpmath.workdps(50):
            want = float(log_h(7.8e-12, 1.0, 10**6))
        assert bnd.hoeffding(bnd.TailQuery(7.8e-12, 1.0, 10**6)).log_value == pytest.approx(
            want, rel=self.REL, abs=0)

    def test_hoeffding_where_x_over_n_rounds_to_one(self):
        # n > 2^53: x < n, but x/n is 1.0 and n - x is 0.0 in floats
        mpmath = pytest.importorskip("mpmath")
        _, log_h = self._refs(mpmath)
        x, n = 2.0**53, 2**53 + 1
        assert x < n and x / n == 1.0
        with mpmath.workdps(50):
            want = float(log_h(x, 0.5, n))
        assert bnd.hoeffding(bnd.TailQuery(x, 0.5, n)).log_value == pytest.approx(
            want, rel=self.REL, abs=0)

    def test_independent_case_forms(self):
        # Bennett's and Hoeffding's per-step forms at t from 1e-15 to 0.5, at
        # the series cutoff and next to t = 1; the closed forms lost 1.5e-7
        # and 5.8e-8 relative at t = 1e-9
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            ts = [m * 10.0**e for e in range(-15, 0) for m in (1.0, 2.3, 5.0)
                  if m * 10.0**e <= 0.5]
            for t in ts + list(self.AT_CUTOFF + self.NEAR_ONE):
                for s2 in (0.05, 1.0, 4.0):
                    for n in (1, 10):
                        mt, ms2 = mpmath.mpf(t), mpmath.mpf(s2)
                        log1p_u = mpmath.log1p(mt / ms2)
                        want_b = n * (-(mt + ms2) * log1p_u + mt)
                        want_h = n * (-(mt + ms2) * log1p_u
                                      - (1 - mt) * mpmath.log1p(-mt)) / (1 + ms2)
                        assert bnd.bennett_classic(t, s2, n).log_value == pytest.approx(
                            float(want_b), rel=self.REL, abs=0), (t, s2, n)
                        assert bnd.hoeffding_independent(t, s2, n).log_value == pytest.approx(
                            float(want_h), rel=self.REL, abs=0), (t, s2, n)


def _log_uniform_queries(seed, count):
    """`count` valid queries, log-uniform in x from 1e-300 to 1e308, in v
    from 1e-160 to 1e154 and in n from x/1000 to 1000x (at least 1)."""
    rng = random.Random(seed)
    queries = []
    while len(queries) < count:
        x = 10.0 ** rng.uniform(-300.0, 308.0)
        v = 10.0 ** rng.uniform(-160.0, 154.0)
        e = rng.uniform(math.log10(x) - 3.0, math.log10(x) + 3.0)
        # 10^e in exact integers past the doubles, where TailQuery refuses it
        n = max(1, int(10.0 ** min(e, 300.0)) * 10 ** max(0, math.ceil(e - 300.0)))
        try:
            queries.append(bnd.TailQuery(x, v, n))
        except ValueError:
            pass
    return queries


class TestLargeArguments:
    """Overflow in Bennett's and Bernstein's kernels, the rounding of large
    logs on the ordering chain, and horizons past the doubles."""

    #: a horizon of 2^1024 - 2^970 or more rounds to infinity as a double
    HUGE_N = (2**1024, 2**1024 - 2**970, 10**400)

    def test_valid_queries_are_answered_and_ordered(self):
        # the kernels raise nothing (no NaN) and the chain holds with its
        # absolute and relative allowances on every query
        for q in _log_uniform_queries(35, 20000):
            assert bnd.ordering_ok(bnd.core_logs(q)), q

    def test_kernels_keep_their_bits_where_nothing_overflows(self):
        rng = random.Random(36)
        checked = 0
        while checked < 10**4:
            x = 10.0 ** rng.uniform(-300.0, 160.0)
            v = 10.0 ** rng.uniform(-150.0, 155.0)
            v2 = v * v
            if not 0.0 < v2 < math.inf:
                continue
            bennett_denom = v2 * (1.0 + math.sqrt(1.0 + 2.0 * x / (3.0 * v2))) + x / 3.0
            bernstein_denom = 2.0 * (v * v + x / 3.0)
            if max(x * x, bennett_denom, bernstein_denom) == math.inf:
                continue
            if x * x < sys.float_info.min:  # x^2 is subnormal or 0: the r forms answer
                continue
            assert bnd._bennett_log(x, v).hex() == (-x * x / bennett_denom).hex()
            assert bnd._bernstein_log(x, v).hex() == (-x * x / bernstein_denom).hex()
            checked += 1
        # at x = 0 Bernstein's -0 stands even where its denominator overflows
        for v in (1.0, 1e154):
            assert bnd._bernstein_log(0.0, v).hex() == (-0.0 * 0.0 / (2.0 * v * v)).hex()

    @pytest.mark.parametrize("x, v", [
        (1e200, 1e-60),   # x^2 and Bennett's denominator overflow (NaN before)
        (1e155, 1e60),    # only x^2 overflows (-inf before)
        (1e10, 1e-150),   # only 2x / (3v^2) overflows (-0 before)
        (1e308, 1e150),   # 2x overflows as well
        (1.0, 1e-160),    # v^2 is subnormal
        (1e-200, 1e-160),  # x^2 underflows to 0 (-0 before)
        (1e-160, 1e-100),  # x^2 is subnormal (digits lost before)
    ])
    def test_overflowing_kernels_against_50_digits(self, x, v):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            mx, mv2 = mpmath.mpf(x), mpmath.mpf(v) ** 2
            want_bennett = -mx**2 / (mv2 * (1 + mpmath.sqrt(1 + 2 * mx / (3 * mv2))) + mx / 3)
            want_bernstein = -mx**2 / (2 * (mv2 + mx / 3))
            assert bnd._bennett_log(x, v) == pytest.approx(float(want_bennett), rel=1e-14, abs=0)
            assert bnd._bernstein_log(x, v) == pytest.approx(float(want_bernstein), rel=1e-14,
                                                             abs=0)
        assert bnd._bennett_log(x, v) <= bnd._bernstein_log(x, v) < 0.0

    def test_the_relative_allowance_of_an_edge(self):
        index = {name: i for i, name in enumerate(bnd.CORE)}
        logs = [-1e9] * 5
        f, b = index["freedman"], index["bennett"]
        unit = 2.0**-53 * 1e9  # about the rounding of a log of size 1e9
        for gap, holds in ((15 * unit, True), (17 * unit, False)):
            above = list(logs)
            above[f] = logs[b] + gap  # misses the absolute slack of 1e-10
            assert gap > bnd.ORDER_SLACK
            assert bnd.ordering_ok(above) is holds
        for lower, upper in ((math.nan, -1.0), (-1.0, math.nan), (-1.0, -math.inf)):
            broken = list(logs)
            broken[f], broken[b] = lower, upper
            assert not bnd.ordering_ok(broken)
        both = [-math.inf] * 5  # -inf below -inf holds
        assert bnd.ordering_ok(both)

    @pytest.mark.parametrize("n", HUGE_N, ids=("2^1024", "2^1024-2^970", "10^400"))
    def test_horizons_past_the_doubles_are_refused(self, n):
        message = "n must be below 2^1024 - 2^970"
        calls = [lambda: bnd.TailQuery(1.0, 1.0, n),
                 lambda: bnd.azuma_denominator(1.0, n, 0.5),
                 lambda: bnd.azuma_refined(1.0, n, 0.5),
                 lambda: bnd.hoeffding_bounded(1.0, n, 0.5),
                 lambda: bnd.fuk_nagaev(1.0, 1.0, 1.0, n, 0.0),
                 lambda: bnd.bennett_classic(0.5, 1.0, n),
                 lambda: bnd.hoeffding_independent(0.5, 1.0, n)]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(message)):
                call()

    def test_the_largest_horizon_a_double_holds_is_answered(self):
        n = 2**1024 - 2**970 - 1  # rounds down to the largest double
        assert float(n) == 1.7976931348623157e308
        bnd.hoeffding(bnd.TailQuery(1.0, 1.0, n))
        bnd.azuma_refined(1.0, n, 1e-300)
        bnd.bennett_classic(0.5, 1.0, n)
        bnd.hoeffding_independent(0.5, 1.0, n)


class TestRegistry:
    Q = bnd.TailQuery(1.0, 1.0, 2)
    A = dict(x=1.0, v=1.0, n=2)

    def test_core_family_in_chain_order(self):
        names = [e.name for e, _, _ in bnd._evaluate(self.A)]
        assert names == ["hoeffding", "freedman", "bennett", "bernstein", "prohorov"]
        assert tuple(names) == bnd.CORE
        assert {n for edge in bnd.ORDERING for n in edge} == set(names)

    def test_core_values_are_the_named_bounds(self):
        logs = {e.name: b for e, b, _ in bnd._evaluate(self.A)}
        assert logs["hoeffding"] == bnd.hoeffding(self.Q)
        for name in ("freedman", "bennett", "bernstein", "prohorov"):
            assert logs[name] == getattr(bnd, name)(1.0, 1.0)
        assert [b.log_value for b in logs.values()] == list(bnd.core_logs(self.Q))

    def test_registry_resolves_bounds_at_call_time(self, monkeypatch):
        monkeypatch.setattr(bnd, "_bennett_log", lambda x, v: -7.0)
        monkeypatch.setattr(bnd, "courbot", lambda *args: bnd.LogProb(-8.0))
        level = dict(self.A, y=2.0, p_exceed=0.0, sum_exceed=0.0, p_qc_exceed=0.0)
        logs = {e.name: b.log_value for e, b, _ in bnd._evaluate(level)}
        assert (logs["bennett"], logs["courbot"]) == (-7.0, -8.0)

    def test_ordering_ok(self):
        logs = bnd.core_logs(self.Q)
        assert bnd.ordering_ok(logs)
        index = {name: i for i, name in enumerate(bnd.CORE)}
        for lower, upper in bnd.ORDERING:
            broken = list(logs)
            broken[index[lower]] = logs[index[upper]] + 2 * bnd.ORDER_SLACK
            assert not bnd.ordering_ok(broken)
        # within the slack is not a violation
        within = list(logs)
        within[index["hoeffding"]] = logs[index["freedman"]] + bnd.ORDER_SLACK / 2
        assert bnd.ordering_ok(within)
        # a log above 0 is not a probability, even with every edge intact
        positive = list(logs)
        positive[index["prohorov"]] = 1e-300
        assert not bnd.ordering_ok(positive)

    def test_all_lists_bounds_and_types_only(self):
        # bench/tracing.py wraps every function in __all__ as a bound call
        for name in ("CORE", "ORDERING", "ORDER_SLACK", "_TABLE", "_evaluate", "core_logs",
                     "ordering_ok"):
            assert name not in bnd.__all__


@pytest.mark.parametrize("call, args, message", [
    (bnd.LogProb, (math.nan,), "log probability is NaN"),
    (bnd._log_add, (0.0, -1.0), "tail term must be >= 0, got -1.0"),
    (bnd.freedman, (-1.0, 1.0), "need x >= 0 and v > 0, got x=-1.0, v=1.0"),
    (bnd.azuma_denominator, (1.0, 2, 0.0), "need x >= 0, b > 0, n >= 1, got x=1.0, b=0.0, n=2"),
    (bnd.hoeffding_bounded, (1.0, 2, 0.0), "b must be > 0, got 0.0"),
    (bnd.hoeffding_bounded, (1.0, 2, 1e308),
     "n*b must be a positive finite double, got n=2, b=1e+308"),
    (bnd.hoeffding_bounded, (1.0, 0, 1.0), "n*b must be a positive finite double, got n=0, b=1.0"),
    (bnd.fuk_nagaev, (1.0, 0.0, 1.0, 2, 0.0), "y must be > 0, got 0.0"),
    (bnd.courbot, (-1.0, 1.0, 1.0, 0.0, 0.0), "need x >= 0, y > 0, v > 0, got x=-1.0"),
    (bnd.haeusler, (0.0, 1.0, 1.0), "need x, y, v > 0, got x=0.0"),
    (bnd.bennett_classic, (-1.0, 1.0, 1), "need t >= 0, sigma2 > 0, n >= 1, got t=-1.0"),
    (bnd.hoeffding_independent, (0.5, 0.0, 1), "need sigma2 > 0 and n >= 1, got sigma2=0.0"),
    (bnd.bennett_inverse, (0.0, 1.0), "need level > 0 and v > 0, got level=0.0"),
])
def test_invalid_arguments_are_refused(call, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(*args)
