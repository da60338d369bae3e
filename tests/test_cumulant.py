"""Cumulant machinery: frozen values, stability, tilts, and the minimizer."""

import math
import re

import pytest

from smbounds import cumulant as cml
from smbounds.processes import CenteredExponential, TwoPoint, TwoPointExtremal, exact_mgf

LOG_COSH_1 = 0.43378083048302719  # 50-digit evaluation of log((e^-1 + e)/2)
MGF_HALF_QUARTER = 1.0357417762077020  # 0.8 e^{-1/8} + 0.2 e^{1/2}


class TestCgfBound:
    def test_trivial_at_lam_zero(self):
        assert cml.cgf_bound(0.0, 5.0) == 0.0

    def test_trivial_at_t_zero(self):
        assert cml.cgf_bound(3.0, 0.0) == 0.0

    def test_log_cosh_point(self):
        assert cml.cgf_bound(1.0, 1.0) == pytest.approx(LOG_COSH_1, rel=1e-12)

    def test_huge_lambda_does_not_overflow(self):
        val = cml.cgf_bound(800.0, 2.0)
        assert math.isfinite(val)
        # dominated by the t e^lam / (1+t) term
        assert val == pytest.approx(800.0 + math.log(2.0 / 3.0), rel=1e-12)

    def test_nonnegative_on_grid(self):
        for lam in (0.0, 0.1, 1.0, 10.0):
            for t in (0.0, 0.5, 1.0, 7.5):
                assert cml.cgf_bound(lam, t) >= 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cml.cgf_bound(-0.5, 1.0)
        with pytest.raises(ValueError):
            cml.cgf_bound(1.0, -1.0)
        with pytest.raises(ValueError):
            cml.cgf_bound(math.inf, 1.0)


class TestMgfBound:
    def test_at_lam_zero(self):
        assert cml.mgf_bound(0.0, 0.7) == pytest.approx(1.0, rel=1e-15)

    def test_cosh_point(self):
        assert cml.mgf_bound(1.0, 1.0) == pytest.approx(math.cosh(1.0), rel=1e-14)

    def test_extremal_two_point_law_attains_it(self):
        # P(xi=1) = 0.2, P(xi=-0.25) = 0.8 realizes the estimate exactly
        assert cml.mgf_bound(0.5, 0.25) == pytest.approx(MGF_HALF_QUARTER, rel=1e-14)
        exact = exact_mgf(TwoPointExtremal(0.25), 0.5)
        assert exact == pytest.approx(cml.mgf_bound(0.5, 0.25), rel=1e-14)

    def test_consistent_with_log_form(self):
        for lam in (0.0, 0.3, 2.0, 11.0):
            for s2 in (0.1, 1.0, 4.0):
                assert cml.mgf_bound(lam, s2) == pytest.approx(
                    math.exp(cml.cgf_bound(lam, s2)), rel=1e-13)


class TestCumulantBounds:
    def test_linear_bound_values(self):
        assert cml.cumulant_bound_linear(0.0, 10.0) == 0.0
        assert cml.cumulant_bound_linear(1.0, 1.0) == pytest.approx(math.e - 2.0, rel=1e-14)

    def test_linear_bound_small_lambda_precision(self):
        lam = 1e-8
        got = cml.cumulant_bound_linear(lam, 1.0)
        # abs=0: the default abs of 1e-12 would accept any value near 5e-17
        assert got == pytest.approx(lam * lam / 2.0, rel=1e-6, abs=0)

    def test_quadratic_bound_values(self):
        assert cml.cgf_quadratic_bound(0.0, 1.0) == 0.0
        assert cml.cgf_quadratic_bound(1.0, 1.0) == 0.5
        assert cml.cgf_quadratic_bound(2.0, 0.5) == pytest.approx(1.125)

    def test_quadratic_bound_at_huge_b(self):
        # (1 + b)^2 overflows: the bound is +inf, not an OverflowError
        assert cml.cgf_quadratic_bound(1.0, 1e200) == math.inf
        assert cml.cgf_quadratic_bound(0.0, 1e200) == 0.0


class TestMinimizeTilt:
    def test_min_at_zero_when_x_zero(self):
        # the objective is flat to double precision near 0, so only the value
        # is sharply pinned; lam lands within float-noise of the origin
        lam, val = cml.minimize_tilt(lambda l: -l * 0.0 + 2 * cml.cgf_bound(l, 0.5), 1.0)
        assert lam == pytest.approx(0.0, abs=1e-6)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form_horizon_bound(self):
        _, val = cml.minimize_tilt(lambda l: -l * 1.0 + 2 * cml.cgf_bound(l, 0.5), 1.0)
        assert val == pytest.approx(-(2.0 / 3.0) * math.log(2.0), abs=1e-8)

    def test_matches_closed_form_linear_bound(self):
        lam, val = cml.minimize_tilt(lambda l: -l + cml.cumulant_bound_linear(l, 1.0), 1.0)
        assert lam == pytest.approx(math.log(2.0), abs=1e-6)
        assert val == pytest.approx(math.log(math.e / 4.0), abs=1e-8)

    def test_runaway_objective_reported(self):
        with pytest.raises(RuntimeError, match="bracket"):
            cml.minimize_tilt(lambda l: -l, 1.0)

    def test_two_dip_objective_reported(self):
        # dips at 0 and 0.6 inside the first bracket [0, 1]: the search
        # settles in the higher one, above the value at lam = 0
        with pytest.raises(RuntimeError, match="objective is not unimodal"):
            cml.minimize_tilt(lambda l: min(100.0 * l * l, (l - 0.6) ** 2 + 0.1), 1.0)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            cml.minimize_tilt(lambda l: l * l, 0.0)


class TestTiltedSecondMomentCondition:
    def test_extremal_law_passes(self):
        assert cml.check_tilted_second_moment(TwoPointExtremal(0.5), (0.0, 0.5, 1.0, 2.0, 5.0))

    def test_degenerate_zero_law_passes(self):
        assert cml.check_tilted_second_moment(TwoPoint(5e-324, 0.0, 0.5, 0.5, "zero"), (1.0,))

    def test_wide_symmetric_law_fails(self):
        # E[xi^2 e^{3 xi}] = 4 cosh 6 ~ 806.9 > e^3 * 4 ~ 80.3
        law = TwoPoint(2.0, -2.0, 0.5, 0.5, "wide")
        assert not cml.check_tilted_second_moment(law, (3.0,))
        assert 4.0 * math.cosh(6.0) > math.exp(3.0) * 4.0

    def test_centered_exponential_diverges_past_one(self):
        assert not cml.check_tilted_second_moment(CenteredExponential(), (1.5,))

    def test_centered_exponential_matches_mpmath(self):
        # E[(Z-1)^2 e^{lam (Z-1)}] for Z ~ Exp(1), integrated at 40 digits
        mpmath = pytest.importorskip("mpmath")
        law = CenteredExponential()
        with mpmath.workdps(40):
            for lam in (0.0, 0.25, 0.5, 0.8, 0.99):
                ref = mpmath.quad(lambda z: (z - 1) ** 2 * mpmath.exp(lam * (z - 1) - z),
                                  [0, 1, mpmath.inf])
                assert math.exp(law.log_tilted_second_moment(lam)) == pytest.approx(
                    float(ref), rel=1e-12)
        assert math.exp(law.log_tilted_second_moment(1.0)) == math.inf

    def test_centered_exponential_fails_even_below_one(self):
        assert not cml.check_tilted_second_moment(CenteredExponential(), (0.5,))

    def test_large_lambda_decided_in_log_space(self):
        # e^{800} overflows a double; the check must still answer
        assert cml.check_tilted_second_moment(TwoPointExtremal(0.5), (800.0,))
        assert not cml.check_tilted_second_moment(CenteredExponential(), (800.0,))
        assert not cml.check_tilted_second_moment(TwoPoint(2.0, -2.0, 0.5, 0.5, "wide"),
                                                  (800.0,))
        # E[xi^2 e^{lam xi}] = p_hi e^{lam} + s2^2 p_lo e^{-lam s2} at s2 = 0.5
        want = 800.0 + math.log(1.0 / 3.0 + 0.25 * (2.0 / 3.0) * math.exp(-1200.0))
        assert TwoPointExtremal(0.5).log_tilted_second_moment(800.0) == pytest.approx(
            want, rel=1e-15)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            cml.check_tilted_second_moment(TwoPointExtremal(1.0), ())


@pytest.mark.parametrize("call, args, message", [
    (cml.cumulant_bound_linear, (-1.0, 1.0), "lam must be >= 0, got -1.0"),
    (cml.cumulant_bound_linear, (1.0, -1.0), "qc must be >= 0, got -1.0"),
    (cml.cgf_quadratic_bound, (-1.0, 1.0), "lam must be >= 0, got -1.0"),
    (cml.cgf_quadratic_bound, (1.0, 0.0), "b must be > 0, got 0.0"),
    (cml.check_tilted_second_moment, (TwoPointExtremal(1.0), (0.5, -1.0)),
     "lam must be finite and >= 0, got -1.0"),
])
def test_invalid_arguments_are_refused(call, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(*args)
