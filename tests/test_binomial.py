"""Loader's log-space binomial pmf, and the Clopper-Pearson interval solved on
its tails, against 50-digit mpmath."""

import math

import pytest

from smbounds import binomial
from smbounds import montecarlo as mc

mpmath = pytest.importorskip("mpmath")


def _mp_log_pmf(k, n, p, q):
    return (mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
            + k * mpmath.log(p) + (n - k) * mpmath.log(q))


def _mp_upper_tail(k, n, p):
    """P(X >= k) for X ~ Binomial(n, p), summed term by term from k while the
    terms matter; p is an mpf below (k + 1)/(n + 1), so the ratios fall."""
    if k == 0:
        return mpmath.mpf(1)
    ratio, term, total = p / (1 - p), mpmath.mpf(1), mpmath.mpf(1)
    for j in range(n - k):
        term *= (n - k - j) * ratio / (k + 1 + j)
        total += term
        if term < total * mpmath.mpf(10) ** -55:
            break
    return mpmath.exp(_mp_log_pmf(k, n, p, 1 - p)) * total


class TestLogPmf:
    @pytest.mark.parametrize("n", [2, 3, 16, 17, 36, 81, 501, 10**6, 2**20, 10**9])
    def test_within_its_error_bound_of_mpmath(self, n):
        # p and q are each given to full precision, down to 1e-300; the
        # largest error seen is 2.2e-15 of max(1, |log b|), a quarter of the bound
        with mpmath.workdps(50):
            for k in sorted({1, 2, n // 3, n // 2, n - 2, n - 1} - {0, n}):
                for small in (1e-300, 1e-12, 0.01, 0.3, 0.5, min(k, n - k) / n):
                    exact = mpmath.mpf(small)
                    for p, q, mp_p, mp_q in ((small, 1 - small, exact, 1 - exact),
                                             (1 - small, small, 1 - exact, exact)):
                        value, err = binomial._log_pmf(k, n, p, q)
                        want = _mp_log_pmf(k, n, mp_p, mp_q)
                        assert abs(value - want) <= err
                        assert abs(value - want) <= 1e-14 * max(1.0, abs(float(want)))
                        assert binomial.log_pmf(k, n, p, q) == value

    def test_the_ends_and_outside(self):
        assert binomial.log_pmf(0, 10, 0.25, 0.75) == 10 * math.log(0.75)
        assert binomial.log_pmf(10, 10, 0.25, 0.75) == 10 * math.log(0.25)
        assert binomial.log_pmf(11, 10, 0.25, 0.75) == -math.inf

    def test_stirlerr_table_meets_the_series(self):
        # at m = 16 the five-term series is within 1e-16 of log-gamma
        with mpmath.workdps(40):
            for m in (1, 7, 15, 16, 35, 36, 80, 81, 500, 501, 10**6):
                want = (mpmath.loggamma(m + 1) - mpmath.log(mpmath.sqrt(2 * mpmath.pi * m))
                        - m * mpmath.log(m) + m)
                assert abs(binomial.stirlerr(m) - want) <= 2e-16 * max(1.0, float(want) * 4)


class TestClopperPearsonAccuracy:
    """Each end lies on the safe side of the exact root and within 1e-12 of
    it: the tail at the end is at most (1 - gamma)/2, and past the end by
    1e-12 relative it is at least that."""

    REL = 1e-12

    def _check(self, hits, trials, gamma):
        lo, hi = mc.clopper_pearson(hits, trials, gamma)
        level = (1 - mpmath.mpf(gamma)) / 2
        if hits > 0:
            assert _mp_upper_tail(hits, trials, mpmath.mpf(lo)) <= level
            assert _mp_upper_tail(hits, trials, mpmath.mpf(lo) * (1 + self.REL)) >= level
        else:
            assert lo == 0.0
        if hits < trials:  # P(X <= hits) = P(trials - X >= trials - hits) at 1 - p
            miss = trials - hits
            assert _mp_upper_tail(miss, trials, 1 - mpmath.mpf(hi)) <= level
            assert _mp_upper_tail(miss, trials, 1 - mpmath.mpf(hi) * (1 - self.REL)) >= level
        else:
            assert hi == 1.0

    @pytest.mark.parametrize("trials", [1, 2, 3, 10, 10**3, 2**16, 2**20, 10**6])
    def test_ends_bracket_the_mpmath_root(self, trials):
        hits = {0, 1, 2, 3, trials - 1, trials}
        if trials <= 2**16:
            hits |= {trials // 2, trials // 3}
        with mpmath.workdps(50):
            for h in sorted(x for x in hits if 0 <= x <= trials):
                for gamma in (0.95, 0.999, 1 - 1e-6):
                    self._check(h, trials, gamma)

    def test_spot_checks_at_a_billion_trials(self):
        with mpmath.workdps(50):
            for h in (1, 2, 3, 10**9 - 1):
                self._check(h, 10**9, 0.95)
