"""Monte Carlo estimation: exact intervals, determinism, verdicts."""

import itertools
import math
import re
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import exact_hit
from smbounds import montecarlo as mc
from smbounds import oracle as orc
from smbounds import processes as prc
from smbounds import suites
from smbounds.bounds import LogProb, TailQuery, hoeffding

RADEMACHER = prc.TwoPointBounded(1.0)
STOPPED = prc.EventVariant.STOPPED_ANY_K
FINAL = prc.EventVariant.FINAL_ONLY
MAX = prc.EventVariant.MAX_WITH_FINAL_QC
TRUNCATED = prc.EventVariant.TRUNCATED_ANY_K
LAWS = ["extremal:0.5", "bounded:0.45", "drifted:0.5,0.1", "cexp"]


def _mc_flags(law, inc, spec):
    """Event flags of a (paths, n) two-point increment matrix on the route
    Monte Carlo runs: int32 up-step counts against the levels of `event_test`."""
    ups = np.cumsum(inc == law.hi, axis=1, dtype=np.int32)
    steps, levels = mc.event_test(law, spec, inc.shape[1])
    return np.any(ups[:, steps] >= levels, axis=1)


def _per_path(law, stat):
    """Each path's own running statistic in a block of `sample_statistic`:
    two-point counts of a path-major block run on from path to path."""
    paths, n = stat.shape
    if mc._step_major(paths, n):
        return stat
    return stat - np.reshape(mc._path_starts(law, stat), (-1, 1))


class TestClopperPearson:
    def test_edge_cases(self):
        lo, hi = mc.clopper_pearson(0, 100, 0.95)
        assert lo == 0.0 and 0.0 < hi < 0.05
        lo, hi = mc.clopper_pearson(100, 100, 0.95)
        assert hi == 1.0 and 0.95 < lo < 1.0

    def test_brackets_the_point_estimate(self):
        for hits, trials in [(1, 10), (25, 100), (999, 1000), (3, 100000)]:
            lo, hi = mc.clopper_pearson(hits, trials, 0.99)
            assert 0.0 <= lo <= hits / trials <= hi <= 1.0

    def test_wider_at_higher_confidence(self):
        lo95, hi95 = mc.clopper_pearson(50, 1000, 0.95)
        lo999, hi999 = mc.clopper_pearson(50, 1000, 0.999)
        assert lo999 <= lo95 and hi95 <= hi999

    @settings(max_examples=300, deadline=None)
    @given(trials=st.integers(1, 10**7), data=st.data(),
           gammas=st.lists(st.floats(0.01, 1 - 1e-9), min_size=2, max_size=2, unique=True))
    def test_interval_properties(self, trials, data, gammas):
        # the ends bracket hits/trials, rise with hits, widen with gamma, and
        # are the closed forms (moved outward by a few units) at 0 and trials
        hits = data.draw(st.one_of(st.just(0), st.just(trials), st.integers(0, trials)))
        low_gamma, high_gamma = sorted(gammas)
        lo, hi = mc.clopper_pearson(hits, trials, low_gamma)
        lo_wide, hi_wide = mc.clopper_pearson(hits, trials, high_gamma)
        assert 0.0 <= lo_wide <= lo <= hits / trials <= hi <= hi_wide <= 1.0
        if hits < trials:
            lo_next, hi_next = mc.clopper_pearson(hits + 1, trials, low_gamma)
            assert lo < lo_next and hi < hi_next
        log_level = math.log((1 - low_gamma) / 2)
        if hits == 0:
            closed = -math.expm1(log_level / trials)
            assert lo == 0.0 and closed <= hi <= closed * (1 + 1e-14)
        if hits == trials:
            closed = math.exp(log_level / trials)
            assert hi == 1.0 and closed * (1 - 1e-14) <= lo <= closed

    def test_validation(self):
        with pytest.raises(ValueError):
            mc.clopper_pearson(5, 4, 0.95)
        with pytest.raises(ValueError):
            mc.clopper_pearson(1, 10, 1.0)

    def test_coverage_calibration(self):
        # known p = 1/4 instance; the exact interval is conservative
        spec = prc.EventSpec(2.0, math.sqrt(2.0), STOPPED)
        covered = 0
        for rep in range(1000):
            est = mc.estimate_event(RADEMACHER, spec, 2, 10**4, seed=50_000 + rep, gamma=0.95)
            if est.ci_low <= 0.25 <= est.ci_high:
                covered += 1
        assert covered >= 930


class TestEstimateEvent:
    def test_certain_event(self):
        spec = prc.EventSpec(-1e6, 1e6, FINAL)
        est = mc.estimate_event(RADEMACHER, spec, 5, 100, seed=1)
        assert est.p_hat == 1.0 and est.ci_high == 1.0

    def test_impossible_event(self):
        spec = prc.EventSpec(6.0, 1e6, FINAL)  # x = n + 1, support <= 1
        est = mc.estimate_event(RADEMACHER, spec, 5, 1000, seed=2)
        assert est.p_hat == 0.0 and est.ci_low == 0.0

    def test_matches_oracle_quarter(self):
        spec = prc.EventSpec(2.0, math.sqrt(2.0), STOPPED)
        est = mc.estimate_event(RADEMACHER, spec, 2, 10**6, seed=3, gamma=0.999)
        assert est.ci_low <= 0.25 <= est.ci_high
        exact = orc.exact_event_probability(
            orc.LatticeLaw.from_increment_law(RADEMACHER), 2, 2.0, math.sqrt(2.0))
        assert exact.p_stopped == pytest.approx(0.25, abs=1e-15)

    def test_deterministic_across_runs(self):
        spec = prc.EventSpec(1.0, 3.0, STOPPED)
        a = mc.estimate_event(RADEMACHER, spec, 7, 200_000, seed=9)
        b = mc.estimate_event(RADEMACHER, spec, 7, 200_000, seed=9)
        assert a.hits == b.hits
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    def test_chunked_counts_match_manual_streams(self):
        # chunk j draws from stream j over paths [j*2^16, ...): recompute directly
        law = prc.TwoPointExtremal(0.5)
        spec = prc.EventSpec(1.0, 3.0, STOPPED)
        n, trials, seed = 6, mc.CHUNK_SIZE + 137, 31
        est = mc.estimate_event(law, spec, n, trials, seed)
        manual = 0
        for j, m in ((0, mc.CHUNK_SIZE), (1, 137)):
            inc = law.sample(prc.make_generator(seed, j), (m, n))
            manual += int(_mc_flags(law, inc, spec).sum())
        assert est.hits == manual

    def test_estimate_echoes_provenance(self):
        spec = prc.EventSpec(1.0, 3.0, STOPPED)
        est = mc.estimate_event(RADEMACHER, spec, 4, 50, seed=12, gamma=0.99)
        assert est.law == RADEMACHER and est.spec == spec
        assert (est.n, est.trials, est.seed, est.gamma) == (4, 50, 12, 0.99)

    def test_validation(self):
        spec = prc.EventSpec(1.0, 3.0, STOPPED)
        with pytest.raises(ValueError):
            mc.estimate_event(RADEMACHER, spec, 4, 0, seed=1)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1.5, math.nan])
    def test_gamma_is_checked_before_any_path_is_drawn(self, monkeypatch, gamma):
        def no_paths(*args):
            raise AssertionError("paths drawn before gamma was checked")

        monkeypatch.setattr(mc, "_count_hits", no_paths)
        spec = prc.EventSpec(1.0, 3.0, STOPPED)
        for estimate in (lambda: mc.estimate_event(RADEMACHER, spec, 4, 100, 1, gamma),
                         lambda: mc.estimate_events(RADEMACHER, [spec], 4, 100, 1, gamma),
                         lambda: mc.nested_event_estimates(RADEMACHER, 1.0, 3.0, 4, 100, 1,
                                                           gamma)):
            with pytest.raises(ValueError, match=r"gamma must be in \(0, 1\)"):
                estimate()


class TestNestedEstimates:
    def test_nesting_and_ordering(self):
        nested = mc.nested_event_estimates(RADEMACHER, 2.0, 2.5, 8, 100_000, seed=5)
        assert nested.nesting_ok
        assert nested.final.p_hat <= nested.max_qc.p_hat <= nested.stopped.p_hat

    def test_same_paths_for_all_three(self):
        nested = mc.nested_event_estimates(RADEMACHER, 1.0, 3.0, 6, 70_000, seed=8)
        spec = prc.EventSpec(1.0, 3.0, STOPPED)
        alone = mc.estimate_event(RADEMACHER, spec, 6, 70_000, seed=8)
        assert nested.stopped.hits == alone.hits


class TestRowBlocks:
    @pytest.mark.parametrize("text", LAWS)
    def test_blocks_concatenate_to_the_chunk(self, text):
        # the exponential's ziggurat consumes a variable number of draws per
        # variate; the stream still continues exactly across calls
        law = prc.parse_law(text)
        m, n = 1000, 7
        whole = law.sample(prc.make_generator(21, 3), (m, n))
        for rows in (1, 37, 300, m):
            rng = prc.make_generator(21, 3)
            blocks = [law.sample(rng, (min(rows, m - done), n)) for done in range(0, m, rows)]
            assert np.array_equal(np.concatenate(blocks), whole)

    @pytest.mark.parametrize("text", LAWS)
    def test_in_place_cumsum_is_the_cumsum(self, text):
        law = prc.parse_law(text)
        inc = law.sample(prc.make_generator(4), (300, 41))
        expected = np.cumsum(inc, axis=1)
        assert np.array_equal(np.cumsum(inc, axis=1, out=inc), expected)

    def test_budget_prefix_matches_the_full_width_mask(self):
        # the k-wise events scan columns k <= k_max; the full-width test ANDs
        # the per-k budget mask instead
        law = prc.TwoPointExtremal(0.5)
        ps = np.cumsum(law.sample(prc.make_generator(6), (2000, 12)), axis=1)
        steps = np.arange(1, 13, dtype=float)
        for v in (0.5, 1.0, 1.9, 2.45, 10.0):
            for variant, per_step in ((STOPPED, law.second_moment()),
                                      (TRUNCATED, law.truncated_second_moment(0.8))):
                spec = prc.EventSpec(1.5, v, variant, y=0.8 if variant is TRUNCATED else None)
                full = np.any((ps >= spec.x) & (per_step * steps <= v**2), axis=1)
                prefix, _ = mc.event_test(law, spec, 12)
                assert np.array_equal(np.any(ps[:, prefix] >= spec.x, axis=1), full)

    @pytest.mark.parametrize("block_elems", [1, 3 * 7 + 1, 1000, 1 << 20])
    def test_hits_do_not_depend_on_the_block_size(self, monkeypatch, block_elems):
        # small chunks, so that blocks of one row stay cheap and the last
        # block of a chunk is short
        monkeypatch.setattr(mc, "CHUNK_SIZE", 1000)
        law = prc.TwoPointExtremal(0.5)
        n, trials, seed = 7, 2 * 1000 + 137, 31
        specs = [prc.EventSpec(1.0, 2.0, STOPPED), prc.EventSpec(1.0, 3.0, MAX)]
        reference = [e.hits for e in mc.estimate_events(law, specs, n, trials, seed)]
        monkeypatch.setattr(mc, "BLOCK_ELEMS", block_elems)
        assert [e.hits for e in mc.estimate_events(law, specs, n, trials, seed)] == reference

    def test_memory_is_bounded_by_the_block(self):
        # one 8192 x 4000 chunk would be 262 MB per float64 array; blocks of
        # BLOCK_ELEMS steps keep the traced peak (numpy reports its arrays to
        # tracemalloc) to a few block sizes
        law = prc.TwoPointExtremal(1.0)
        n = 4000
        tracemalloc.start()
        try:
            nested = mc.nested_event_estimates(law, 200.0, math.sqrt(n * 1.0000001), n, 8192, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nested.nesting_ok
        assert peak <= 8 * mc.BLOCK_ELEMS * 8  # 16 MB; about 4 MB observed


class TestBlockLayout:
    """Blocks with more than four times as many paths as steps hold their
    statistic step by step, the others path by path; either way each unit
    counts what float uniforms below p, summed along rows, count on the same
    rows."""

    @staticmethod
    def _reference(law, specs, n, trials, seed, workers):
        p = law.atoms()[0][1]
        tests = [mc.event_test(law, spec, n) for spec in specs]
        counts, nesting_ok = [0] * len(specs), True
        for chunk, first, end in mc._units(law, trials, workers):
            rng = mc._unit_generator(seed, chunk, first, n)
            stat = np.cumsum(rng.random((end - first, n)) < p, axis=1)
            flags = [np.any(stat[:, steps] >= levels, axis=1) for steps, levels in tests]
            counts = [c + int(f.sum()) for c, f in zip(counts, flags)]
            nesting_ok &= all(np.all(b | ~a) for a, b in zip(flags, flags[1:]))
        return counts, nesting_ok

    @staticmethod
    def _specs(law, n):
        m2 = law.second_moment()
        x, v = 0.5 * math.sqrt(n), math.sqrt(n * m2 * (1 + 1e-7))
        v_half = math.sqrt(n // 2 * m2 * (1 + 1e-7))
        # max and stopped share a test within the whole-horizon budget, max at
        # 2x has its steps and other levels; max within half of it covers no
        # step, and stopped within half of it stops at step n // 2
        return [prc.EventSpec(x, v_half, MAX), prc.EventSpec(2 * x, v, FINAL),
                prc.EventSpec(2 * x, v, MAX), prc.EventSpec(x, v, MAX),
                prc.EventSpec(x, v, STOPPED), prc.EventSpec(x, v_half, STOPPED)]

    def _check_against_the_reference(self, law, n, trials):
        specs = self._specs(law, n)
        assert mc.event_test(law, specs[0], n)[0] == slice(0)
        counts, nesting_ok = mc._count_hits(law, specs, n, trials, seed=13)
        assert (counts, nesting_ok) == self._reference(law, specs, n, trials, 13, 2)
        assert counts[0] == 0 < counts[1] < counts[2] < counts[3] == counts[4]
        assert counts[5] > 0 and not nesting_ok  # some path reaches x only after step n // 2
        assert mc._count_hits(law, specs[:5], n, trials, seed=13) == (counts[:5], True)

    @pytest.mark.parametrize("text", ["extremal:1", "bounded:0.45"])
    @pytest.mark.parametrize("n, trials", [(255, 1000), (256, 1000), (257, 1000), (20, 6576),
                                           (500, 1000), (127, 2000), (128, 2000)])
    def test_counts_match_the_reference_kernel(self, monkeypatch, text, n, trials):
        # BLOCK_ELEMS // n rows is 3276, 516 and 512 at n = 20, 127 and 128, so
        # blocks are step-major at n = 20 and 127, except each unit's short
        # last block (12 and 484 rows), and path-major from n = 128; the last
        # block is short at every n (243-245 rows at n = 255..257, fewer than
        # n, and 107 at n = 500)
        monkeypatch.setattr(mc, "_workers", lambda: 2)
        self._check_against_the_reference(prc.parse_law(text), n, trials)

    @pytest.mark.parametrize("text", ["extremal:1", "bounded:0.45"])
    @pytest.mark.parametrize("n", [4, 257, 300])
    def test_one_row_blocks_match_the_reference_kernel(self, monkeypatch, text, n):
        # blocks of one path, whose counts start from 0; at n = 257 each block
        # holds an odd number of steps
        monkeypatch.setattr(mc, "_workers", lambda: 2)
        monkeypatch.setattr(mc, "BLOCK_ELEMS", n - 1)
        self._check_against_the_reference(prc.parse_law(text), n, 200)

    @pytest.mark.parametrize("text", ["extremal:1", "bounded:0.45"])
    @pytest.mark.parametrize("paths, n", [(131, 500), (255, 257), (3, 3), (1, 5), (1, 1)])
    def test_path_major_counts_are_the_uniform_counts(self, text, paths, n):
        # each path's own counts, on the uniforms `sample` draws
        law = prc.parse_law(text)
        stat = mc.sample_statistic(law, prc.make_generator(9, 1), (paths, n))
        p = law.atoms()[0][1]
        expected = np.cumsum(prc.make_generator(9, 1).random((paths, n)) < p, axis=1)
        assert stat.flags.c_contiguous and np.array_equal(_per_path(law, stat), expected)

    @pytest.mark.parametrize("paths, n", [(300, 41), (81, 20), (5, 1), (80, 20), (3, 2)])
    def test_float_sums_are_the_cumsum(self, paths, n):
        # the step-major rows are added in the order np.cumsum(axis=1) adds
        law = prc.CenteredExponential()
        stat = mc.sample_statistic(law, prc.make_generator(4, 1), (paths, n))
        expected = np.cumsum(law.sample(prc.make_generator(4, 1), (paths, n)), axis=1)
        assert stat.T.flags.c_contiguous == mc._step_major(paths, n)
        assert np.array_equal(stat, expected)

    @pytest.mark.parametrize("paths, n", [(257, 255), (256, 256), (255, 257), (12, 20), (3, 1),
                                          (516, 127), (512, 128), (508, 127), (5, 1), (4, 1)])
    def test_only_blocks_wider_than_long_are_step_major(self, paths, n):
        # step-major exactly when there are more than four paths per step (at
        # n = 1 the two layouts are the same memory)
        stat = mc.sample_statistic(RADEMACHER, prc.make_generator(2), (paths, n))
        size = stat.itemsize
        assert stat.shape == (paths, n)
        assert stat.strides == ((size, size * paths) if 4 * n < paths else (size * n, size))


class TestRawCut:
    """Philox's raw output r gives the uniform (r >> 11) * 2^-53, so a step is
    an up step exactly when r <= ceil(p * 2^53) * 2^11 - 1."""

    # p_hi of extremal:1e17 rounds to 1.0; then the last up output is 2^64 - 1
    PROBS = list(dict.fromkeys(
        [0.5, 0.45, 1 / 3, 2.0**-60, 1 - 2.0**-53, 12345 * 2.0**-53, 1.0]
        + [law.atoms()[0][1] for law in suites._corpus_laws()]
        + [inst.law.atoms()[0][1] for inst in suites.mc_corpus() if inst.law.atoms()]))

    def test_the_uniform_is_the_top_53_bits(self):
        raw = prc.make_generator(3, 1).bit_generator.random_raw(1 << 17)
        assert np.array_equal(prc.make_generator(3, 1).random(1 << 17),
                              (raw >> np.uint64(11)) * 2.0**-53)

    @pytest.mark.parametrize("p", PROBS)
    def test_raw_comparison_is_the_uniform_comparison(self, p):
        last = mc._last_up_output(p)
        raw = prc.make_generator(7, 2).bit_generator.random_raw(1 << 17)
        assert np.array_equal(raw <= last, prc.make_generator(7, 2).random(1 << 17) < p)

    @pytest.mark.parametrize("p", PROBS)
    def test_edges_of_the_cut(self, p):
        cut = math.ceil(Fraction(p) * 2**53) * 2**11
        assert mc._last_up_output(p) == cut - 1 < 2**64
        edges = []
        for r, up in ((cut - 1, True), (cut, False), (cut - 2**11, True),
                      (cut + 2**11 - 1, False)):
            if 0 <= r < 2**64:
                assert ((r >> 11) * 2.0**-53 < p) is up
                edges.append((r, up))
        # sample_statistic itself, on these raw outputs five times over (enough
        # rows for a step-major column), in both layouts
        raw = np.array([r for r, _ in edges] * 5, dtype=np.uint64)
        ups = np.array([up for _, up in edges] * 5)
        rng = SimpleNamespace(bit_generator=SimpleNamespace(
            random_raw=lambda shape: raw.reshape(shape)))
        law = prc.TwoPoint(1.0, -1.0, p, max(1.0 - p, 1e-13), "edges")
        assert np.array_equal(mc.sample_statistic(law, rng, (len(raw), 1))[:, 0], ups)
        assert np.array_equal(mc.sample_statistic(law, rng, (1, len(raw)))[0], np.cumsum(ups))


class TestWorkers:
    """Counts are summed in unit order, so the number of threads that run the
    units never moves a hit count or the nesting flag."""

    @pytest.fixture
    def fast_switching(self):
        # switch threads often, so that a lost update between workers shows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n", [1, 3, 5, 500])
    @pytest.mark.parametrize("text", LAWS)
    def test_counts_do_not_depend_on_the_worker_count(self, monkeypatch, fast_switching,
                                                      text, n):
        # a block of BLOCK_ELEMS // n rows holds a multiple of 4 steps at
        # n = 1 and 500 but not at n = 3 or 5, and the second chunk's ranges
        # are short
        law = prc.parse_law(text)
        x, v = 0.5 * math.sqrt(n), math.sqrt(n * law.second_moment() * (1 + 1e-7))
        specs = [prc.EventSpec(x, v, FINAL), prc.EventSpec(x, v, MAX),
                 prc.EventSpec(x, v, STOPPED), prc.EventSpec(x, v, TRUNCATED, y=0.8)]
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(mc, "_workers", lambda workers=workers: workers)
            results.append(mc._count_hits(law, specs, n, mc.CHUNK_SIZE + 137, seed=41))
        assert results[0][1] and all(c > 0 for c in results[0][0][1:])
        assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("text", LAWS[:3])
    def test_an_advanced_range_is_the_same_rows_of_the_chunk(self, text):
        law = prc.parse_law(text)
        m = 1000
        for n in (1, 3, 5, 7):
            whole = mc.sample_statistic(law, prc.make_generator(17, 2), (m, n))
            for first in (4, 36, 500, 996):
                rng = mc._unit_generator(17, 2, first, n)
                assert np.array_equal(
                    _per_path(law, mc.sample_statistic(law, rng, (m - first, n))), whole[first:])

    def test_a_range_must_start_a_philox_block(self):
        with pytest.raises(ValueError, match="Philox block"):
            mc._unit_generator(17, 2, 6, 3)

    def test_units_cover_every_row_once(self):
        trials = 2 * mc.CHUNK_SIZE + 137
        for law, workers in ((RADEMACHER, 3), (prc.CenteredExponential(), 3), (RADEMACHER, 1)):
            units = mc._units(law, trials, workers)
            rows = [(chunk * mc.CHUNK_SIZE + first, chunk * mc.CHUNK_SIZE + end)
                    for chunk, first, end in units]
            assert rows[0][0] == 0 and rows[-1][1] == trials
            assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))
            assert all(first % 4 == 0 for _, first, _ in units)
        assert len(mc._units(RADEMACHER, trials, 3)) == 9
        assert len(mc._units(prc.CenteredExponential(), trials, 3)) == 3

    def test_a_worker_exception_reaches_the_caller(self, monkeypatch):
        # the calling thread waits until a worker thread has failed, so the
        # failure is raised in a thread other than the caller's
        failed = threading.Event()
        unit_hits = mc._unit_hits

        def fail_off_the_caller(*args):
            if threading.current_thread() is threading.main_thread():
                failed.wait(timeout=60)
                return unit_hits(*args)
            failed.set()
            raise RuntimeError("worker failed")

        monkeypatch.setattr(mc, "_workers", lambda: 3)
        monkeypatch.setattr(mc, "_unit_hits", fail_off_the_caller)
        threads = threading.active_count()
        spec = prc.EventSpec(1.0, 3.0, STOPPED)
        with pytest.raises(RuntimeError, match="worker failed"):
            mc.estimate_event(RADEMACHER, spec, 5, 2 * mc.CHUNK_SIZE, seed=3)
        assert failed.is_set()
        assert threading.active_count() == threads


def test_a_failed_unit_stops_the_units_not_yet_started(monkeypatch):
    # unit 0 fails at once and every other unit sleeps, so most of them have
    # not started when the failure reaches the caller
    ran = []
    unit_hits = mc._unit_hits

    def fail_first(*args):
        unit = args[-1]
        if unit[:2] == (0, 0):
            raise RuntimeError("unit 0 failed")
        ran.append(unit)
        time.sleep(0.02)
        return unit_hits(*args)

    monkeypatch.setattr(mc, "_workers", lambda: 2)
    monkeypatch.setattr(mc, "_unit_hits", fail_first)
    threads = threading.active_count()
    trials = 16 * mc.CHUNK_SIZE
    assert len(mc._units(RADEMACHER, trials, 2)) == 32
    with pytest.raises(RuntimeError, match="unit 0 failed"):
        mc.estimate_event(RADEMACHER, prc.EventSpec(1.0, 3.0, STOPPED), 4, trials, seed=3)
    assert len(ran) < 31
    assert threading.active_count() == threads


class TestPinnedHits:
    """Hit counts for fixed seeds; changing how the paths are drawn or the
    events decided must not move them."""

    def test_nested_long_paths_over_two_chunks(self):
        law = prc.TwoPointExtremal(1.0)
        nested = mc.nested_event_estimates(law, 50.0, math.sqrt(500 * 1.0000001), 500,
                                           mc.CHUNK_SIZE + 137, seed=7)
        assert (nested.final.hits, nested.max_qc.hits, nested.stopped.hits) == (893, 1641, 1641)
        assert nested.nesting_ok

    def test_stopped_with_binding_budget(self):
        law = prc.TwoPointExtremal(1.0)
        v = math.sqrt(250 * 1.0000001)  # k_max = 250 of n = 500
        specs = [prc.EventSpec(25.0, v, STOPPED), prc.EventSpec(25.0, v, FINAL)]
        ests = mc.estimate_events(law, specs, 500, mc.CHUNK_SIZE + 137, seed=8)
        assert [e.hits for e in ests] == [7615, 0]

    def test_cexp_truncated(self):
        law = prc.CenteredExponential()
        specs = [prc.EventSpec(6.0, math.sqrt(10.0), TRUNCATED, y=3.0),  # k_max = 14 of 20
                 prc.EventSpec(6.0, math.sqrt(20.0), TRUNCATED, y=3.0),
                 prc.EventSpec(6.0, math.sqrt(40.0), MAX)]
        ests = mc.estimate_events(law, specs, 20, mc.CHUNK_SIZE + 137, seed=20240105)
        assert [e.hits for e in ests] == [6507, 10091, 10091]

    @pytest.mark.parametrize("law, n, x, v2, seed, hits", [
        (prc.TwoPointBounded(0.5), 20, 4.0, 10.0, 20240103, (6036, 13446, 13446)),
        (prc.TwoPointExtremal(1.0), 50, 8.0, 50.0, 20240101, (10522, 17181, 17181)),
    ])
    def test_step_major_blocks(self, law, n, x, v2, seed, hits):
        # mc corpus instances, whose blocks are wider than they are long
        nested = mc.nested_event_estimates(law, x, math.sqrt(v2 * 1.0000001), n,
                                           mc.CHUNK_SIZE + 137, seed)
        assert (nested.final.hits, nested.max_qc.hits, nested.stopped.hits) == hits
        assert nested.nesting_ok

    def test_non_dyadic_boundary_instance(self):
        # one up and two down steps sum to 1 + 2 * (-0.45) < 0.1 exactly, in
        # every order, so only paths with two up steps reach x at n
        law = prc.TwoPointBounded(0.45)
        v = math.sqrt(3 * law.second_moment() * (1 + 1e-7))
        nested = mc.nested_event_estimates(law, 0.1, v, 3, 200_000, seed=99)
        assert (nested.final.hits, nested.max_qc.hits, nested.stopped.hits) == (
            45866, 105002, 105002)


class TestNonDyadicBoundary:
    """bounded:0.45 at x = 0.1: one up and two down steps sum to
    1 + 2 * (-0.45) < 0.1 exactly, while float sums of some orders round up
    to 0.1.  The oracle, Monte Carlo and both event tests decide such paths
    alike, by the exact sum."""

    LAW = prc.TwoPointBounded(0.45)
    X = 0.1

    def _v(self, n):
        return math.sqrt(n * self.LAW.second_moment() * (1 + 1e-7))

    @pytest.mark.parametrize("n", [3, 5])
    def test_intervals_contain_the_oracle(self, n):
        v = self._v(n)
        exact = orc.exact_event_probability(
            orc.LatticeLaw.from_increment_law(self.LAW), n, self.X, v)
        nested = mc.nested_event_estimates(self.LAW, self.X, v, n, 200_000, seed=99,
                                           gamma=1 - 1e-6)
        assert nested.nesting_ok
        for est, p in ((nested.stopped, exact.p_stopped), (nested.max_qc, exact.p_max),
                       (nested.final, exact.p_final)):
            assert est.ci_low <= p <= est.ci_high

    @pytest.mark.parametrize("n", [3, 5])
    def test_every_path_is_decided_by_its_exact_sum(self, n):
        law, m, seed = self.LAW, 2048, 5
        inc = law.sample(prc.make_generator(seed, 0), (m, n))  # the paths of chunk 0
        reached = [[s >= Fraction(self.X) for s in itertools.accumulate(map(Fraction, row))]
                   for row in inc.tolist()]
        assert (np.cumsum(inc, axis=1) >= self.X).tolist() != reached  # float sums differ
        for variant in (STOPPED, MAX, FINAL):  # the budget never binds
            spec = prc.EventSpec(self.X, self._v(n), variant)
            expected = [r[-1] if variant is FINAL else any(r) for r in reached]
            flags = _mc_flags(law, inc, spec)
            assert flags.tolist() == expected
            for row, flag in zip(inc, flags):
                assert exact_hit(row, law.second_moment(), spec) == flag
            assert mc.estimate_event(law, spec, n, m, seed).hits == sum(expected)


class TestVerdicts:
    def _estimate_with(self, p_hat, ci_low, ci_high):
        spec = prc.EventSpec(1.0, 1.0, FINAL)
        hits = int(p_hat * 1000)
        return mc.Estimate(RADEMACHER, spec, 2, 1000, hits, 0.95, 0,
                           p_hat, ci_low, ci_high)

    def test_pass_when_bound_above_interval(self):
        est = self._estimate_with(0.10, 0.094, 0.106)
        assert mc.verify_bound(est, LogProb.from_log(math.log(0.25))).verdict == "PASS"

    def test_flag_when_interval_excludes_validity(self):
        est = self._estimate_with(0.30, 0.294, 0.306)
        check = mc.verify_bound(est, LogProb.from_log(math.log(0.25)))
        assert check.verdict == "FLAG"
        assert check.estimate is est  # reproduction bundle rides along

    def test_extremal_law_deep_instance_passes(self):
        law = prc.TwoPointExtremal(1.0)
        n, x = 50, 8.0
        v = math.sqrt(50 * 1.0000001)
        spec = prc.EventSpec(x, v, STOPPED)
        est = mc.estimate_event(law, spec, n, 200_000, seed=14, gamma=0.999)
        bound = hoeffding(TailQuery(x, v, n))
        assert mc.verify_bound(est, bound).verdict == "PASS"


class TestBudgetRule:
    """Monte Carlo counts the steps within a variance budget by the oracle's
    rule, so the two decide the same events at a budget written as a square
    root."""

    def test_square_root_budget_agrees_with_the_oracle(self):
        # v * v = 0.7499999999999999 rounds below the three-step budget 3 * 0.25
        law, n, x, v = prc.TwoPointExtremal(0.25), 3, 1.0, math.sqrt(0.75)
        exact = orc.exact_event_probability(orc.LatticeLaw.from_increment_law(law), n, x, v)
        # reached at step 1 (0.2), or down then up twice (0.8 * 0.2 * 0.2)
        assert exact.p_stopped == pytest.approx(0.232, abs=1e-15)
        assert exact.p_max == exact.p_stopped
        # two or three up-steps in three
        assert exact.p_final == pytest.approx(0.104, abs=1e-15)
        nested = mc.nested_event_estimates(law, x, v, n, 1 << 17, seed=5, gamma=1 - 1e-6)
        assert nested.nesting_ok
        for est, p in ((nested.stopped, exact.p_stopped), (nested.max_qc, exact.p_max),
                       (nested.final, exact.p_final)):
            assert est.ci_low <= p <= est.ci_high

    def test_zero_truncated_moment_uses_no_budget(self):
        # the atoms 1 and 0 truncated at y = 0.5 leave E[xi^2 1{xi <= y}] = 0,
        # so every step is within any budget
        law, n, m, seed = prc.TwoPoint(1.0, 0.0, 0.5, 0.5, "t"), 3, 100, 1
        spec = prc.EventSpec(0.5, 1.0, TRUNCATED, y=0.5)
        assert prc.budget_steps(0.0, n, spec.v) == n
        assert prc.budget_steps(5e-324, n, 1e10) == n  # v^2 / per_step overflows
        inc = law.sample(prc.make_generator(seed, 0), (m, n))  # the paths of chunk 0
        hits = sum(exact_hit(row, law.truncated_second_moment(spec.y), spec) for row in inc)
        assert hits == sum(row.max() == 1.0 for row in inc)
        assert mc.estimate_event(law, spec, n, m, seed).hits == hits


@pytest.mark.parametrize("call, args, message", [
    (mc.estimate_event, (RADEMACHER, prc.EventSpec(1.0, 3.0, STOPPED), 0, 10, 1),
     "n must be >= 1, got 0"),
    (mc.estimate_event, (RADEMACHER, prc.EventSpec(1.0, 3.0, STOPPED), 4, 0, 1),
     "trials must be >= 1, got 0"),
])
def test_invalid_arguments_are_refused(call, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(*args)
