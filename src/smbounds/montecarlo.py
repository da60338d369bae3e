"""Empirical event-probability estimation with exact binomial confidence
intervals.

Trials are partitioned into fixed 2^16-path chunks; chunk j draws from a
counter-based substream keyed by (seed, j), so hit counts are bit-identical
no matter how the chunks are scheduled, and path i is the same path in every
run with the same seed.

The work is split into units, each a chunk and a range of its rows.  They run
on a standard thread pool, imported on first use, of one thread per CPU this
process may run on (at most MAX_WORKERS).  The threads overlap only inside
numpy calls that release the interpreter lock: the generators' draws,
elementwise compares and arithmetic, reductions, and a 1-D cumsum with no
dtype cast into an array other than its input.  A cumsum that casts or runs
in place holds the lock, so the block kernels make none; the step-major row
loop holds it between its row additions.  On a two-point law each step
takes one 64-bit Philox output and Philox advances in blocks of four outputs,
so every range starts on a row that is a multiple of 4 and its worker enters
the chunk's substream there with `advance`; a chunk is split into one range
per worker.  The exponential's ziggurat takes a variable number of outputs per
draw, so on `cexp` each unit is a whole chunk.  The calling thread waits, then
sums the counts and ANDs the nesting flags in unit order, so results never
depend on the number of workers or on their scheduling.  When a unit fails,
the units not yet started are cancelled and the failure reaches the caller.

A worker draws its range in row blocks of about BLOCK_ELEMS steps.  The
generator fills rows in order, so the blocks concatenate to the range drawn at
once, and hit counts do not depend on the block size.  Each block's running
statistic is taken once and each distinct test of `event_test` is made on it
once (max and stopped share one when the budget covers the horizon).  A block
holds at least one whole path, max(1, BLOCK_ELEMS // n) rows, and `event_test`
builds n + 1 thresholds, so memory is O(workers x max(BLOCK_ELEMS, n)) + O(n)
for any number of trials.  On a two-point law {a > b} the statistic is the
int32 count of a-steps, compared with the exact thresholds j*_k of
`processes.count_thresholds` (the oracle's states and thresholds), so no float
sum decides a path that lands on x; other laws sum float increments.
An a-step is a raw Philox output r at most ceil(p * 2^53) * 2^11 - 1, so that
`random()`, (r >> 11) * 2^-53, is below p.
Blocks of more than four times as many paths as steps (n < 128) hold their
statistic step-major, so the running sums and the tests run along whole rows
of paths.  A longer two-point block is counted in one pass over all its steps,
path after path (`_running_counts`), and each test is one reduction along each
path's own row (`_reaches`).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bounds import LogProb
from .processes import (
    EventSpec,
    EventVariant,
    IncrementLaw,
    budget_steps,
    count_thresholds,
    make_generator,
)

__all__ = [
    "CHUNK_SIZE",
    "BLOCK_ELEMS",
    "MAX_WORKERS",
    "Estimate",
    "BoundCheck",
    "NestedEstimates",
    "clopper_pearson",
    "estimate_event",
    "estimate_events",
    "nested_event_estimates",
    "verify_bound",
]

#: Fixed chunk size; substream j covers paths [j * CHUNK_SIZE, (j+1) * CHUNK_SIZE).
CHUNK_SIZE = 1 << 16

#: Steps per row block; a worker draws max(1, BLOCK_ELEMS // n) paths at a time.
BLOCK_ELEMS = 1 << 16

#: Most threads one count runs on: four blocks in flight are the 2^18 steps
#: that one block held when the loop ran in a single thread.
MAX_WORKERS = 4


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")


def clopper_pearson(hits: int, trials: int, gamma: float) -> tuple[float, float]:
    """Exact (conservative) two-sided binomial interval at confidence gamma.

    Valid at any sample size and arbitrarily deep in the tail, unlike the
    normal approximation.
    """
    if not 0 <= hits <= trials or trials < 1:
        raise ValueError(f"need 0 <= hits <= trials, got hits={hits}, trials={trials}")
    _check_gamma(gamma)
    from scipy.special import betaincinv  # the beta quantile, kept off the import path

    alpha = 1.0 - gamma
    lo = 0.0 if hits == 0 else float(betaincinv(hits, trials - hits + 1, alpha / 2.0))
    hi = 1.0 if hits == trials else float(betaincinv(hits + 1, trials - hits, 1.0 - alpha / 2.0))
    return lo, hi


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate of one event probability with its provenance."""

    law: IncrementLaw
    spec: EventSpec
    n: int
    trials: int
    hits: int
    gamma: float
    seed: int
    p_hat: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class BoundCheck:
    """Verdict of an estimate against a bound, carrying both for reproduction."""

    verdict: str  # "PASS" or "FLAG"
    estimate: Estimate
    bound: LogProb


@dataclass(frozen=True)
class NestedEstimates:
    """The three nested events estimated on the same sampled paths."""

    final: Estimate
    max_qc: Estimate
    stopped: Estimate
    nesting_ok: bool  # final => max => stopped held on every path


@functools.lru_cache
def _last_up_output(p: float) -> int:
    """The largest raw r with (r >> 11) * 2^-53 < p: the integer r >> 11 < p * 2^53 exactly
    when r >> 11 < ceil(p * 2^53), that is r < ceil(p * 2^53) * 2^11, at most 2^64 at p <= 1.
    Every row block of a law asks for the same p, so the exact value is kept per p."""
    return math.ceil(Fraction(p) * 2**53) * 2**11 - 1


def _step_major(paths: int, n: int) -> bool:
    """Whether a block of `paths` paths of n steps holds its statistic step by
    step: when it has more than four times as many paths as steps, n < 128 in
    blocks of BLOCK_ELEMS steps.  From n = 96 the path-major two-point kernel
    is 10-30% faster than the row loop; on float sums the row loop is ahead by
    up to 10% at n = 96-200, and the two are level from n = 256."""
    return 4 * n < paths


def sample_statistic(law: IncrementLaw, rng: np.random.Generator, shape) -> np.ndarray:
    """The running statistic of `shape` = (paths, n) freshly drawn paths that
    `event_test` applies to: on a two-point law the int32 count of upper-atom
    steps, decided on the raw output behind each uniform `sample` compares
    with p (`_last_up_output`, so the same paths); otherwise the float partial
    sums.  A `_step_major` block is stored as the transpose view of a
    contiguous (n, paths) array whose rows are added in order, the additions
    `np.cumsum(axis=1)` makes.  Otherwise float sums run path by path, and
    two-point counts run on over the whole block, path after path: row i also
    counts the upper steps of rows < i, so path i's own count at step k is
    stat[i, k] - stat[i - 1, -1] (`_path_starts`)."""
    paths, n = shape
    atoms = law.atoms()
    if atoms is None:
        block = law.sample(rng, shape)
        if not _step_major(paths, n):
            return np.cumsum(block, axis=1, out=block)
    else:
        raw = rng.bit_generator.random_raw(paths * n)
        cut = np.uint64(_last_up_output(atoms[0][1]))
        if not _step_major(paths, n):
            return _running_counts(raw, cut)[:paths * n].reshape(shape)
        block = raw.reshape(shape) <= cut
    by_step = block.T.astype(np.float64 if atoms is None else np.int32, order="C")
    for k in range(1, n):  # by rows, the additions np.cumsum(axis=1) makes
        by_step[k] += by_step[k - 1]
    return by_step.T


def _running_counts(raw: np.ndarray, cut: np.uint64) -> np.ndarray:
    """The running count of the raw outputs at most `cut`, over `raw`'s own
    memory and padded to an even length.  Each pass over the block runs
    without the interpreter lock: the compare writes int32 itself, and the one
    accumulate is 1-D, with no cast, into memory other than its input.  It
    runs over the totals of pairs of steps, half as many additions in a chain
    as a count step by step, and the first step of each pair is then added to
    the count before it."""
    size = len(raw) + len(raw) % 2
    flags = np.empty(size, np.int32)
    flags[len(raw):] = 0  # the pad step of an odd block is no upper step
    np.less_equal(raw, cut, out=flags[:len(raw)])
    pairs = flags.reshape(-1, 2)
    counts = raw.view(np.int32)[:size].reshape(-1, 2)  # raw is read, its memory free
    pairs[:, 1] += pairs[:, 0]
    np.cumsum(pairs[:, 1], out=counts[:, 1])
    np.add(counts[:-1, 1], pairs[1:, 0], out=counts[1:, 0])
    counts[0, 0] = pairs[0, 0]
    return counts.reshape(-1)


def _path_starts(law: IncrementLaw, stat: np.ndarray) -> np.ndarray | int:
    """What each path of a path-major block `stat` of `sample_statistic`
    counts from: the count the block had run up to before it on a two-point
    law, 0 for float sums."""
    if law.atoms() is None:
        return 0
    return np.concatenate(([0], stat[:-1, -1]))


def event_test(law: IncrementLaw, spec: EventSpec, n: int) -> tuple[slice, np.ndarray]:
    """The steps that decide `spec` on n-step paths of `law`, and the levels
    the running statistic must reach there: a path hits when
    `stat[steps] >= levels` at one of them.  The variance processes of IID
    laws are deterministic, so the budget holds on the same leading
    `budget_steps` steps of every path.  The levels are j*_k of
    `count_thresholds` on a two-point law, x otherwise."""
    truncated = spec.variant is EventVariant.TRUNCATED_ANY_K
    per_step = law.truncated_second_moment(spec.y) if truncated else law.second_moment()
    k_max = budget_steps(per_step, n, spec.v)
    if truncated or spec.variant is EventVariant.STOPPED_ANY_K:
        steps = slice(k_max)
    elif k_max < n:  # the max and final events need the whole horizon in budget
        steps = slice(0)
    else:
        steps = slice(n - 1 if spec.variant is EventVariant.FINAL_ONLY else 0, n)
    atoms = law.atoms()
    if atoms is None:
        return steps, np.full(n, spec.x)[steps]
    (a, _), (b, _) = atoms
    return steps, count_thresholds(a, b, spec.x, n)[1:][steps].astype(np.int32)


def _workers() -> int:
    """Threads for one count: the CPUs this process may run on, at most
    MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(MAX_WORKERS, cpus)


def _units(law: IncrementLaw, trials: int, workers: int) -> list[tuple[int, int, int]]:
    """(chunk, first row, end row) of every work unit, in the order the counts
    are summed: one range per worker in each chunk of a two-point law, whose
    ranges start on multiples of 4 rows, and whole chunks otherwise."""
    parts = workers if law.atoms() is not None else 1
    units = []
    for chunk, start in enumerate(range(0, trials, CHUNK_SIZE)):
        m = min(CHUNK_SIZE, trials - start)
        cuts = [m * i // parts // 4 * 4 for i in range(parts)] + [m]
        units += [(chunk, first, end) for first, end in zip(cuts, cuts[1:]) if first < end]
    return units


def _unit_generator(seed: int, chunk: int, first: int, n: int) -> np.random.Generator:
    """Chunk `chunk`'s substream positioned at row `first` of its (paths, n)
    two-point draws.  Each step takes one 64-bit output and Philox advances in
    blocks of four outputs, so first * n must be a multiple of 4."""
    if first * n % 4:
        raise ValueError(f"row {first} of {n} steps does not start a Philox block")
    rng = make_generator(seed, chunk)
    if first:
        rng.bit_generator.advance(first * n // 4)
    return rng


def _reaches(stat: np.ndarray, starts, steps: slice, levels: np.ndarray) -> np.ndarray:
    """Whether each path of a path-major block reaches its levels at one of
    the steps: stat[i, k] - starts[i] >= levels[k], that is
    max_k(stat[i, k] - levels[k]) >= starts[i].  Integer differences are
    exact, and a float difference s - x is >= 0 exactly when s >= x: rounding
    keeps the sign of the exact difference, and with gradual underflow it is 0
    only when s == x."""
    if not levels.size:  # a budget that covers no step
        return np.zeros(len(stat), bool)
    return np.max(stat[:, steps] - levels, axis=1) >= starts


def _block_flags(
    law: IncrementLaw, rng: np.random.Generator, shape, tests: Sequence[tuple[slice, np.ndarray]],
) -> list[np.ndarray]:
    """Whether each of `shape` = (paths, n) freshly drawn paths passes each
    test.  Only the flags outlive the call, so a block's statistic is freed
    before the next block is drawn."""
    stat = sample_statistic(law, rng, shape)
    if _step_major(*shape):  # each test runs along whole rows of paths
        return [np.any(stat.T[steps] >= levels[:, None], axis=0) for steps, levels in tests]
    starts = _path_starts(law, stat)  # one reduction along each path's own row
    return [_reaches(stat, starts, steps, levels) for steps, levels in tests]


def _unit_hits(
    law: IncrementLaw, tests: Sequence[tuple[slice, np.ndarray]], index: Sequence[int],
    n: int, seed: int, unit: tuple[int, int, int],
) -> tuple[list[int], bool]:
    """Hit counts of each spec, decided by tests[index[spec]], and the nesting flag of one unit."""
    chunk, first, end = unit
    rng = _unit_generator(seed, chunk, first, n)
    rows = max(1, BLOCK_ELEMS // n)
    counts = [0] * len(tests)
    pairs = [(a, b) for a, b in zip(index, index[1:]) if a != b]
    nesting_ok = True
    for done in range(first, end, rows):
        flags = _block_flags(law, rng, (min(rows, end - done), n), tests)
        counts = [c + int(np.count_nonzero(hit)) for c, hit in zip(counts, flags)]
        nesting_ok = nesting_ok and all(np.all(flags[b] | ~flags[a]) for a, b in pairs)
    return [counts[i] for i in index], nesting_ok


def _count_hits(
    law: IncrementLaw, specs: Sequence[EventSpec], n: int, trials: int, seed: int
) -> tuple[list[int], bool]:
    """Hit counts of each spec over `trials` paths, and whether every path
    that hits one spec also hits the next one in `specs`.  The pool is
    imported on first use and the caller waits; a failed unit cancels the
    units not yet started and is raised here once every thread is joined."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    from concurrent.futures import ThreadPoolExecutor  # kept off the import path

    tests = [event_test(law, spec, n) for spec in specs]
    keys = [(steps.indices(n), levels.tobytes()) for steps, levels in tests]
    distinct = dict(zip(keys, tests))  # specs with the same steps and levels share a test
    index, tests = [list(distinct).index(key) for key in keys], list(distinct.values())
    workers = _workers()
    with ThreadPoolExecutor(workers) as pool:
        per_unit = list(pool.map(lambda unit: _unit_hits(law, tests, index, n, seed, unit),
                                 _units(law, trials, workers)))
    unit_counts, unit_flags = zip(*per_unit)
    return [sum(column) for column in zip(*unit_counts)], all(unit_flags)


def _estimates(
    law: IncrementLaw, specs: Sequence[EventSpec], n: int, trials: int, seed: int,
    gamma: float,
) -> tuple[list[Estimate], bool]:
    """The estimate of each spec on the same paths, and the nesting flag of
    `_count_hits`.  gamma is checked before any path is drawn."""
    _check_gamma(gamma)
    counts, nesting_ok = _count_hits(law, specs, n, trials, seed)
    intervals = [clopper_pearson(hits, trials, gamma) for hits in counts]
    return [Estimate(law, spec, n, trials, hits, gamma, seed, hits / trials, lo, hi)
            for spec, hits, (lo, hi) in zip(specs, counts, intervals)], nesting_ok


def estimate_events(
    law: IncrementLaw,
    specs: Sequence[EventSpec],
    n: int,
    trials: int,
    seed: int,
    gamma: float = 0.95,
) -> list[Estimate]:
    """Estimate several events on the same simulated paths (shared seeds mean
    shared paths, so per-path comparisons across specs are meaningful)."""
    return _estimates(law, specs, n, trials, seed, gamma)[0]


def estimate_event(
    law: IncrementLaw,
    spec: EventSpec,
    n: int,
    trials: int,
    seed: int,
    gamma: float = 0.95,
) -> Estimate:
    """Estimate one event probability from `trials` independent paths."""
    return estimate_events(law, [spec], n, trials, seed, gamma)[0]


def nested_event_estimates(
    law: IncrementLaw,
    x: float,
    v: float,
    n: int,
    trials: int,
    seed: int,
    gamma: float = 0.95,
) -> NestedEstimates:
    """Estimate the final-time, running-max, and stopped events on the same
    paths and check the per-path implications final => max => stopped."""
    specs = [
        EventSpec(x, v, EventVariant.FINAL_ONLY),
        EventSpec(x, v, EventVariant.MAX_WITH_FINAL_QC),
        EventSpec(x, v, EventVariant.STOPPED_ANY_K),
    ]
    (final, max_qc, stopped), nesting_ok = _estimates(law, specs, n, trials, seed, gamma)
    return NestedEstimates(final, max_qc, stopped, nesting_ok)


def verify_bound(estimate: Estimate, bound: LogProb) -> BoundCheck:
    """PASS when the interval does not statistically contradict the bound
    (ci_low <= bound), FLAG otherwise.  Comparing against ci_low rather than
    p_hat keeps ordinary sampling noise from flagging; a PASS never asserts
    tightness."""
    verdict = "PASS" if estimate.ci_low <= bound.value else "FLAG"
    return BoundCheck(verdict, estimate, bound)

