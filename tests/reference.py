"""The per-path reference for the deviation events, used only by the tests.

It decides one path from its exact rational partial sums.  It shares no code
with `count_thresholds` or `montecarlo.event_test`, which decide by up-step
counts, so Monte Carlo and the oracle can be checked against it.
"""

import functools
import itertools
from fractions import Fraction

from smbounds.processes import EventVariant, budget_steps


@functools.lru_cache(maxsize=1 << 12)
def _partial_sums(increments: tuple) -> tuple:
    """The exact rational partial sums of one path; a test that decides many
    events on the same paths builds each path's sums once."""
    return tuple(itertools.accumulate(map(Fraction, increments)))


def exact_hit(increments, per_step: float, spec) -> bool:
    """Exact indicator of `spec` on one path of IID increments, whose variance
    process (the quadratic characteristic, or the truncated variance for a
    truncated event) grows by `per_step` each step.

    The partial sums are compared with x inclusively, in exact rationals.  The
    budget holds on the leading `budget_steps` steps, and the k-wise variants
    need both conditions at the same k.
    """
    x = Fraction(spec.x)
    reached = [s >= x for s in _partial_sums(tuple(increments))]
    k_max = budget_steps(per_step, len(reached), spec.v)
    if spec.variant in (EventVariant.STOPPED_ANY_K, EventVariant.TRUNCATED_ANY_K):
        return any(reached[:k_max])
    if k_max < len(reached):
        return False
    if spec.variant is EventVariant.MAX_WITH_FINAL_QC:
        return any(reached)
    if spec.variant is EventVariant.FINAL_ONLY:
        return reached[-1]
    raise AssertionError(f"unhandled variant {spec.variant}")
