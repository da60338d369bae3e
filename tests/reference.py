"""The per-path reference for the deviation events, used only by the tests.

It decides one path from its exact rational partial sums.  It shares no code
with `count_thresholds` or `montecarlo.event_test`, which decide by up-step
counts, so Monte Carlo and the oracle can be checked against it.
"""

import functools
import itertools
import math
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


def exact_absorbed_cum(law, n: int, x: float) -> list[float]:
    """The first-passage probabilities P(X_k >= x for some k' <= k), k = 0..n,
    of IID steps on the two atoms of `law` (a > b, upper atom first, taken
    as exact doubles), each correctly rounded from an exact integer DP over
    the count j of a-steps.

    With p_a = A/D and p_b = B/D over their common power-of-two denominator
    D, the masses after k steps are held times D^k, so every step is exact
    in integers: M'[j] = M[j-1] A + M[j] B.  A count is absorbed at step k
    when j a + (k - j) b >= x, decided in rationals; the absorbed total by
    step k is C_k / D^k with C_k = C_(k-1) D + (mass absorbed at step k)."""
    (a, pa), (b, pb) = law.atoms
    (na, da), (nb, db) = pa.as_integer_ratio(), pb.as_integer_ratio()
    d = max(da, db)
    na, nb = na * (d // da), nb * (d // db)
    fa, fb, fx = Fraction(a), Fraction(b), Fraction(x)
    mass, absorbed, scale = [1], 0, 1
    cum = [0.0]
    for k in range(1, n + 1):
        mass = [u * nb + w * na for u, w in zip(mass + [0], [0] + mass)]
        # the first count whose sum reaches x, clamped to the live states
        cut = min(max(math.ceil((fx - k * fb) / (fa - fb)), 0), len(mass))
        absorbed = absorbed * d + sum(mass[cut:])
        mass = mass[:cut]
        scale *= d
        cum.append(absorbed / scale)
    return cum
