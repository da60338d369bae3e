"""Tail bounds for supermartingales with increments bounded from above:
closed-form bound family, exact first-passage oracles, and reproducible
Monte Carlo verification."""

from .bounds import (
    LogProb,
    TailQuery,
    azuma_refined,
    bennett,
    bennett_classic,
    bennett_inverse,
    bernstein,
    courbot,
    freedman,
    fuk_nagaev,
    haeusler,
    hoeffding,
    hoeffding_bounded,
    hoeffding_independent,
    prohorov,
)
from .cumulant import (
    cgf_bound,
    check_tilted_second_moment,
    cumulant_bound_linear,
    mgf_bound,
    minimize_tilt,
)
from .montecarlo import Estimate, estimate_event, verify_bound
from .oracle import ExactResult, LatticeLaw, exact_event_probability
from .processes import (
    CenteredExponential,
    DriftedTwoPoint,
    EventSpec,
    EventVariant,
    IncrementLaw,
    TwoPoint,
    TwoPointBounded,
    TwoPointExtremal,
    exceedance_tail,
)

__version__ = "0.1.0"
