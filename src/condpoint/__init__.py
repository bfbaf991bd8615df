"""Desk-scale conditional expectation toolkit.

Regular-event and partition conditioning, pointwise conditional expectation
at null events by shrinking windows, conditional densities by the ratio
construction, and executable demonstrations of why the window limit needs a
conditioning variable rather than a generic algebra.
"""

from .density import (
    ConditionalDensity,
    conditional_density,
    conditional_expectation_via_density,
    marginal,
)
from .errors import CondpointError
from .factorization import FactorizationResult, factorize, pointwise_from_any_omega
from .partition import (
    Partition,
    PartitionCondExp,
    VerificationReport,
    bayes_discrete,
    partition_cond_exp,
    total_probability,
    verify_cond_exp,
)
from .pathology import (
    ApproximationFamily,
    ParadoxReport,
    borel_kolmogorov,
    paradox_reports,
    ratio_normal_instance,
    too_coarse_demo,
    too_fine_demo,
)
from .spaces import (
    ConditionalEstimate,
    DensityGrid1D,
    DensityGrid2D,
    DiscreteAtoms,
    Estimate,
    Event,
    RandomVariable,
    Sampler,
    complement_within,
    cond_expectation_event,
    coordinate,
    expectation,
    indicator_moment,
    probability,
    pushforward,
    union_events,
    variance,
)
from .window import (
    PointwiseCondExp,
    Schedule,
    WindowTrace,
    convergence_order,
    evaluate_on_grid,
    window_estimate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
