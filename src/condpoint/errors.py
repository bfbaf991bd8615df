"""Exception types shared across the library."""


class CondpointError(Exception):
    """Base class for all condpoint errors."""


class UndefinedPredicate(CondpointError):
    """An event or a variable could not be evaluated at some point of the space."""


class NonIntegrable(CondpointError):
    """A random variable takes non-finite values under the grid quadrature."""


class EmptyRange(CondpointError):
    """All probability mass falls outside the requested bins."""


class InvalidPartition(CondpointError):
    """Cells are not disjoint, not exhaustive, or not all of positive mass."""


class ZeroEvidence(CondpointError):
    """Posterior denominator is zero; no cell explains the evidence."""


class NonApproachablePoint(CondpointError):
    """A shrinking window hit zero (or floored) probability, so the target
    point lies outside the support of the conditioning variable."""


class InsufficientTrace(CondpointError):
    """Too few usable estimates to measure a convergence order."""


class OutOfRectangle(CondpointError):
    """Query point lies outside the joint density's rectangle."""


class NullMarginal(CondpointError):
    """Marginal density below the floor; conditioning outside the support."""


class NotMeasurable(CondpointError):
    """A level set carries more than one distinct value, so no factorization
    through the conditioning variable exists."""

    def __init__(self, message, witnesses=None):
        super().__init__(message)
        self.witnesses = list(witnesses) if witnesses is not None else []


class EmptyLevelSet(CondpointError):
    """The requested level set contains no points."""


class NotNull(CondpointError):
    """The event was required to have probability zero but does not."""


class DegenerateA(CondpointError):
    """Demonstration is vacuous: the variable is constant on the null event."""


class FamilyNotShrinking(CondpointError):
    """An approximation family violated positivity or monotone shrinkage."""


class GridMismatch(CondpointError):
    """Two traces do not share a comparison grid."""


class ConfigError(CondpointError):
    """A configuration document violates the schema."""


class UnsupportedQuery(CondpointError, ValueError):
    """A query a space cannot answer as posed: a grid window off the axes, a
    level band with no width, generators to verify against that overlap."""


class TaskError(CondpointError):
    """A scenario task failed to produce its artifacts."""
