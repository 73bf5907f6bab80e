"""Exception types shared across the library."""


class LimitSeriesError(Exception):
    """Base class for all library errors."""


class MonotonicityViolation(LimitSeriesError, ValueError):
    """Height data does not describe a staircase (heights increase somewhere)."""


class LengthMismatch(LimitSeriesError, ValueError):
    """Componentwise operation applied to tuples of different lengths."""


class CapExceeded(LimitSeriesError):
    """A computation needs more x-degree or t-adic precision than the context tracks."""


class CapExhausted(LimitSeriesError):
    """No x-degree headroom left for a colon step."""


class InvalidTruncation(LimitSeriesError, ValueError):
    """Truncation target exceeds the context's current t-truncation."""


class InvalidSequence(LimitSeriesError, ValueError):
    """Level sequence is not strictly decreasing (or not positive)."""


class DivisionWitnessFailure(LimitSeriesError):
    """A low-order coefficient expected to vanish during exact division did not."""


class PrimeTooSmall(LimitSeriesError, ValueError):
    """The prime does not dominate the degrees in play."""


class DomainError(LimitSeriesError, ValueError):
    """Arguments outside the stated parameter range of an operation."""


class IdentityFailure(LimitSeriesError):
    """An arithmetic identity that must hold for generated plans failed."""


class ResourceLimit(LimitSeriesError):
    """Requested computation exceeds desk-scale limits and is refused
    before it starts."""


class OracleResourceLimit(ResourceLimit):
    """A conditions matrix would exceed the desk-scale entries budget."""


class HypothesisFailed(LimitSeriesError):
    """Theorem application refused: a hypothesis check failed or was unresolved."""


class MultiplicitiesUnset(LimitSeriesError):
    """Diagram operation requires multiplicities but none are set."""


class NotUnloaded(LimitSeriesError):
    """Degree formula requested for a diagram that is not unloaded."""


class BoundaryWarning(UserWarning):
    """Some level n_j equals v*h for a column height h: the algebraic special
    fiber suppresses one more cell than the slice-count rule at that column."""
