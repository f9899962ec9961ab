"""Exception types shared across the library.

Every error carries a human-readable message naming the violated invariant;
the CLI maps these classes onto exit codes.
"""


class StairdistError(Exception):
    """Base class for all library errors."""


class ValidationError(StairdistError):
    """Input data violates a structural invariant (parse-level failure)."""


class GroundSetMismatch(StairdistError):
    """Two values that must share a ground set do not."""


class AmbientMismatch(StairdistError):
    """Two staircases that must share an ambient poset do not."""


class SizeGuardExceeded(StairdistError):
    """An exhaustive search was requested above its configured size guard."""


class NegativeEpsilon(StairdistError):
    """A flow/smoothing parameter must be >= 0."""


class PointOutsideAmbient(StairdistError):
    """Point query outside the ambient poset (a < b required when clamped)."""


class EmptyInterval(StairdistError):
    """An open interval (a, b) requires a < b."""


class EmptySimplex(StairdistError):
    """Simplices are nonempty vertex subsets."""


class InvalidMetric(ValidationError):
    """Matrix is not a finite metric (symmetry, zero diagonal, positivity)."""


class InvalidFiltration(StairdistError):
    """Filtration violates face closure or birth monotonicity."""


class NotADendrogram(StairdistError):
    """Operation requires a dendrogram-shaped formigram."""


class NotOnePoint(StairdistError):
    """Operation requires a filtration over a singleton vertex set."""
