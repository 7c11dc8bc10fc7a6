"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "BranchBoundaryError",
    "SupportProximityError",
    "ConvergenceError",
    "DivergenceError",
    "PoleError",
    "CollisionError",
    "OutOfSpanError",
    "PrecisionError",
]


class DomainError(ValueError):
    """A parameter or evaluation point lies outside the admissible domain."""


class BranchBoundaryError(DomainError):
    """Evaluation point sits on a branch boundary where no branch is minimal."""


class SupportProximityError(DomainError):
    """Evaluation point is on, or numerically indistinguishable from, a measure's support."""


class ConvergenceError(ArithmeticError):
    """An iterative scheme exhausted its budget before reaching tolerance."""


class DivergenceError(ArithmeticError):
    """A series is provably divergent for the requested argument."""


class PoleError(ZeroDivisionError):
    """A zero denominator factor was hit before a series terminated."""


class CollisionError(DomainError):
    """Evaluation point coincides with an interpolation node of a rationalized family."""


class OutOfSpanError(LookupError):
    """Requested functional value is outside the span fixed by the defining recurrence."""


class PrecisionError(ArithmeticError):
    """A sum cancels past the reach of the arithmetic that formed it.

    The double-double series kernel (``qseries.TerminatingPhi``) raises it
    when the cancellation condition times 2^-104 exceeds
    ``qseries._DD_REACH`` = 1e-11: past that point fewer than 11 digits,
    relative to the largest value over the nodes, are left.
    """
