"""Exception types shared across the package."""


class IneqError(Exception):
    """Base class for all library errors."""


class InvalidParameter(IneqError, ValueError):
    """A constructor or operation argument violates its constraint."""


class InvalidInterval(IneqError, ValueError):
    """Integration interval with a >= b."""


class NonConvergence(IneqError):
    """Adaptive quadrature exhausted its subdivision budget.

    Carries the best estimate obtained so far and the residual error bound.
    """

    def __init__(self, message, estimate=float("nan"), error_bound=float("inf")):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class NoisyLimit(IneqError):
    """One-sided derivative extrapolants diverge (non-differentiable point)."""

    def __init__(self, message, estimates=()):
        super().__init__(message)
        self.estimates = tuple(estimates)


class MomentDiverges(IneqError):
    """A required moment integral failed to converge (condition B3)."""


class DegenerateDenominator(IneqError):
    """A denominator required to be nonzero vanished (h1(mu)=0 or D(F)=0)."""


class DomainError(IneqError):
    """A value is incompatible with the measure's transform (e.g. log of 0)."""


class KinkPoint(IneqError):
    """The contamination path has no derivative at the point: it moves a
    quantile off the top of an atom, and the measure jumps."""


class ParseError(IneqError):
    """A CSV row could not be parsed; carries the 1-based row number."""

    def __init__(self, row, content):
        super().__init__(f"row {row}: cannot parse {content!r} as income")
        self.row = row
        self.content = content


class EmptyInput(IneqError):
    """Input file contained no data rows."""


class NegativeIncome(IneqError):
    """A CSV row held a negative income; carries the 1-based row number."""

    def __init__(self, row, value):
        super().__init__(f"row {row}: negative income {value!r}")
        self.row = row
        self.value = value
