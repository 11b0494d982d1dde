"""Exception types shared across the package."""


class UtmqpError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(UtmqpError, ValueError):
    """A parameter violates a documented precondition (e.g. eps <= 0)."""


class InvalidContourError(UtmqpError, ValueError):
    """A contour is unusable for the requested integral: the integrand is
    not finite at a point of it."""


class OutOfDomainError(UtmqpError, ValueError):
    """A transform was requested outside its half-plane of definition
    and no closed-form continuation is available."""


class SingularArgumentError(UtmqpError, ZeroDivisionError):
    """An expansion in powers of 1/lambda was evaluated at lambda = 0."""


class UnsupportedOrderError(UtmqpError, ValueError):
    """A derivative order exceeds what the solver configuration supports."""


class RecipeDegenerateError(UtmqpError, ValueError):
    """The non-uniqueness construction was fed corner-compatible data,
    for which it provably yields the zero field."""


class TruncationError(UtmqpError, RuntimeError):
    """No finite truncation radius could be certified for an infinite ray."""


class AccuracyError(UtmqpError, RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget.

    Carries the best available estimate so callers can decide whether to
    accept it anyway.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
