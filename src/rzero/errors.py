"""Exception hierarchy shared by all rzero modules."""


class RZeroError(Exception):
    """Base class for every error raised by this package."""


class DomainError(RZeroError, ValueError):
    """A precondition on the inputs was violated."""


class PoleOfGammaError(DomainError):
    """log-gamma requested at (or within tolerance of) a non-positive integer."""


class SingularPointError(DomainError):
    """chi requested at a genuine pole (cos(pi*s/2) = 0 without cancellation)."""


class DegeneratePointError(DomainError):
    """eta requested at s = 1, where the square root branch is undefined."""


class RegionError(DomainError):
    """Asymptotic surrogate requested outside its admissible left region."""


class NearZeroDenominatorError(RZeroError, ArithmeticError):
    """A denominator factor of the asymptotic surrogate is below tolerance."""


class ZeroOnPathError(RZeroError, ArithmeticError):
    """A zero lies on (or numerically indistinguishably close to) a path.

    Carries the offending point in ``where`` when known.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class NonIntegerWindingError(RZeroError, ArithmeticError):
    """Accumulated argument variation around a closed contour failed the
    integrality guard, signalling inadequate evaluation accuracy."""


class ContourZeroError(RZeroError, ArithmeticError):
    """A zero kept sitting on the counting contour after all retries."""


class NewtonError(RZeroError, ArithmeticError):
    """Newton refinement of a zero failed to converge."""


class BacklundError(RZeroError, ArithmeticError):
    """A measured argument variation along a contour edge exceeded the
    Backlund bound that certifies it."""
