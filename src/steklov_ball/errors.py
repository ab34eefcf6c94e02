"""Exception hierarchy for the steklov_ball package.

Everything raised on purpose by this package derives from
:class:`SteklovBallError`, mixed in with the closest builtin category so
callers can keep catching ``ValueError`` / ``ArithmeticError`` /
``RuntimeError`` if they prefer.
"""


class SteklovBallError(Exception):
    """Base class for all errors raised by steklov_ball."""


class InvalidMode(SteklovBallError, ValueError):
    """A mode index (parity, m, l) or component selector is out of range."""


class DomainError(SteklovBallError, ValueError):
    """A coordinate argument lies outside the domain of the function."""


class NotRepresentable(DomainError, OverflowError):
    """A value the argument asks for lies beyond double-precision range."""


class StepTooLarge(SteklovBallError, ValueError):
    """A finite-difference stencil would leave the region of validity."""


class DirichletResonance(SteklovBallError, ArithmeticError):
    """The eigenvalue formula is evaluated at (or too close to) a pole.

    The denominator of the requested eigenvalue vanishes, so the Steklov
    eigenvalue does not exist at this parameter point.
    """


class NonRealEigenvalue(SteklovBallError, ArithmeticError):
    """A quantity that must be real came out with a non-negligible
    imaginary part.

    This never happens for valid inputs; it indicates a loss of the
    phase normalization and is raised rather than silently truncated.
    """


class QuadratureTooCoarse(SteklovBallError, RuntimeError):
    """A quadrature result changed too much under refinement to be
    trusted at the requested tolerance."""


class ScanExhausted(SteklovBallError, RuntimeError):
    """A root scan reached its search ceiling before finding the
    requested number of sign changes."""
