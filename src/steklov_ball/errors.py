"""Exception hierarchy for the steklov_ball package.

Everything raised on purpose by this package derives from
:class:`SteklovBallError`, mixed in with the closest builtin category so
callers can keep catching ``ValueError`` / ``ArithmeticError`` /
``RuntimeError`` if they prefer.

It also holds the one argument policy every entry point applies: the
integer, selector and positive-real rules, the (l, k^2, theta) domain
of the eigenvalues and its bounds.
"""

import math
import operator

_L_MAX = 200  # the highest degree l that any entry point of the package accepts
_K2_MAX = 1e10  # the largest |k^2| and |k^2/theta| that any entry point accepts


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


def _integer(value, name: str, lo: float, hi: float = math.inf, error: type = InvalidMode) -> int:
    """`value` as a plain int: a Python or numpy integer, not a bool, in
    [lo, hi]; anything else raises `error`."""
    if type(value) is int and lo <= value <= hi:  # the common case costs one test
        return value
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool) or not lo <= number <= hi:
        raise error(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return number


def _choice(value, name: str, allowed: tuple[int, ...]) -> int:
    """A family or tau selector as a plain int: a Python or numpy integer,
    not a bool, in `allowed`; anything else raises InvalidMode."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number not in allowed:
        options = ", ".join(map(str, allowed[:-1])) + f" or {allowed[-1]}"
        raise InvalidMode(f"{name} must be {options}, got {value!r}")
    return number


def _real(value) -> float:
    """`value` as a float; NaN for a complex number and for anything that
    float() refuses, so that every range test that follows fails."""
    try:
        return math.nan if isinstance(value, complex) else float(value)
    except (TypeError, ValueError):
        return math.nan


def _complex(value, name: str) -> complex:
    """`value` as a complex; anything complex() refuses raises DomainError."""
    try:
        return complex(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a complex number, got {value!r}") from None


def _positive(value, name: str, error: type = DomainError) -> float:
    """`value` as a float in (0, inf); complex numbers and anything that
    float() refuses raise `error`."""
    number = _real(value)
    if not 0.0 < number < math.inf:
        raise error(f"{name} must be positive and finite, got {value!r}")
    return number


def _k2_within(k2: float, theta: float) -> bool:
    """The one k^2 bound, for the eigenvalues and the root queries alike:
    |k^2| and |k^2/theta| at most 1e10 (NaN is outside)."""
    return max(abs(k2), abs(k2) / theta) <= _K2_MAX


def _validate_eig_args(l, k2, theta=1.0) -> tuple[int, float, float]:
    """The eigenvalue domain: a degree l in [1, 200], a finite nonzero
    real k^2 and a positive finite theta with |k^2| and |k^2/theta| at
    most 1e10, since the continued fraction starts above |k| and |q|."""
    l = _integer(l, "degree l", 1, _L_MAX)
    if isinstance(k2, complex):
        raise InvalidMode(f"k2 must be real, got {k2!r}")
    number = _real(k2)
    if not math.isfinite(number) or number == 0.0:
        raise InvalidMode(f"k2 must be finite and nonzero, got {k2!r}")
    k2 = number
    theta = _positive(theta, "theta")
    if not _k2_within(k2, theta):
        raise DomainError(f"|k2| and |k2/theta| must be at most {_K2_MAX:g}, got {k2!r}, {theta!r}")
    return l, k2, theta
