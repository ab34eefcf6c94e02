"""Classical (scalar) Steklov spectrum of the n-dimensional ball.

The harmonic extension of a degree-j spherical harmonic is homogeneous
of degree j, so the full spectrum of the Dirichlet-to-Neumann map on
the ball of radius R is j/R, j = 0, 1, 2, ..., each with the dimension
of the degree-j harmonic space as multiplicity.  That makes every
derived quantity (multiplicities, counting function, Weyl exponent)
exactly computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotRepresentable, _integer, _positive

__all__ = [
    "ScalarSpectrum",
    "ball_steklov_spectrum",
    "multiplicity",
    "harmonic_polynomial_dimension",
    "weyl_exponent_fit",
]

_MAX_FLATTENED = 10**6
# The largest dimension n: `multiplicity` runs n - 3 big-integer steps
# per degree, so an unbounded n could keep one call busy for minutes.
_MAX_DIM = 10**4


def multiplicity(n: int, j: int) -> int:
    """Multiplicity of the eigenvalue j/R on the n-ball, in exact
    integer arithmetic: (2j + n - 2) (j + n - 3)! / (j! (n - 2)!) for
    j >= 1, and 1 for the simple bottom eigenvalue j = 0.

    The factorial quotient is evaluated as (2j + n - 2) * (j+1) ... (j+n-3)
    divided by (n-2)!, so nothing overflows before the final exact
    division even at j = 10^4, n = 6.
    """
    j = _integer(j, "index j", 0)
    n = _integer(n, "dimension", 2, _MAX_DIM)
    if j == 0:
        return 1
    if n == 2:
        return 2
    product = 2 * j + n - 2
    for i in range(1, n - 2):
        product *= j + i
    return product // math.factorial(n - 2)


def harmonic_polynomial_dimension(n: int, j: int) -> int:
    """Dimension of the space of harmonic homogeneous polynomials of
    degree j in n variables: C(n+j-1, j) - C(n+j-3, j-2)."""
    j = _integer(j, "degree j", 0)
    n = _integer(n, "dimension", 2, _MAX_DIM)
    first = math.comb(n + j - 1, j)
    second = math.comb(n + j - 3, j - 2) if j >= 2 else 0
    return first - second


@dataclass(frozen=True)
class ScalarSpectrum:
    """Steklov spectrum of the ball: entries (j, j/R, multiplicity),
    sorted by eigenvalue, first entry (0, 0, 1)."""

    dim: int
    radius: float
    entries: tuple[tuple[int, float, int], ...]

    def __post_init__(self) -> None:
        previous = -1.0
        for _, eigenvalue, mult in self.entries:
            if eigenvalue < previous or mult < 1:
                raise DomainError("spectrum entries out of order")
            previous = eigenvalue

    def flattened(self, limit: int | None = None) -> list[float]:
        """Eigenvalues repeated by multiplicity, ascending."""
        out: list[float] = []
        for _, eigenvalue, mult in self.entries:
            remaining = None if limit is None else limit - len(out)
            if remaining is not None and remaining <= 0:
                break
            take = mult if remaining is None else min(mult, remaining)
            out.extend([eigenvalue] * take)
        return out


def ball_steklov_spectrum(n: int, radius: float = 1.0, count: int = 100) -> ScalarSpectrum:
    """First `count` (flattened) Steklov eigenvalues of the n-ball of
    the given radius, grouped by degree with multiplicities.  Raises
    NotRepresentable when the largest of them, j/R, is not finite."""
    n = _integer(n, "dimension", 2, _MAX_DIM)
    radius = _positive(radius, "radius")
    count = _integer(count, "count", 1, _MAX_FLATTENED, DomainError)
    entries = []
    total = 0
    j = 0
    while total < count:
        mult = multiplicity(n, j)
        entries.append((j, j / radius, mult))
        total += mult
        j += 1
    if not math.isfinite(entries[-1][1]):
        raise NotRepresentable(f"eigenvalue {entries[-1][0]}/R overflows at radius {radius!r}")
    return ScalarSpectrum(dim=n, radius=radius, entries=tuple(entries))


def weyl_exponent_fit(n: int, count: int) -> float:
    """Least-squares slope of log(eigenvalue) against log(rank) over the
    upper half of the unit-ball spectrum; the counting asymptotics make
    it approach 1/(n - 1) as count grows."""
    count = _integer(count, "count", 1000, _MAX_FLATTENED, DomainError)
    values = ball_steklov_spectrum(n, 1.0, count).flattened(count)
    ranks = np.arange(1, len(values) + 1, dtype=float)
    half = len(values) // 2
    x = np.log(ranks[half:])
    y = np.log(np.asarray(values[half:], dtype=float))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
