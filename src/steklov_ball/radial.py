"""Closed-form radial profiles and their exact derivative algebra.

Every radial coefficient used by the eigenfields is a finite sum of
terms

    coef r^p j_l(c r)   and   coef r^p j_l'(c r),

each keyed by its wavenumber c (possibly complex), its derivative order
d in {0, 1} and its integer power p.  Differentiation closes on this
class once j_l'' is eliminated through the spherical Bessel equation

    j_l''(z) = -(2/z) j_l'(z) - (1 - l(l+1)/z^2) j_l(z),

so each term's derivative is two or three terms of the same shape and
arbitrarily high derivatives stay exact: no finite differences are
involved anywhere in the residual evaluations built on top of this.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DirichletResonance, DomainError, NotRepresentable, _positive, _validate_eig_args
from .specfun import _j_and_deriv

__all__ = [
    "RadialKind",
    "RadialFunction",
    "RadialPair",
    "radial_profiles",
    "bessel_operator",
]


class RadialKind(Enum):
    """The four closed-form radial families.

    TOROIDAL     e1 = j_l(k r) on the curl-type tangential harmonic;
                 divergence-free.
    SOLENOIDAL   (e2, e3) pair built from j_l(k r); divergence-free.
    COMPRESSIVE  gradient-type pair built from j_l(k r / sqrt(theta));
                 carries all of the field's divergence.
    MATCHED      the combination a*SOLENOIDAL + COMPRESSIVE whose radial
                 component vanishes on the boundary sphere.
    """

    TOROIDAL = "toroidal"
    SOLENOIDAL = "solenoidal"
    COMPRESSIVE = "compressive"
    MATCHED = "matched"


@dataclass(frozen=True)
class RadialFunction:
    """Finite sum of r^p j_l(c r) and r^p j_l'(c r) terms of one degree l.

    ``terms`` holds ``((c, d, p), coef)`` pairs, each meaning
    coef r^p j_l^(d)(c r): d = 0 for j_l and d = 1 for j_l'.
    """

    l: int
    terms: tuple[tuple[tuple[complex, int, int], complex], ...]

    @classmethod
    def zero(cls, l: int) -> "RadialFunction":
        return cls(l=l, terms=())

    @classmethod
    def build(cls, l: int, c: complex, alpha: dict | None = None, beta: dict | None = None) -> "RadialFunction":
        """sum_p alpha[p] r^p j_l(c r) + sum_p beta[p] r^p j_l'(c r)."""
        if c == 0:
            raise DomainError("wavenumber of a radial term must be nonzero")
        c = complex(c)
        pairs = [((c, 0, int(p)), coef) for p, coef in (alpha or {}).items()]
        pairs += [((c, 1, int(p)), coef) for p, coef in (beta or {}).items()]
        return _collect(l, pairs)

    def __call__(self, r):
        """f at a radius r > 0, or at every entry of an array of radii, one
        scalar call each.  Raises NotRepresentable where a term's argument
        |c r| is below 1e-300 (j_l'(c r) divides by it), its r^p would
        overflow, or the sum is not finite (as where a j_l' term reads a
        j_l(c r) that is 0 or subnormal)."""
        if not (isinstance(r, float) and 0.0 < r < math.inf):
            if np.ndim(r):
                r = np.asarray(r)
                if r.dtype.kind not in "biuf":
                    raise DomainError(f"r must be real, got {r!r}")
                return np.array([self(v) for v in r.ravel().tolist()], dtype=complex).reshape(r.shape)
            r = _positive(r, "r")
        total, log_r = 0j, math.log(r)
        for (c, d, p), coef in self.terms:
            z = c * r
            if abs(z) < 1e-300 or p * log_r > 709.0:  # before the tower or r**p can fail
                total = complex(math.nan)
                break
            total += coef * r**p * _j_and_deriv(self.l, z)[d]
        if not cmath.isfinite(total):
            raise NotRepresentable(f"a radial term of degree {self.l} leaves double range at r = {r!r}")
        return total

    def deriv(self) -> "RadialFunction":
        """Exact derivative, closed under the spherical Bessel equation.

        Built once per instance: every later call returns the same object,
        so a chain f.deriv().deriv() costs its algebra once."""
        return self._deriv

    @cached_property
    def _deriv(self) -> "RadialFunction":
        # (r^p j)'  = p r^(p-1) j + c r^p j'
        # (r^p j')' = (p-2) r^(p-1) j' - c r^p j + (l(l+1)/c) r^(p-2) j,
        # the second through j'' = -(2/z) j' - (1 - l(l+1)/z^2) j at z = c r.
        big_l = self.l * (self.l + 1)
        pairs = []
        for (c, d, p), coef in self.terms:
            if d == 0:
                pairs += [((c, 0, p - 1), p * coef), ((c, 1, p), c * coef)]
            else:
                pairs += [
                    ((c, 1, p - 1), (p - 2) * coef),
                    ((c, 0, p), -c * coef),
                    ((c, 0, p - 2), big_l / c * coef),
                ]
        return _collect(self.l, pairs)

    def scaled(self, factor: complex) -> "RadialFunction":
        return _collect(self.l, ((key, coef * factor) for key, coef in self.terms))

    def times_power(self, coef: complex, power: int) -> "RadialFunction":
        """Multiply by coef * r^power."""
        return _collect(self.l, (((c, d, p + power), a * coef) for (c, d, p), a in self.terms))

    def __add__(self, other: "RadialFunction") -> "RadialFunction":
        if not isinstance(other, RadialFunction):
            return NotImplemented
        if other.l != self.l:
            raise DomainError("cannot add radial functions of different degree")
        return _collect(self.l, self.terms + other.terms)


def _collect(l: int, pairs) -> RadialFunction:
    # The (key, coef) pairs as one function: equal keys summed, zeros dropped.
    merged: dict[tuple[complex, int, int], complex] = {}
    for key, coef in pairs:
        merged[key] = merged.get(key, 0.0) + coef
    return RadialFunction(l=l, terms=tuple((key, complex(coef)) for key, coef in merged.items() if coef != 0))


def bessel_operator(f: RadialFunction, k2: complex) -> RadialFunction:
    """Apply r^2 f'' + 2 r f' + (k^2 r^2 - l(l+1)) f exactly."""
    big_l = f.l * (f.l + 1)
    df = f.deriv()
    return (
        df.deriv().times_power(1.0, 2)
        + df.times_power(2.0, 1)
        + f.times_power(complex(k2), 2)
        + f.scaled(-float(big_l))
    )


@dataclass(frozen=True)
class RadialPair:
    """Radial coefficients of one closed-form field family.

    TOROIDAL carries ``e1`` (profile on the curl-type harmonic); the
    other kinds carry ``(e2, e3)`` (gradient-type and radial harmonics).
    Unused slots are zero functions.
    """

    kind: RadialKind
    l: int
    k2: float
    theta: float
    e1: RadialFunction
    e2: RadialFunction
    e3: RadialFunction

    @cached_property
    def phi(self) -> RadialFunction:
        """Modal divergence coefficient Phi = e3' + 2 e3 / r - sqrt(l(l+1)) e2 / r
        (div E = Phi(r) Y_n), built once per pair."""
        root = math.sqrt(self.l * (self.l + 1))
        return (
            self.e3.deriv()
            + self.e3.times_power(2.0, -1)
            + self.e2.times_power(-root, -1)
        )

    def scaled(self, factor: complex) -> "RadialPair":
        return RadialPair(
            kind=self.kind,
            l=self.l,
            k2=self.k2,
            theta=self.theta,
            e1=self.e1.scaled(factor),
            e2=self.e2.scaled(factor),
            e3=self.e3.scaled(factor),
        )


def _wavenumbers(k2: float, theta: float) -> tuple[complex, complex]:
    # k is the principal square root of k2 (purely imaginary for k2 < 0)
    k = cmath.sqrt(complex(k2, 0.0))
    return k, k / math.sqrt(theta)


def radial_profiles(kind, l: int, k2: float, theta: float = 1.0) -> RadialPair:
    """Closed-form radial profiles of the four field families.

    All profiles are exact specfun expressions:

    TOROIDAL     e1 = j_l(k r)
    SOLENOIDAL   e2 = sqrt(l(l+1)) (k j_l'(k r) + j_l(k r)/r),
                 e3 = l(l+1) j_l(k r)/r
    COMPRESSIVE  e2 = sqrt(l(l+1)) j_l(q r)/r, e3 = q j_l'(q r),
                 with q = k/sqrt(theta)
    MATCHED      a * SOLENOIDAL + COMPRESSIVE with
                 a = -j_l'(q) q / (j_l(k) l(l+1)), which forces the
                 radial component to vanish at r = 1.

    The arguments have the domain of `lambda1`.  Raises
    DirichletResonance for kind=MATCHED when j_l(k) is too small for the
    combination coefficient to be meaningful, and NotRepresentable when
    j_l(k) or j_l'(q) is 0, subnormal or not finite.
    """
    kind = RadialKind(kind)
    l, k2, theta = _validate_eig_args(l, k2, theta)
    k, q = _wavenumbers(k2, theta)
    big_l = l * (l + 1)
    root = math.sqrt(big_l)
    zero = RadialFunction.zero(l)

    if kind is RadialKind.TOROIDAL:
        e1 = RadialFunction.build(l, k, alpha={0: 1.0})
        return RadialPair(kind=kind, l=l, k2=k2, theta=theta, e1=e1, e2=zero, e3=zero)

    if kind is RadialKind.SOLENOIDAL:
        e2 = RadialFunction.build(l, k, alpha={-1: root}, beta={0: root * k})
        e3 = RadialFunction.build(l, k, alpha={-1: big_l})
        return RadialPair(kind=kind, l=l, k2=k2, theta=theta, e1=zero, e2=e2, e3=e3)

    if kind is RadialKind.COMPRESSIVE:
        e2 = RadialFunction.build(l, q, alpha={-1: root})
        e3 = RadialFunction.build(l, q, beta={0: q})
        return RadialPair(kind=kind, l=l, k2=k2, theta=theta, e1=zero, e2=e2, e3=e3)

    # MATCHED: combination coefficient divides by j_l(k)
    jl_k, jl_k_prime = _j_and_deriv(l, k)
    jl_q_prime = _j_and_deriv(l, q)[1]
    if not all(sys.float_info.min <= abs(v) < math.inf for v in (jl_k, jl_q_prime)):
        raise NotRepresentable(
            f"j_{l}(k) or j_{l}'(q) leaves the normal double range at k2 = {k2!r}, "
            f"theta = {theta!r}; the matched combination is not representable"
        )
    # Newton-step scale |j/j'|: fires only near an actual zero, never
    # in the small-argument regime where j and j' shrink together.
    if abs(jl_k) < 1e-12 * abs(k * jl_k_prime):
        raise DirichletResonance(
            f"j_{l}(k) vanishes at k2 = {k2!r}; the matched combination is undefined"
        )
    a = -jl_q_prime * q / (jl_k * big_l)
    solenoidal = radial_profiles(RadialKind.SOLENOIDAL, l, k2, theta)
    compressive = radial_profiles(RadialKind.COMPRESSIVE, l, k2, theta)
    return RadialPair(
        kind=kind,
        l=l,
        k2=k2,
        theta=theta,
        e1=zero,
        e2=solenoidal.e2.scaled(a) + compressive.e2,
        e3=solenoidal.e3.scaled(a) + compressive.e3,
    )
