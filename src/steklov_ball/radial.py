"""Closed-form radial profiles and their exact derivative algebra.

Every radial coefficient used by the eigenfields has the shape

    f(r) = sum over terms of  alpha(r) j_l(c r) + beta(r) j_l'(c r),

with alpha, beta Laurent polynomials in r and c a (possibly complex)
wavenumber.  Differentiation closes on this class once j_l'' is
eliminated through the spherical Bessel equation

    j_l''(z) = -(2/z) j_l'(z) - (1 - l(l+1)/z^2) j_l(z),

so arbitrarily high derivatives stay exact: no finite differences are
involved anywhere in the residual evaluations built on top of this.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property

import numpy as np

from .errors import DirichletResonance, DomainError, NotRepresentable, _validate_eig_args
from .specfun import _j_and_deriv, _j_pair_lanes, _pow

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


Poly = tuple[tuple[int, complex], ...]  # Laurent polynomial: ((power, coef), ...)


def _poly(d: dict[int, complex]) -> Poly:
    return tuple(sorted((int(p), complex(c)) for p, c in d.items() if c != 0))


def _poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for p, c in b:
        out[p] = out.get(p, 0.0) + c
    return _poly(out)


def _poly_scale(a: Poly, s: complex) -> Poly:
    return _poly({p: c * s for p, c in a})


def _poly_shift(a: Poly, s: complex, dp: int) -> Poly:
    # multiply by s * r^dp
    return _poly({p + dp: c * s for p, c in a})


def _poly_deriv(a: Poly) -> Poly:
    return _poly({p - 1: c * p for p, c in a if p != 0})


def _poly_eval(a: Poly, r: float) -> complex:
    return sum((c * r**p for p, c in a), 0.0 + 0.0j)


@dataclass(frozen=True)
class RadialFunction:
    """Finite sum of Laurent-weighted j_l and j_l' terms of one degree l.

    ``terms`` maps each wavenumber c to a pair of Laurent polynomials
    (alpha, beta) meaning alpha(r) j_l(c r) + beta(r) j_l'(c r).
    """

    l: int
    terms: tuple[tuple[complex, Poly, Poly], ...]

    @classmethod
    def zero(cls, l: int) -> "RadialFunction":
        return cls(l=l, terms=())

    @classmethod
    def build(cls, l: int, c: complex, alpha: dict | None = None, beta: dict | None = None) -> "RadialFunction":
        if c == 0:
            raise DomainError("wavenumber of a radial term must be nonzero")
        return cls(
            l=l,
            terms=((complex(c), _poly(alpha or {}), _poly(beta or {})),),
        )

    def __call__(self, r):
        """f at a radius r > 0, or at every entry of an array of radii."""
        if not isinstance(r, float) and np.ndim(r):
            return _sample((self,), r)[0]
        r = float(r)
        if not (r > 0.0):
            raise DomainError(f"r must be positive, got {r!r}")
        total = 0.0 + 0.0j
        for c, alpha, beta in self.terms:
            j, jp = _j_and_deriv(self.l, c * r)
            total += _poly_eval(alpha, r) * j + _poly_eval(beta, r) * jp
        return total

    def deriv(self) -> "RadialFunction":
        """Exact derivative, closed under the spherical Bessel equation.

        Built once per instance: every later call returns the same object,
        so a chain f.deriv().deriv() costs its polynomial algebra once."""
        return self._deriv

    @cached_property
    def _deriv(self) -> "RadialFunction":
        big_l = self.l * (self.l + 1)
        new_terms = []
        for c, alpha, beta in self.terms:
            # d/dr [alpha j_l(cr)]        = alpha' j_l + alpha c j_l'
            # d/dr [beta  j_l'(cr)] via the Bessel equation at z = c r:
            #   = (beta' - 2 beta / r) j_l' + (-beta c + beta l(l+1)/(c r^2)) j_l
            new_alpha = _poly_add(
                _poly_deriv(alpha),
                _poly_add(_poly_scale(beta, -c), _poly_shift(beta, big_l / c, -2)),
            )
            new_beta = _poly_add(
                _poly_scale(alpha, c),
                _poly_add(_poly_deriv(beta), _poly_shift(beta, -2.0, -1)),
            )
            new_terms.append((c, new_alpha, new_beta))
        return RadialFunction(l=self.l, terms=tuple(new_terms))

    def scaled(self, factor: complex) -> "RadialFunction":
        return RadialFunction(
            l=self.l,
            terms=tuple(
                (c, _poly_scale(alpha, factor), _poly_scale(beta, factor))
                for c, alpha, beta in self.terms
            ),
        )

    def times_power(self, coef: complex, power: int) -> "RadialFunction":
        """Multiply by coef * r^power."""
        return RadialFunction(
            l=self.l,
            terms=tuple(
                (c, _poly_shift(alpha, coef, power), _poly_shift(beta, coef, power))
                for c, alpha, beta in self.terms
            ),
        )

    def __add__(self, other: "RadialFunction") -> "RadialFunction":
        if not isinstance(other, RadialFunction):
            return NotImplemented
        if other.l != self.l:
            raise DomainError("cannot add radial functions of different degree")
        merged: dict[complex, tuple[Poly, Poly]] = {}
        for c, alpha, beta in self.terms + other.terms:
            if c in merged:
                a0, b0 = merged[c]
                merged[c] = (_poly_add(a0, alpha), _poly_add(b0, beta))
            else:
                merged[c] = (alpha, beta)
        terms = tuple(
            (c, a, b)
            for c, (a, b) in merged.items()
            if a or b
        )
        return RadialFunction(l=self.l, terms=terms)


def _sample(funcs, r) -> list[np.ndarray]:
    # Each radial function at every entry of an array of radii r > 0, with
    # one tower per (degree, wavenumber) and one r**p per power for them
    # all; float's power rounds r**p as a scalar call does.
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0.0):
        raise DomainError(f"r must be positive, got {float(r[~(r > 0.0)][0])!r}")
    power = cache(lambda p: _pow(r, p))
    pairs: dict[tuple[int, complex], tuple[np.ndarray, np.ndarray]] = {}
    out = []
    for f in funcs:
        total = np.zeros(r.shape, dtype=complex)
        for c, alpha, beta in f.terms:
            if (f.l, c) not in pairs:
                pairs[f.l, c] = _j_pair_lanes(f.l, c * r)
            j, jp = pairs[f.l, c]
            a, b = (sum((coef * power(p) for p, coef in poly), 0.0 + 0.0j) for poly in (alpha, beta))
            total = total + (a * j + b * jp)
        out.append(total)
    return out


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
