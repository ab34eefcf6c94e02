"""Steklov eigenvalues and eigenfields of the penalized curl-curl
operator on the unit ball, with independent residual verification.

The boundary condition is nu x curl E = lambda E_T on the unit sphere
with E . nu = 0, for the interior equation

    curl curl E - k^2 E - theta grad div E = 0,   k^2 != 0, theta > 0.

Two explicit eigenvalue families exist for every degree l >= 1:

* family 1 polarizes along the gradient-type/radial harmonics (A_2, A_3)
  and has nonzero interior divergence;
* family 2 polarizes along the curl-type harmonic (A_1) and is
  divergence-free.

Every check reads a mode as E = e1(r) A_1 + e2(r) A_2 + e3(r) A_3, with
the zero function in the slots its family leaves empty, so one code path
serves both families.

This module is verification only.  The eigenvalues of the modes come
from the production kernel (`kernel.lambda1`/`lambda2`), and the root
queries live in `resonances`; the product form lambda1_theta1_alt and
the eigenfields stay on the complex Bessel towers as an independent
check.  Values that must be real are asserted real and truncated.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    _L_MAX,
    DirichletResonance,
    DomainError,
    InvalidMode,
    NonRealEigenvalue,
    NotRepresentable,
    QuadratureTooCoarse,
    _choice,
    _integer,
    _positive,
    _real,
    _validate_eig_args,
)
from .harmonics import (
    BallPoint,
    ModeIndex,
    SurfacePoint,
    Vec3,
    _angular_tables,
    scalar_Y,
    surface_direction,
    surface_quadrature,
    vector_A,
)
from .kernel import lambda1, lambda2
from .radial import RadialFunction, RadialKind, RadialPair, _sample, bessel_operator, radial_profiles
from .specfun import QuadratureRule, _j_all_lanes, gauss_legendre

__all__ = [
    "lambda1_theta1_alt",
    "SteklovMode",
    "steklov_mode",
    "residual_system",
    "residual_fourth_order",
    "divergence_field",
    "verify_steklov_bc",
    "verify_weak_identity",
    "eigenfield",
    "eigenfield_cartesian",
]


def lambda1_theta1_alt(l: int, k2: float) -> float:
    """Family-1 eigenvalue at theta = 1 in product form:
    -k j_l(k) j_l'(k) / (j_{l+1}(k) j_{l-1}(k)).

    Agrees with lambda1(l, k2, 1) to 1e-10 relative off resonance; the
    two expressions are rearrangements of each other through the
    three-term recurrence.  The degree runs to 199, since the form
    needs j_{l+1}.  It is formed as two quotients of neighbouring
    orders, -k (j_l/j_{l+1}) (j_l'/j_{l-1}), which stay in range where
    the products would not; where j_{l-1}, j_l or j_{l+1} itself is 0,
    subnormal or not finite (small k at degrees near 200) it raises
    DomainError, and beyond |Im k| = 700 the tower raises
    NotRepresentable.
    """
    l, k2, _ = _validate_eig_args(_integer(l, "degree l", 1, _L_MAX - 1), k2)
    values, resonant = _theta1_alt_rows(l, l, np.array([k2]))
    if resonant[0, 0]:
        raise DirichletResonance(f"j_{l + 1}(k) j_{l - 1}(k) vanishes at k2 = {k2}")
    return float(values[0, 0])


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _theta1_alt_rows(l_lo: int, l_hi: int, k2s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # lambda1_theta1_alt at degrees l_lo..l_hi (rows) and every k2 of an
    # array (columns), from one tower of order l_hi + 1: the values, and
    # the cells where it raises DirichletResonance.  Its other errors are
    # raised for the first such cell in row order.
    k = np.sqrt(k2s.astype(complex))
    j = _j_all_lanes(l_hi + 1, k)
    dj = np.concatenate([-j[1:2], j[:-1] - np.arange(2, l_hi + 3)[:, None] / k * j[1:]])
    ls = np.arange(l_lo, l_hi + 1)
    size = np.abs(j[[ls - 1, ls, ls + 1]])
    bad = np.argwhere(~np.all((sys.float_info.min <= size) & (size < math.inf), axis=0))
    if bad.size:
        l, k2 = l_lo + int(bad[0, 0]), float(k2s[bad[0, 1]])
        raise DomainError(
            f"j_{l - 1}, j_{l} or j_{l + 1} leaves the normal double range at k2 = {k2}; "
            "eigenvalue not representable"
        )
    # Per-factor Newton-step guards, as in the direct form: each factor
    # is near one of its zeros iff |j_m| is small against |k j_m'|.
    resonant = np.any(np.abs(j[[ls + 1, ls - 1]]) < 1e-12 * np.abs(k * dj[[ls + 1, ls - 1]]), axis=0)
    value = -k * (j[ls] / j[ls + 1]) * (dj[ls] / j[ls - 1])
    nonreal = value[~resonant & (np.abs(value.imag) > 1e-10 * (1.0 + np.abs(value.real)))]
    if nonreal.size:
        raise NonRealEigenvalue(
            f"lambda1_theta1_alt = {complex(nonreal[0])!r} has a non-negligible imaginary part"
        )
    return value.real, resonant


# ----------------------------------------------------------------------
# Eigenmodes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SteklovMode:
    """One explicit Steklov eigenpair on the unit ball.

    ``radial`` carries the closed-form radial profiles, already phase
    normalized so that all field values are real (for k^2 < 0 the raw
    profiles carry a common factor i^l which is divided out).
    """

    family: int
    n: ModeIndex
    k2: float
    theta: float
    eigenvalue: float
    radial: RadialPair

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", _choice(self.family, "family", (1, 2)))
        if self.n.l < 1:
            raise InvalidMode("Steklov modes require l >= 1")


def _phase(l: int, k2: float) -> complex:
    # For k2 < 0 the radial profiles are i^l times a real function;
    # dividing by i^l makes every field value exactly real.
    return (-1j) ** l if k2 < 0 else 1.0 + 0.0j


def steklov_mode(family: int, n: ModeIndex, k2: float, theta: float = 1.0) -> SteklovMode:
    """Construct the explicit eigenmode of one family at one harmonic
    mode: eigenvalue plus phase-normalized radial profiles."""
    family = _choice(family, "family", (1, 2))
    if family == 1:
        lam, kind = lambda1(n.l, k2, theta), RadialKind.MATCHED
    else:
        lam, kind = lambda2(n.l, k2), RadialKind.TOROIDAL
    return SteklovMode(
        family=family,
        n=n,
        k2=float(k2),
        theta=float(theta),
        eigenvalue=lam,
        radial=radial_profiles(kind, n.l, k2, theta).scaled(_phase(n.l, float(k2))),
    )


def _field_real(value, scale, what: str):
    # The real part of a complex value or array, which must be real to
    # 1e-9 of its size plus scale; the error quotes the first that is not.
    bad = abs(value.imag) > 1e-9 * (abs(value.real) + scale)
    if np.any(bad):
        raise NonRealEigenvalue(f"{what} = {complex(np.asarray(value)[bad].flat[0])!r} is not real")
    return value.real


# ----------------------------------------------------------------------
# Interior residuals
# ----------------------------------------------------------------------


def _checked_scale(terms, what: str) -> float:
    # The largest |term|.  A check whose terms are all 0 (underflow), whose
    # largest term is subnormal (its digits are gone) or whose terms are
    # not all finite (overflow) compares nothing, so it raises instead of
    # passing vacuously, losing digits silently or returning NaN.
    if not all(cmath.isfinite(t) for t in terms):
        raise NotRepresentable(f"{what}: a term leaves double range; nothing can be checked")
    scale = max(abs(t) for t in terms)
    if scale == 0.0:
        raise NotRepresentable(f"{what}: every term underflows to 0; nothing can be checked")
    if scale < sys.float_info.min:
        raise NotRepresentable(f"{what}: the largest term {scale:.1e} is subnormal; nothing can be checked")
    return scale


def _scaled_sum(terms: list[complex]) -> float:
    return abs(sum(terms)) / _checked_scale(terms, "residual")


def residual_system(pair: RadialPair, r: float) -> tuple[float, float]:
    """Scaled residuals of the coupled radial ODE system at radius r.

    For an (e2, e3) pair the interior equation splits into two coupled
    second-order ODEs (the gradient-type and radial components of
    -Delta E + (1 - theta) grad div E - k^2 E = 0); for TOROIDAL the
    single curl-type ODE is evaluated and returned as the first slot.
    Residuals are normalized by the largest constituent term, so a
    solution yields values near machine epsilon regardless of scale;
    terms that are all 0 or not all finite raise NotRepresentable.
    """
    r = _positive(r, "r")
    k2 = pair.k2
    big_l = pair.l * (pair.l + 1)
    root = math.sqrt(big_l)

    if pair.kind is RadialKind.TOROIDAL:
        e1 = pair.e1
        d1 = e1.deriv()
        terms = [
            -d1.deriv()(r),
            -2.0 * d1(r) / r,
            big_l * e1(r) / (r * r),
            -k2 * e1(r),
        ]
        return (_scaled_sum(terms), 0.0)

    e2, e3 = pair.e2, pair.e3
    phi = pair.phi
    penalty = 1.0 - pair.theta
    d2, d3 = e2.deriv(), e3.deriv()
    terms2 = [
        -d2.deriv()(r),
        -2.0 * d2(r) / r,
        big_l * e2(r) / (r * r),
        -2.0 * root * e3(r) / (r * r),
        penalty * root * phi(r) / r,
        -k2 * e2(r),
    ]
    terms3 = [
        -d3.deriv()(r),
        -2.0 * d3(r) / r,
        (2.0 + big_l) * e3(r) / (r * r),
        -2.0 * root * e2(r) / (r * r),
        penalty * phi.deriv()(r),
        -k2 * e3(r),
    ]
    return (_scaled_sum(terms2), _scaled_sum(terms3))


def residual_fourth_order(l: int, k2: float, r: float, e3: RadialFunction) -> float:
    """Scaled residual of the decoupled fourth-order radial equation
    (B^2 - 2B - 4 l(l+1)) e3 = 0 at radius r, where B is the spherical
    Bessel operator r^2 d^2 + 2 r d + (k^2 r^2 - l(l+1)).

    Valid for the theta = 1 families; all four derivative orders are
    taken analytically through the radial algebra.
    """
    l = _integer(l, "degree l", 1, _L_MAX)
    if e3.l != l:
        raise InvalidMode(f"radial function has degree {e3.l}, expected {l}")
    number = _real(k2)
    if not math.isfinite(number):
        raise DomainError(f"k2 must be a finite real number, got {k2!r}")
    k2 = number
    big_l = l * (l + 1)
    first = bessel_operator(e3, k2)
    second = bessel_operator(first, k2)
    terms = [second(r), -2.0 * first(r), -4.0 * big_l * e3(r)]
    return _scaled_sum(terms)


def divergence_field(mode: SteklovMode, p: BallPoint) -> float:
    """Pointwise divergence of the eigenfield, Phi(r) Y_n(xi): the modal
    divergence coefficient times the scalar harmonic.  Phi is the zero
    function for a toroidal pair, so family 2 returns 0; as in
    `eigenfield`, a zero coefficient needs no harmonic.
    """
    coef = float(_divergence_coef(mode, np.array([p.r]))[0])
    return coef * scalar_Y(mode.n, p.direction) if coef else coef


def _divergence_coef(mode: SteklovMode, r: np.ndarray) -> np.ndarray:
    # Phi at an array of radii, asserted real against the terms it is
    # built from; with one tower per wavenumber for all of them.
    pair = mode.radial
    phi, de3, e3, e2 = _sample((pair.phi, pair.e3.deriv(), pair.e3, pair.e2), r)
    scale = np.maximum.reduce([np.abs(de3), np.abs(e3 / r), np.abs(e2 / r)])
    return _field_real(phi, scale * 1e-3, "divergence")


# ----------------------------------------------------------------------
# Boundary condition and weak form
# ----------------------------------------------------------------------


# The tangential slot tau of each family: E_T = e_tau(1) A_tau.
_TANGENTIAL = {1: 2, 2: 1}


def verify_steklov_bc(mode: SteklovMode, p: SurfacePoint) -> float:
    """Pointwise residual of nu x curl E = lambda E_T at a surface point.

    Both sides live on the family's tangential harmonic A_tau.  At r = 1
    nu x curl E = c_1 A_2 - c_2 A_1 for the modal curl c (see
    `_weak_identity_terms`); with e = e_tau and e3 = 0 when tau = 1, that
    is c A_tau, c = -(e + e') + sqrt(l(l+1)) e3, against lambda e A_tau.
    The residual is |c - lambda e| / max(|c|, |lambda e|) times |A_tau|
    at p, so it does not grow with the scale of the unnormalized
    eigenfield.  Raises NotRepresentable when both sides are 0 or
    subnormal, or either is not finite.
    """
    tau, pair = _TANGENTIAL[mode.family], mode.radial
    f = (pair.e1, pair.e2)[tau - 1]
    e, de, e3 = f(1.0), f.deriv()(1.0), pair.e3(1.0)
    scale = max(abs(e), abs(de), abs(e3))
    trace = _field_real(e, scale, "boundary trace")
    root = math.sqrt(mode.n.l * (mode.n.l + 1))
    curl_coef = _field_real(-(e + de) + root * e3, scale, "boundary curl trace")
    magnitude = vector_A(tau, mode.n, p).norm()
    lam_trace = mode.eigenvalue * trace
    scale = _checked_scale([curl_coef, lam_trace], "boundary condition")
    return abs(curl_coef - lam_trace) / scale * magnitude


def _surface_sums(n: ModeIndex, order: int) -> tuple[float, float, float]:
    # Surface integrals of |A_1|^2, |A_2|^2, |A_3|^2: |A_3|^2 = Y^2 and
    # |A_1|^2 = |A_2|^2 = (a^2 + b^2) / (l(l+1)), rounded as Vec3.norm().
    surf = surface_quadrature(order)
    y, a, b = _angular_tables([n], surf)[n]
    root = math.sqrt(n.l * (n.l + 1))
    tangential = float(np.sum(surf.weights * np.hypot(a / root, b / root) ** 2))
    return tangential, tangential, float(np.sum(surf.weights * (y * y)))


def _weak_identity_terms(
    mode: SteklovMode, rule: QuadratureRule, samples: np.ndarray, at_one: np.ndarray, surface_order: int
) -> tuple[float, float, float, float]:
    # From e1, e2, e3, e1', e2', Phi at the rule's radii and e1, e2, e3 at
    # r = 1.  With s_tau the surface integral of |A_tau|^2: |E|^2
    # integrates to sum e_tau^2 s_tau, |curl E|^2 to sum c_tau^2 s_tau with
    # the modal curl c = (-(e2' + e2/r) + sqrt(l(l+1)) e3/r, e1' + e1/r,
    # sqrt(l(l+1)) e1/r), and |div E|^2 to Phi^2 s_3 (div E = Phi Y_n).
    l = mode.n.l
    root = math.sqrt(l * (l + 1))
    radii = 0.5 * (rule.nodes + 1.0)
    rweights = 0.5 * rule.weights * radii**2
    sums = _surface_sums(mode.n, surface_order)

    def modal_sum(coefs) -> np.ndarray:
        return sum(c**2 * s for c, s in zip(coefs, sums))

    e1, e2, e3, de1, de2, phi = samples
    curl_sq = modal_sum((-(de2 + e2 / radii) + root * e3 / radii, de1 + e1 / radii, root * e1 / radii))
    field_sq = modal_sum((e1, e2, e3))
    div_sq = phi**2 * sums[2]

    t_curl = float(np.sum(rweights * curl_sq))
    t_field = mode.k2 * float(np.sum(rweights * field_sq))
    t_div = mode.theta * float(np.sum(rweights * div_sq))
    t_boundary = mode.eigenvalue * modal_sum(at_one)
    return t_curl, t_field, t_div, t_boundary


_REFINEMENT_TOL = 1e-8  # the weak-identity suite's tolerance, relative to the largest term


@np.errstate(over="ignore", invalid="ignore")
def verify_weak_identity(mode: SteklovMode) -> float:
    """Relative defect of the weak-form identity

        int_B(|curl E|^2 - k^2 |E|^2 + theta |div E|^2)
                                    + lambda int_Gamma |E|^2 = 0

    under product Gauss quadrature (a radial rule of order 2l + 12 with
    r^2 weight times the surface rule for degree 2l + 4), normalized by
    the largest of the four terms.  Raises QuadratureTooCoarse when
    refining both orders by 4 moves the defect by more than the weak-
    identity suite's tolerance, 1e-8 of that scale, and NotRepresentable
    when the largest term of either order is 0, subnormal or not finite.
    """
    l = mode.n.l
    radial_order, surface_order = 2 * l + 12, 2 * l + 4
    rules = gauss_legendre(radial_order), gauss_legendre(radial_order + 4)
    radii = [0.5 * (rule.nodes + 1.0) for rule in rules]
    # One array call per slot over the radii of both rules and r = 1.
    pair = mode.radial
    slots = {"e1": pair.e1, "e2": pair.e2, "e3": pair.e3}
    slots.update({"e1'": pair.e1.deriv(), "e2'": pair.e2.deriv(), "div": pair.phi})
    values = _sample(slots.values(), np.concatenate([*radii, [1.0]]))
    samples = np.array([_field_real(v, np.max(np.abs(v)) + 1e-300, what) for what, v in zip(slots, values)])
    cut, at_one = radii[0].size, samples[:3, -1]
    base = _weak_identity_terms(mode, rules[0], samples[:, :cut], at_one, surface_order)
    refined = _weak_identity_terms(mode, rules[1], samples[:, cut:-1], at_one, surface_order + 4)
    _checked_scale(base, "weak identity")
    scale = _checked_scale(refined, "weak identity")
    base_value = base[0] - base[1] + base[2] + base[3]
    refined_value = refined[0] - refined[1] + refined[2] + refined[3]
    if abs(base_value - refined_value) > _REFINEMENT_TOL * scale:
        raise QuadratureTooCoarse(
            f"weak-form defect moved from {base_value:.3e} to {refined_value:.3e} "
            f"under refinement (scale {scale:.3e})"
        )
    return abs(refined_value) / scale


# ----------------------------------------------------------------------
# Field evaluation
# ----------------------------------------------------------------------


def eigenfield(mode: SteklovMode, p: BallPoint) -> Vec3:
    """Eigenfield E = e1(r) A_1 + e2(r) A_2 + e3(r) A_3 in the local
    spherical frame at a ball point (family 1 has e3(1) = 0, so E is
    tangential at r = 1).  A zero coefficient needs no harmonic.
    """
    values = [f(p.r) for f in (mode.radial.e1, mode.radial.e2, mode.radial.e3)]
    scale = max(abs(v) for v in values)
    coefs = [_field_real(v, scale, f"e{tau}") for tau, v in enumerate(values, 1)]
    terms = (vector_A(tau, mode.n, p.direction) * c for tau, c in enumerate(coefs, 1) if c)
    return sum(terms, Vec3(0.0, 0.0, 0.0))


def eigenfield_cartesian(mode: SteklovMode):
    """Eigenfield as a plain Cartesian field function (for stencils)."""

    def field(xyz) -> np.ndarray:
        xyz = np.asarray(xyz, dtype=float)
        r = float(np.linalg.norm(xyz))
        direction = surface_direction(xyz)
        return eigenfield(mode, BallPoint(r=r, direction=direction)).to_cartesian(
            direction
        )

    return field
