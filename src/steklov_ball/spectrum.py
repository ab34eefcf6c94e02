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
the zero function in the slots its family leaves empty, and skips those
slots; only `steklov_mode` reads the family, so one code path serves
both families.

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
    scalar_Y,
    surface_direction,
    vector_A,
)
from .kernel import lambda1, lambda2
from .radial import RadialFunction, RadialKind, RadialPair, bessel_operator, radial_profiles
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
    # A scalar's flag is tested directly; np.any would first wrap it in an array.
    bad = abs(value.imag) > 1e-9 * (abs(value.real) + scale)
    if bad.any() if isinstance(bad, np.ndarray) else bad:
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
    scale = max((abs(t) for t in terms), default=0.0)
    if scale == 0.0:
        raise NotRepresentable(f"{what}: every term underflows to 0; nothing can be checked")
    if scale < sys.float_info.min:
        raise NotRepresentable(f"{what}: the largest term {scale:.1e} is subnormal; nothing can be checked")
    return scale


def _scaled_sum(terms: list[complex]) -> float:
    return abs(sum(terms)) / _checked_scale(terms, "residual")


def residual_system(pair: RadialPair, r: float) -> tuple[float, ...]:
    """Scaled residuals of the radial ODE system at radius r.

    In modal form the interior equation -Delta E + (1 - theta) grad div E
    - k^2 E = 0 is one second-order ODE per slot of E = e1 A_1 + e2 A_2 +
    e3 A_3: slot 1 (curl-type) stands alone, and slots 2 and 3 (gradient-
    type and radial) couple through each other and Phi.  An equation
    that reads only zero functions is skipped, and the residuals of the
    others come in slot order, padded with 0.0 to two: (e2, e3) for
    family 1 and (e1, 0.0) for family 2.  Residuals are normalized by the
    largest constituent term, so a solution yields values near machine
    epsilon regardless of scale; terms that are all 0 or not all finite,
    or a pair that is zero in every slot, raise NotRepresentable, as does
    an r < 1.5e-154, whose square (a divisor here) is not a normal double.
    """
    r = _positive(r, "r")
    if r * r < sys.float_info.min:
        raise NotRepresentable(f"residual: r^2 leaves the normal double range at r = {r!r}")
    big_l = pair.l * (pair.l + 1)
    root = math.sqrt(big_l)
    e1, e2, e3 = pair.e1, pair.e2, pair.e3
    residuals = []
    if e1.terms:
        residuals.append(_slot_residual(e1, big_l, [], pair.k2, r))
    if e2.terms or e3.terms:
        phi, penalty = pair.phi, 1.0 - pair.theta
        coupling2 = [-2.0 * root * e3(r) / (r * r), penalty * root * phi(r) / r]
        residuals.append(_slot_residual(e2, big_l, coupling2, pair.k2, r))
        coupling3 = [-2.0 * root * e2(r) / (r * r), penalty * phi.deriv()(r)]
        residuals.append(_slot_residual(e3, 2.0 + big_l, coupling3, pair.k2, r))
    if not residuals:
        raise NotRepresentable("residual: the pair is zero in every slot; nothing can be checked")
    return (*residuals, 0.0) if len(residuals) == 1 else tuple(residuals)


def _slot_residual(f: RadialFunction, weight: float, coupling: list[complex], k2: float, r: float) -> float:
    # -f'' - 2 f'/r + weight f/r^2 + (coupling terms) - k^2 f, scaled.
    df = f.deriv()
    return _scaled_sum([-df.deriv()(r), -2.0 * df(r) / r, weight * f(r) / (r * r), *coupling, -k2 * f(r)])


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
    r = _positive(r, "r")
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
    coef = float(_divergence_coef(mode, p.r))
    return coef * scalar_Y(mode.n, p.direction) if coef else coef


def _divergence_coef(mode: SteklovMode, r):
    # Phi at a radius or an array of radii, asserted real against the
    # terms it is built from.
    pair = mode.radial
    phi, de3, e3, e2 = (f(r) for f in (pair.phi, pair.e3.deriv(), pair.e3, pair.e2))
    scale = np.maximum.reduce([np.abs(de3), np.abs(e3 / r), np.abs(e2 / r)])
    return _field_real(phi, scale * 1e-3, "divergence")


# ----------------------------------------------------------------------
# Boundary condition and weak form
# ----------------------------------------------------------------------


def verify_steklov_bc(mode: SteklovMode, p: SurfacePoint) -> float:
    """Pointwise residual of nu x curl E = lambda E_T at a surface point.

    At r = 1, nu x curl E = c_1 A_2 - c_2 A_1 for the modal curl c (see
    `_weak_identity_terms`), against lambda E_T = lambda (e1 A_1 + e2 A_2):
    on A_1, -(e1 + e1') against lambda e1, and on A_2, -(e2 + e2') +
    sqrt(l(l+1)) e3 against lambda e2.  A slot with nothing but zero
    functions on either side is skipped.  A_1 and A_2 are orthogonal and
    of equal length, so the residual is the length of the differences
    over the largest side, times |A_2| at p; it does not grow with the
    scale of the unnormalized eigenfield.  Raises NotRepresentable when
    every side is 0 or subnormal, or one is not finite.
    """
    pair = mode.radial
    root = math.sqrt(mode.n.l * (mode.n.l + 1))
    e3 = pair.e3(1.0)
    terms, diffs = [], []
    for f, lift in ((pair.e1, 0j), (pair.e2, e3)):
        if not (f.terms or lift):
            continue
        e, de = f(1.0), f.deriv()(1.0)
        scale = max(abs(e), abs(de), abs(lift))
        trace = _field_real(e, scale, "boundary trace")
        curl_coef = _field_real(-(e + de) + root * lift, scale, "boundary curl trace")
        lam_trace = mode.eigenvalue * trace
        terms += (curl_coef, lam_trace)
        diffs.append(curl_coef - lam_trace)
    scale = _checked_scale(terms, "boundary condition")
    return math.hypot(*diffs) / scale * vector_A(2, mode.n, p).norm()


def _weak_identity_terms(mode: SteklovMode, rule: QuadratureRule, at_one: np.ndarray) -> tuple[float, float, float, float]:
    # From e1, e2, e3, e1', e2', Phi at the rule's radii and e1, e2, e3 at
    # r = 1.  The A_tau are orthonormal on the sphere, so |E|^2 integrates
    # to sum e_tau^2, |curl E|^2 to sum c_tau^2 with the modal curl
    # c = (-(e2' + e2/r) + sqrt(l(l+1)) e3/r, e1' + e1/r, sqrt(l(l+1)) e1/r),
    # and |div E|^2 to Phi^2 (div E = Phi Y_n).
    l = mode.n.l
    root = math.sqrt(l * (l + 1))
    radii = 0.5 * (rule.nodes + 1.0)
    rweights = 0.5 * rule.weights * radii**2
    pair = mode.radial
    slots = {"e1": pair.e1, "e2": pair.e2, "e3": pair.e3}
    slots.update({"e1'": pair.e1.deriv(), "e2'": pair.e2.deriv(), "div": pair.phi})
    e1, e2, e3, de1, de2, phi = (_real_samples(f(radii), what) for what, f in slots.items())
    curl_sq = (-(de2 + e2 / radii) + root * e3 / radii) ** 2 + (de1 + e1 / radii) ** 2 + (root * e1 / radii) ** 2
    t_curl = float(np.sum(rweights * curl_sq))
    t_field = mode.k2 * float(np.sum(rweights * (e1**2 + e2**2 + e3**2)))
    t_div = mode.theta * float(np.sum(rweights * phi**2))
    t_boundary = mode.eigenvalue * float(np.sum(at_one**2))
    return t_curl, t_field, t_div, t_boundary


def _real_samples(values: np.ndarray, what: str) -> np.ndarray:
    return _field_real(values, np.max(np.abs(values)) + 1e-300, what)


_REFINEMENT_TOL = 1e-8  # the weak-identity suite's tolerance, relative to the largest term


@np.errstate(over="ignore", invalid="ignore")
def verify_weak_identity(mode: SteklovMode) -> float:
    """Relative defect of the weak-form identity

        int_B(|curl E|^2 - k^2 |E|^2 + theta |div E|^2)
                                    + lambda int_Gamma |E|^2 = 0

    with the surface integral of each |A_tau|^2 taken as 1 by
    orthonormality and the radial one by a Gauss rule of order 2l + 12
    with r^2 weight, normalized by the largest of the four terms.  Raises
    QuadratureTooCoarse when raising the radial order by 4 moves the
    defect by more than the weak-identity suite's tolerance, 1e-8 of that
    scale, and NotRepresentable when the largest term of either order is
    0, subnormal or not finite.
    """
    radial_order = 2 * mode.n.l + 12
    pair = mode.radial
    at_one = _real_samples(np.array([f(1.0) for f in (pair.e1, pair.e2, pair.e3)]), "boundary trace")
    base = _weak_identity_terms(mode, gauss_legendre(radial_order), at_one)
    refined = _weak_identity_terms(mode, gauss_legendre(radial_order + 4), at_one)
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
