"""Real scalar and vector spherical harmonics on the unit sphere and ball.

Conventions
-----------
Modes are indexed by (parity, m, l) with parity selecting cos(m phi) or
sin(m phi).  Harmonics are L^2(S^2)-orthonormal,

    Y = C_lm P_l^m(cos theta) * {cos, sin}(m phi),
    C_lm = sqrt(eps_m / (2 pi)) * sqrt((2l+1)(l-m)! / (2 (l+m)!)),

with eps_0 = 1 and eps_m = 2 otherwise, and no Condon-Shortley phase.
The three vector harmonics attached to a scalar mode Y with l >= 1 are

    A_1 = (grad_S Y x xi) / sqrt(l(l+1))   (tangential, curl-type),
    A_2 = grad_S Y / sqrt(l(l+1))          (tangential, gradient-type),
    A_3 = Y xi                             (radial),

where grad_S is the surface gradient and xi the outward unit normal.
A_3 is defined for every l >= 0.  Components are carried in the local
orthonormal frame (e_r, e_theta, e_phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fd
from .errors import _L_MAX, DomainError, InvalidMode, StepTooLarge, _choice, _integer, _positive, _real
from .specfun import _legendre, assoc_legendre_tower, gauss_legendre

__all__ = [
    "ModeIndex",
    "SurfacePoint",
    "BallPoint",
    "Vec3",
    "enumerate_modes",
    "scalar_Y",
    "vector_A",
    "check_vector_laplacian",
    "SurfaceRule",
    "surface_quadrature",
    "gram_matrix",
    "surface_direction",
]

_PARITIES = ("even", "odd")


@dataclass(frozen=True)
class ModeIndex:
    """Index (parity, m, l) of a real spherical harmonic mode.

    The (odd, 0, l) combination is excluded: sin(0 phi) vanishes
    identically and would only contribute zero vectors to bases.
    """

    parity: str
    m: int
    l: int

    def __post_init__(self) -> None:
        if self.parity not in _PARITIES:
            raise InvalidMode(f"parity must be 'even' or 'odd', got {self.parity!r}")
        # Plain ints, so that numpy integers pass every later degree check.
        object.__setattr__(self, "l", _integer(self.l, "l", 0, _L_MAX))
        object.__setattr__(self, "m", _integer(self.m, "m", 0, self.l))
        if self.parity == "odd" and self.m == 0:
            raise InvalidMode("(odd, 0, l) modes vanish identically")


@dataclass(frozen=True)
class SurfacePoint:
    """Point on the unit sphere: colatitude theta in [0, pi], azimuth
    phi in [0, 2 pi)."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        theta, phi = _real(self.theta), _real(self.phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise DomainError(f"angles must be finite reals, got {self.theta!r}, {self.phi!r}")
        if not (0.0 <= theta <= math.pi):
            raise DomainError(f"theta must lie in [0, pi], got {theta!r}")
        if not (0.0 <= phi < 2.0 * math.pi):
            raise DomainError(f"phi must lie in [0, 2 pi), got {phi!r}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    def to_xyz(self) -> np.ndarray:
        s = math.sin(self.theta)
        return np.array(
            [s * math.cos(self.phi), s * math.sin(self.phi), math.cos(self.theta)]
        )


@dataclass(frozen=True)
class BallPoint:
    """Point in the punctured closed unit ball: radius r in (0, 1]."""

    r: float
    direction: SurfacePoint

    def __post_init__(self) -> None:
        r = _real(self.r)
        if not (0.0 < r <= 1.0):
            raise DomainError(f"r must lie in (0, 1], got {self.r!r}")
        object.__setattr__(self, "r", r)

    def to_xyz(self) -> np.ndarray:
        return self.r * self.direction.to_xyz()


def surface_direction(xyz) -> SurfacePoint:
    """Direction of a nonzero Cartesian vector as a SurfacePoint."""
    x, y, z = (float(c) for c in xyz)
    rho = math.hypot(x, y)
    if rho == 0.0 and z == 0.0:
        raise DomainError("zero vector has no direction")
    theta = math.atan2(rho, z)
    phi = math.atan2(y, x) % (2.0 * math.pi)
    if phi >= 2.0 * math.pi:  # guard the wrap at negative zero
        phi = 0.0
    return SurfacePoint(theta=theta, phi=phi)


def _frame(p: SurfacePoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    st, ct = math.sin(p.theta), math.cos(p.theta)
    sp, cp = math.sin(p.phi), math.cos(p.phi)
    e_r = np.array([st * cp, st * sp, ct])
    e_t = np.array([ct * cp, ct * sp, -st])
    e_p = np.array([-sp, cp, 0.0])
    return e_r, e_t, e_p


@dataclass(frozen=True)
class Vec3:
    """Vector in the local spherical frame (e_r, e_theta, e_phi)."""

    er: float
    etheta: float
    ephi: float

    def __post_init__(self) -> None:
        for name in ("er", "etheta", "ephi"):
            v = getattr(self, name)
            number = _real(v)
            if not math.isfinite(number):
                raise DomainError(f"{name} must be a finite real, got {v!r}")
            object.__setattr__(self, name, number)

    def to_cartesian(self, direction: SurfacePoint) -> np.ndarray:
        e_r, e_t, e_p = _frame(direction)
        return self.er * e_r + self.etheta * e_t + self.ephi * e_p

    def norm(self) -> float:
        return math.hypot(self.er, self.etheta, self.ephi)

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.er + other.er,
            self.etheta + other.etheta,
            self.ephi + other.ephi,
        )

    def __mul__(self, scalar: float) -> "Vec3":
        return Vec3(self.er * scalar, self.etheta * scalar, self.ephi * scalar)

    __rmul__ = __mul__


def enumerate_modes(l_max: int) -> list[ModeIndex]:
    """All modes with degree at most l_max: (l_max + 1)^2 of them.

    Ordered by degree, then parity (even before odd), then m.
    """
    l_max = _integer(l_max, "l_max", 0, _L_MAX)
    modes = []
    for l in range(l_max + 1):
        for m in range(l + 1):
            modes.append(ModeIndex("even", m, l))
        for m in range(1, l + 1):
            modes.append(ModeIndex("odd", m, l))
    return modes


def _norm_const(l: int, m: int) -> float:
    # sqrt(eps_m/(2 pi) * (2l+1)(l-m)!/(2(l+m)!)) via lgamma so that
    # large (l, m) do not overflow the factorial ratio.
    eps = 1.0 if m == 0 else 2.0
    log_ratio = math.lgamma(l - m + 1) - math.lgamma(l + m + 1)
    return math.sqrt(eps / (2.0 * math.pi)) * math.exp(
        0.5 * (math.log(2 * l + 1) - math.log(2.0) + log_ratio)
    )


def _azimuth(n: ModeIndex, phi):
    # Returns (F(m phi), F'(m phi) including the chain-rule factor m),
    # for a float or an array of azimuths.
    if n.parity == "even":
        return np.cos(n.m * phi), -n.m * np.sin(n.m * phi)
    return np.sin(n.m * phi), n.m * np.cos(n.m * phi)


def scalar_Y(n: ModeIndex, p: SurfacePoint) -> float:
    """Orthonormal real spherical harmonic Y_n at a surface point."""
    return _angular_derivatives(n, p)[0]


def _angular(n: ModeIndex, rows, phi):
    # (Y, dY/dtheta, (1/sin theta) dY/dphi) from the degree-l rows of the
    # order-m Legendre tower at one point or over a table, with phi the
    # matching azimuth(s).  The last stays finite at the poles because
    # P_l^m / sin(theta) is regular for m >= 1; for m = 0 the tower's
    # quotient row and the azimuthal derivative are both exactly zero.
    values, dtheta, over_sin = rows
    c = _norm_const(n.l, n.m)
    trig, dtrig = _azimuth(n, phi)
    return c * values * trig, c * dtheta * trig, c * over_sin * dtrig


def _angular_derivatives(n: ModeIndex, p: SurfacePoint) -> tuple[float, float, float]:
    return _angular(n, [t[n.l] for t in _legendre(n.m, n.l, math.cos(p.theta))], p.phi)


def _validate_tau(tau: int, n: ModeIndex) -> int:
    tau = _choice(tau, "tau", (1, 2, 3))
    if tau in (1, 2) and n.l == 0:
        raise InvalidMode("tangential harmonics vanish for l = 0")
    return tau


def _components(tau: int, l: int, y, a, b) -> tuple:
    # Local-frame components of A_tau from the angular derivatives
    # (y, a, b) of its scalar mode, at one point or over a table.
    if tau == 3:
        return y, 0.0, 0.0
    root = math.sqrt(l * (l + 1))
    if tau == 2:
        return 0.0, a / root, b / root
    return 0.0, b / root, -a / root


def vector_A(tau: int, n: ModeIndex, p: SurfacePoint) -> Vec3:
    """Vector spherical harmonic A_{tau n} at a surface point."""
    tau = _validate_tau(tau, n)
    return Vec3(*_components(tau, n.l, *_angular_derivatives(n, p)))


def _laplacian_coeffs(tau: int, l: int, f, df, r: float):
    # Modal coefficients of the vector Laplacian of f(r) A_{tau} for a
    # linear profile (f'' = 0):
    #   Delta(f A_1) = (2f'/r - l(l+1) f/r^2) A_1
    #   Delta(f A_2) = (2f'/r - l(l+1) f/r^2) A_2 + 2 sqrt(l(l+1)) f/r^2 A_3
    #   Delta(f A_3) = (2f'/r - (2 + l(l+1)) f/r^2) A_3 + 2 sqrt(l(l+1)) f/r^2 A_2
    lap = 2.0 * df / r
    big_l = l * (l + 1)
    root = math.sqrt(big_l)
    if tau == 1:
        return (lap - big_l * f / (r * r), 0.0, 0.0)
    if tau == 2:
        return (0.0, lap - big_l * f / (r * r), 2.0 * root * f / (r * r))
    return (0.0, 2.0 * root * f / (r * r), lap - (2.0 + big_l) * f / (r * r))


def check_vector_laplacian(tau: int, n: ModeIndex, p: BallPoint, h: float) -> float:
    """Max-norm residual between the finite-difference vector Laplacian
    of f(r) A_{tau n} and its modal closed form, at one ball point.

    f is the standard ball extension: f(r) = r for tau in {1, 2} and
    f = 1 for tau = 3.  The Cartesian Laplacian uses plain second-order
    stencils, so the residual decreases like h^2.
    """
    tau = _validate_tau(tau, n)
    h = _positive(h, "h")
    if h > p.r / 4.0:
        raise StepTooLarge(f"h = {h!r} exceeds r/4 = {p.r / 4.0!r}")

    def profile(r: float) -> tuple[float, float]:
        # (f(r), f'(r))
        return (1.0, 0.0) if tau == 3 else (r, 1.0)

    def field(xyz: np.ndarray):
        r = float(np.linalg.norm(xyz))
        direction = surface_direction(xyz)
        return (vector_A(tau, n, direction) * profile(r)[0]).to_cartesian(direction)

    numeric = fd.vector_laplacian(field, p.to_xyz(), h)
    coeffs = _laplacian_coeffs(tau, n.l, *profile(p.r), p.r)
    terms = (vector_A(t, n, p.direction) * c for t, c in zip((1, 2, 3), coeffs) if c)
    exact = sum(terms, Vec3(0.0, 0.0, 0.0)).to_cartesian(p.direction)
    return float(np.max(np.abs(np.asarray(numeric, dtype=float) - exact)))


# ----------------------------------------------------------------------
# Surface quadrature and the Gram matrix
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SurfaceRule:
    """Product quadrature on the unit sphere: Gauss-Legendre in
    cos(theta) times a uniform trapezoid in phi.  Nodes avoid the poles."""

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray


def surface_quadrature(l_max: int) -> SurfaceRule:
    """Surface rule integrating products of harmonics up to degree l_max
    each (polynomial degree 2 l_max + 1 in cos theta) exactly.  l_max
    runs to 2 * 200 + 8 = 408, which caps the size of a rule at 412 x 818
    nodes; `gram_matrix`, the package's one caller, asks for at most 30."""
    l_max = _integer(l_max, "l_max", 0, 2 * _L_MAX + 8)
    n_theta = l_max + 4
    n_phi = max(4, 2 * l_max + 2)
    gauss = gauss_legendre(n_theta)
    theta_1d = np.arccos(gauss.nodes)
    phi_1d = 2.0 * math.pi * np.arange(n_phi) / n_phi
    theta = np.repeat(theta_1d, n_phi)
    phi = np.tile(phi_1d, n_theta)
    weights = np.repeat(gauss.weights * (2.0 * math.pi / n_phi), n_phi)
    return SurfaceRule(theta=theta, phi=phi, weights=weights)


_GRAM_L_MAX = 30  # its arrays grow as l_max^5: 24 (3 (l+1)^2 - 2) (l+4) (2l+2) bytes each


def gram_matrix(l_max: int) -> tuple[list[tuple[int, ModeIndex]], np.ndarray]:
    """Gram matrix of all vector harmonics with degree <= l_max under
    the surface quadrature.  Returns (labels, matrix); orthonormality
    means the matrix is the identity.  l_max runs to 30, where a call
    peaks at about 370 MB; a larger one raises InvalidMode up front."""
    l_max = _integer(l_max, "l_max", 0, _L_MAX)
    if l_max > _GRAM_L_MAX:
        raise InvalidMode(f"gram_matrix takes l_max up to {_GRAM_L_MAX}, its memory bound, got {l_max!r}")
    rule = surface_quadrature(l_max)
    # A product rule: each order's tower runs once over the distinct theta
    # nodes, and each degree's rows spread over all nodes as it is read.
    x, inverse = np.unique(np.cos(rule.theta), return_inverse=True)
    towers = [assoc_legendre_tower(m, l_max, x) for m in range(l_max + 1)]
    labels, comp = [], []
    for n in enumerate_modes(l_max):
        angular = _angular(n, [t[n.l][inverse] for t in towers[n.m]], rule.phi)
        for tau in (1, 2, 3) if n.l else (3,):
            labels.append((tau, n))
            comp.append(np.broadcast_arrays(*_components(tau, n.l, *angular)))
    comp = np.array(comp)  # (basis vector, frame component, node)
    return labels, np.einsum("ick,jck->ij", comp * rule.weights, comp)
