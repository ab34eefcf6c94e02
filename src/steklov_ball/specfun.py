"""Special functions: spherical Bessel, associated Legendre, Gauss-Legendre.

All routines here are self-contained, so that the rest of the package
does not depend on any external special-function implementation.  The
Bessel tower runs on Python complex numbers; numpy computes its seeds
j_0, j_1 and the rescale and normalization of Miller's algorithm, and
holds the Legendre and quadrature arrays.  Accuracy targets are near
machine precision for 0 <= l <= 200 and |z| <= 100, for the eigenfields,
root scans and checks (the eigenvalues use the real continued fraction
in `kernel` instead).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import _L_MAX, DomainError, NotRepresentable, _integer

__all__ = [
    "sph_bessel_j_all",
    "sph_bessel_j",
    "sph_bessel_j_deriv",
    "assoc_legendre_tower",
    "gauss_legendre",
    "QuadratureRule",
]

# sin/cos overflow on the imaginary axis around |Im z| ~ 709; refuse a
# little earlier so the seeds j_0, j_1 are always finite.
_IM_MAX = 700.0


def _j0_j1(z: complex) -> tuple[complex, complex]:
    # j_0 = sin z / z, j_1 = sin z / z^2 - cos z / z, for z != 0, in numpy
    # scalars: CPython's complex division rounds differently in the last bit.
    s, c = np.sin(z), np.cos(z)
    return s / z, s / (z * z) - c / z


def _series_all(l: int, z: complex) -> list[complex]:
    # Ascending series around z = 0, used only for |z| < 1e-2 where a
    # handful of terms reach machine precision.  The z^n / (2n+1)!!
    # prefactor is built as a running product so it never overflows on
    # its own for the orders supported here.
    out = []
    q = -0.25 * z * z
    pref = 1.0 + 0.0j
    for n in range(l + 1):
        if n > 0:
            pref *= z / (2 * n + 1)
        term = 1.0 + 0.0j
        total = term
        for k in range(1, 60):
            term *= q / (k * (n + k + 0.5))
            total += term
            if abs(term) <= 1e-18 * abs(total):
                break
        out.append(pref * total)
    return out


def _upward_all(l: int, z: complex) -> list[complex]:
    # Stable on the real axis as long as l does not exceed |z|.
    prev, cur = map(complex, _j0_j1(z))
    out = [prev, cur]
    for n in range(2, l + 1):
        prev, cur = cur, (2 * n - 1) / z * cur - prev
        out.append(cur)
    return out[: l + 1]


def _downward_all(l: int, z: complex) -> list[complex]:
    # Miller's algorithm: run the recurrence downward from a start order
    # well above l with arbitrary seeds, then normalize against j_0 or
    # j_1 computed in closed form.  Off the real axis the downward
    # contraction is slower, so the start order grows with sqrt(|z|).
    # The rescale and the normalization stay numpy array products: their
    # last bits and signed zeros (an FMA where the CPU has one) differ from
    # CPython's.
    start = l + 32
    if z.imag != 0.0:
        start += int(math.sqrt(40.0 * abs(z))) + 8
    down = []  # p_n for n = l, l - 1, .., 0
    p_next = 0.0 + 0.0j  # p_{n+1}
    p_cur = 1e-30 + 0.0j  # p_n
    for n in range(start, -1, -1):
        p_next, p_cur = p_cur, (2 * n + 3) / z * p_cur - p_next
        # p_cur now approximates c * j_n(z)
        if n <= l:
            down.append(p_cur)
        if abs(p_cur.real) > 1e250 or abs(p_cur.imag) > 1e250:
            p_cur *= 1e-250
            p_next *= 1e-250
            if n <= l:
                down = (np.array(down) * 1e-250).tolist()
    # Normalize against whichever closed-form seed is larger, so a near
    # zero of j_0 or j_1 never poisons the scale.
    j0, j1 = _j0_j1(z)
    if l >= 1 and abs(j1) > abs(j0) and down[-2] != 0:
        seed, ref = j1, down[-2]
    else:
        seed, ref = j0, p_cur
    out = np.fromiter(reversed(down), complex, l + 1)
    if abs(seed) / sys.float_info.max < abs(ref):
        return (out * (seed / ref)).tolist()
    # Far up the imaginary axis (from |Im z| ~ 678 at l = 0) the seed
    # nears the top of double range while ref stays small, and the
    # scale seed / ref would overflow: divide by ref first.
    return ((out / ref) * seed).tolist()


def _tower(l: int, z: complex) -> list[complex]:
    # j_0(z) .. j_l(z) as Python complex, checked as sph_bessel_j_all says.
    l = _integer(l, "order l", 0, _L_MAX, DomainError)
    try:
        z = complex(z)
    except (TypeError, ValueError):
        raise DomainError(f"argument must be a complex number, got {z!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"argument must be finite, got {z!r}")
    if abs(z.imag) > _IM_MAX:
        raise NotRepresentable(
            f"|Im z| = {abs(z.imag):.3g} exceeds {_IM_MAX:g}; "
            "j_l(z) not representable in double precision"
        )
    if z == 0:
        return [1.0 + 0.0j] + [0.0j] * l
    az = abs(z)
    if az < 1e-2:
        return _series_all(l, z)
    if z.imag == 0.0 and l <= az:
        return _upward_all(l, z)
    return _downward_all(l, z)


def sph_bessel_j_all(l: int, z: complex) -> np.ndarray:
    """Spherical Bessel functions j_0(z) .. j_l(z) of the first kind.

    Parameters
    ----------
    l : int
        Highest order, 0 <= l <= 200.
    z : complex
        Argument.  Real and purely imaginary arguments are the common
        cases; any complex argument with |Im z| <= 700 is accepted.

    Returns
    -------
    numpy.ndarray
        Complex array of length l + 1 with entry n equal to j_n(z).

    Raises
    ------
    DomainError
        If the order is out of range or z is not a finite number.
    NotRepresentable
        (also an OverflowError) For every |Im z| > 700, where sin z and
        cos z near the top of double range.
    """
    return np.array(_tower(l, z), dtype=complex)


# The array tower: the scalar tower read lane by lane, so each entry keeps its
# bits and raises its errors.  The product form reads it over all its points.
def _j_all_lanes(l: int, z) -> np.ndarray:
    # Shape (l + 1, *z.shape), C-contiguous.
    z = np.asarray(z, dtype=complex)
    rows = np.array([_tower(l, v) for v in z.ravel().tolist()], dtype=complex)
    return np.ascontiguousarray(rows.T).reshape(l + 1, *z.shape)


def sph_bessel_j(l: int, z: complex) -> complex:
    """Spherical Bessel function j_l(z) of the first kind."""
    return _tower(l, z)[l]


def sph_bessel_j_deriv(l: int, z: complex) -> complex:
    """Derivative j_l'(z) of the spherical Bessel function.

    Uses j_l' = j_{l-1} - (l+1)/z j_l (and j_0' = -j_1), which keeps
    the evaluation on the same stable table as the values themselves.
    Where j_l(z) is 0 or subnormal at z != 0 the second term has lost its
    digits, and NotRepresentable is raised; that covers every z where
    j_l'(z) itself underflows too, such as j_200'(1).
    """
    l = _integer(l, "order l", 0, _L_MAX, DomainError)
    try:
        z = complex(z)
    except (TypeError, ValueError):
        raise DomainError(f"argument must be a complex number, got {z!r}") from None
    if z == 0:
        # j_l ~ z^l / (2l+1)!!, so only l = 1 has a nonzero slope at 0.
        return complex(1.0 / 3.0) if l == 1 else complex(0.0)
    slope = _j_and_deriv(l, z)[1]
    if math.isnan(slope.real):
        raise NotRepresentable(f"j_{l}(z) is 0 or subnormal at z = {z!r}; its derivative has lost its digits")
    return slope


def _j_deriv(tab: list[complex], m: int, z: complex) -> complex:
    # j_m'(z) from a tower of j_0(z) .. j_max(m, 1)(z), z != 0:
    # j_m' = j_{m-1} - (m+1)/z j_m, and j_0' = -j_1.
    return -tab[1] if m == 0 else tab[m - 1] - (m + 1) / z * tab[m]


def _j_pair(l: int, z: complex) -> tuple[complex, complex]:
    # (j_l(z), j_l'(z)) for z != 0 from one tower.
    tab = _tower(max(l, 1), z)
    return tab[l], _j_deriv(tab, l, z)


# Cached because the radial algebra evaluates a profile and all its
# derivatives at the same arguments, one radius at a time, for an array of
# radii too.  The root scans call _j_pair itself: their points seldom repeat.
# Where j_l is 0 or subnormal the slope's (l+1)/z j_l term has lost its
# digits, so the slope is NaN, which every caller's finiteness check refuses.
@functools.lru_cache(maxsize=4096)
def _j_and_deriv(l: int, z: complex) -> tuple[complex, complex]:
    tab = _tower(max(l, 1), z)
    if abs(tab[l]) < sys.float_info.min:
        return tab[l], complex(math.nan)
    return tab[l], _j_deriv(tab, l, z)


# ----------------------------------------------------------------------
# Associated Legendre functions
# ----------------------------------------------------------------------


def _pow(s: np.ndarray, m: int) -> np.ndarray:
    # Elementwise s**m through float's own power, as the scalar tower
    # always computed it; numpy's vectorized power can differ by an ulp.
    return np.array([v**m for v in s.ravel().tolist()]).reshape(s.shape)


# Orders above about 150 overflow inside the recurrence; the finiteness
# check at its end raises NotRepresentable, so numpy's warnings stay quiet.
@np.errstate(over="ignore", invalid="ignore")
def assoc_legendre_tower(
    m: int, l_max: int, x
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Associated Legendre functions of fixed order m, degrees up to l_max.

    No Condon-Shortley phase.  Written in terms of x = cos(theta) with
    theta in [0, pi], so sin(theta) = sqrt(1 - x^2) >= 0 throughout.

    Parameters
    ----------
    m : int
        Order, 0 <= m <= l_max.
    l_max : int
        Highest degree, l_max <= 200.
    x : float or array of float
        Point(s) in [-1, 1]; the recurrence runs over all of them at once.

    Returns
    -------
    values, dtheta, over_sin : numpy.ndarray
        Arrays of shape ``(l_max + 1, *x.shape)`` indexed first by
        degree (length l_max + 1 for a scalar x).  ``values[l]`` is
        P_l^m(x); ``dtheta[l]`` is d/dtheta P_l^m(cos theta); and
        ``over_sin[l]`` is P_l^m(x) / sin(theta), which stays finite at
        the poles for m >= 1.  For m = 0 the third array is returned as
        zeros because the quotient is then pole-singular and is never
        needed (it only ever appears multiplied by m).

    Entries with degree below m are zero.  Complex input or any entry
    outside [-1, 1] (NaN included) raises DomainError; values beyond
    double range (orders m above about 150) raise NotRepresentable, an
    OverflowError.
    """
    l_max = _integer(l_max, "degree l_max", 0, _L_MAX, DomainError)
    m = _integer(m, "order m", 0, l_max, DomainError)
    if np.iscomplexobj(x):
        raise DomainError(f"argument must be real, got {x!r}")
    x = np.asarray(x, dtype=float)
    inside = (x >= -1.0) & (x <= 1.0)
    if not np.all(inside):
        bad = float(x[~inside][0])
        raise DomainError(f"argument must lie in [-1, 1], got {bad!r}")
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))  # sin(theta)

    values = np.zeros((l_max + 1, *x.shape))
    dtheta = np.zeros_like(values)
    over_sin = np.zeros_like(values)

    # Seeds at degree m: P_m^m = (2m-1)!! sin^m(theta).
    dfact = 1.0
    for i in range(1, 2 * m, 2):
        dfact *= i
    values[m] = dfact * _pow(s, m)
    # d/dtheta sin^m = m sin^{m-1} cos; safe for m = 0 (slope is 0).
    if m >= 1:
        sin_pow_m1 = _pow(s, m - 1)
        dtheta[m] = dfact * m * sin_pow_m1 * x
        over_sin[m] = dfact * sin_pow_m1
    if l_max > m:
        # Degree m+1 from the two-term start of the ascending recurrence.
        values[m + 1] = (2 * m + 1) * x * values[m]
        dtheta[m + 1] = (2 * m + 1) * (x * dtheta[m] - s * values[m])
        if m >= 1:
            over_sin[m + 1] = (2 * m + 1) * x * over_sin[m]
    for n in range(m + 2, l_max + 1):
        values[n] = (
            (2 * n - 1) * x * values[n - 1] - (n + m - 1) * values[n - 2]
        ) / (n - m)
        dtheta[n] = (
            (2 * n - 1) * (x * dtheta[n - 1] - s * values[n - 1])
            - (n + m - 1) * dtheta[n - 2]
        ) / (n - m)
        if m >= 1:
            over_sin[n] = (
                (2 * n - 1) * x * over_sin[n - 1]
                - (n + m - 1) * over_sin[n - 2]
            ) / (n - m)

    # Unnormalized P_l^m grows like (2m-1)!!, which leaves double range
    # for m beyond roughly 150; fail loudly instead of returning inf.
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(dtheta))):
        raise NotRepresentable(
            "associated Legendre values overflowed double precision; "
            "the unnormalized convention cannot represent this (l, m)"
        )
    return values, dtheta, over_sin


# ----------------------------------------------------------------------
# Gauss-Legendre quadrature
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a quadrature rule on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise DomainError("nodes and weights must be 1-d and equal length")


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # P_n(x) and P_{n-1}(x) by the three-term recurrence, elementwise.
    p_prev, p_cur = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p_cur = p_cur, ((2 * k + 1) * x * p_cur - k * p_prev) / (k + 1)
    return p_cur, p_prev


def gauss_legendre(count: int) -> QuadratureRule:
    """Gauss-Legendre rule with ``count`` nodes on [-1, 1].

    Newton iteration is carried out in the variable theta = arccos(x),
    which keeps the iteration well-conditioned near the endpoints.  All
    nodes iterate together; each stops once its own Newton step falls
    below 1e-15.  The node set is sorted ascending and symmetrized so
    that x and -x are exact negatives and paired weights are exactly
    equal.

    Each order is built once per process: repeated calls return the same
    rule, whose ``nodes`` and ``weights`` are read-only.
    """
    return _gauss_legendre(_integer(count, "count", 1, 4096, DomainError))


# Behind the validation, so that every bad count still raises DomainError
# and numpy and Python integers of one order share an entry.
@functools.lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> QuadratureRule:
    theta = math.pi * (np.arange(n) + 0.75) / (n + 0.5)
    active = np.arange(n)
    for _ in range(100):
        t = theta[active]
        x = np.cos(t)
        pn, pnm1 = _legendre_pair(n, x)
        # d/dtheta P_n(cos theta) = -n (P_{n-1} - x P_n) / sin(theta)
        step = pn / (-n * (pnm1 - x * pn) / np.sin(t))
        theta[active] = t - step
        active = active[np.abs(step) >= 1e-15]
        if active.size == 0:
            break
    nodes = np.cos(theta)
    pn, pnm1 = _legendre_pair(n, nodes)
    q = n * (pnm1 - nodes * pn) / np.sin(theta)
    weights = 2.0 / (q * q)
    order = np.argsort(nodes)
    nodes = nodes[order]
    weights = weights[order]
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)
