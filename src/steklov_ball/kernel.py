"""The production eigenvalue kernel: both explicit Steklov eigenvalue
families of the penalized curl-curl operator on the unit ball, from one
real Bessel ratio (see `eigen_grid`).

`eigs`, `sweep` and the public lambda1/lambda2 run on this module alone;
it imports nothing of the verification layer, which checks it by
independent routes (complex Bessel towers, eigenfields, residuals).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import _L_MAX, DirichletResonance, InvalidMode, _choice, _integer, _validate_eig_args

__all__ = ["eigen_grid", "lambda1", "lambda2"]


def _start(z2):
    """Depth n and Debye seed rho_n of the backward continued fraction,
    elementwise on a float or an array (see `eigen_grid`)."""
    t = np.sqrt(np.abs(z2))
    n = _L_MAX + 2 + np.ceil(np.sqrt(40.0 * t)) + np.ceil(t) * (z2 > 0.0)
    return n, n + 1.5 + np.sqrt((n + 1.5) ** 2 - z2)


def _ratio(l: int, z2: float) -> float:
    n, rho = _start(z2)
    c, rho = float(2 * n + 1), float(rho)
    for _ in range(int(n) - l):  # rho_m = (2m + 3) - z^2 / rho_{m+1}, c = 2m + 3
        rho = c - z2 / rho
        c -= 2.0
    return rho


def _cells(family: int, l, k2, rho_k, rho_q, theta: float):
    """Eigenvalue and off-pole flag, elementwise on floats or arrays."""
    if family == 2:
        return k2 / rho_k - (l + 1), abs(rho_k) >= 1e-12 * abs(l * rho_k - k2)
    w = (l + 1) / (theta * (l * rho_q - k2 / theta))
    den = 1.0 / rho_k + w
    ok = (abs(den) >= 1e-10 * abs(1.0 / rho_k)) & (abs(den) >= 1e-10 * abs(w))
    if theta == 1.0:
        # Both terms of den vanish together at a zero of j_{l+1}(k), a pole
        # at theta = 1; flag it by the Newton step |j_{l+1}| < 1e-12 |k j_{l+1}'|,
        # as k j_{l+1}'/j_{l+1} = rho_l - (l + 2).
        ok &= abs(rho_k - (l + 2)) <= 1e12
    return -1.0 / den, ok


def eigen_grid(family: int, l_lo: int, l_hi: int, k2s, theta: float = 1.0):
    """Eigenvalues of one family for degrees l_lo..l_hi (rows) at every k^2.

    Returns arrays ``(values, ok)``; ``ok`` is False, and ``values`` NaN, at
    the poles where lambda1/lambda2 raise and at k^2 = 0.  Both families
    are functions of rho_l(z^2) = z j_l(z) / j_{l+1}(z), real for real z^2,
    from the backward continued fraction rho_l = 2l+3 - z^2/rho_{l+1}
    (Gautschi, SIAM Rev. 9, 1967; DLMF 10.51): lambda2 = k^2/rho_k - (l+1)
    and lambda1 = -1 / (1/rho_k + (l+1) / (theta (l rho_q - q^2))) with
    q^2 = k^2/theta, where IEEE infinities give the limit at a zero of
    j_l(k), j_l'(q), or j_{l+1} off theta = 1.  Poles as in the Bessel
    forms: family 2 where |j_l(k)| < 1e-12 |k j_l'(k)|, family 1 where its
    two denominator terms cancel to 1e-10 and, at theta = 1, where
    |j_{l+1}(k)| < 1e-12 |k j_{l+1}'(k)|.  Each sample starts at its own
    depth, above every degree and the turning point |z|, plus sqrt(40 |z|)
    degrees that damp the error of Debye's fixed point below roundoff; so
    a cell equals lambda1/lambda2 bit for bit, in any grid.  One descent
    turns each degree into its row of cells as it passes, so a call holds
    its results (9 bytes a cell) plus a few vectors of the samples' length.
    """
    k2 = np.asarray(k2s)
    if k2.dtype.kind not in "biuf":
        raise InvalidMode(f"k2s must be real numbers, got {k2s!r}")
    k2 = k2.astype(float, copy=False)
    family = _choice(family, "family", (1, 2))
    l_lo, l_hi = (_integer(l, "degree l", -math.inf) for l in (l_lo, l_hi))
    if l_lo > l_hi:
        raise InvalidMode(f"degree range {l_lo!r}..{l_hi!r} is empty")
    if k2.ndim != 1:
        raise InvalidMode(f"k2s must be 1-d, got {k2.ndim}-d")
    if not np.all(np.isfinite(k2)):
        raise InvalidMode(f"k2s must be finite, got {float(k2[~np.isfinite(k2)][0])!r}")
    _validate_eig_args(l_lo, 1.0)
    _, _, theta = _validate_eig_args(l_hi, float(np.max(np.abs(k2), initial=0.0)) or 1.0, theta)
    z2s = (k2,) if family == 2 or theta == 1.0 else (k2, k2 / theta)
    fractions = [(z2, *_start(z2)) for z2 in z2s]
    tops = [int(depth.max(initial=0.0)) for _, depth, _ in fractions]
    rhos = [seed for *_, seed in fractions]
    shape = (l_hi - l_lo + 1, k2.size)
    values, ok = np.empty(shape), np.empty(shape, bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for n in range(max(tops), l_lo - 1, -1):
            for i, (z2, depth, seed) in enumerate(fractions):
                if n < tops[i]:  # each fraction starts at its own deepest sample
                    rhos[i] = np.where(n < depth, (2 * n + 3) - z2 / rhos[i], seed)
            if n <= l_hi:
                row, good = _cells(family, float(n), k2, rhos[0], rhos[-1], theta)
                good &= np.isfinite(row) & (k2 != 0.0)
                row[~good] = np.nan
                values[n - l_lo], ok[n - l_lo] = row, good
    return values, ok


def _eigenvalue(family: int, l: int, k2: float, theta: float) -> float:
    l, k2, theta = _validate_eig_args(l, k2, theta)
    try:
        rho_k = _ratio(l, k2)
        rho_q = rho_k if family == 2 or theta == 1.0 else _ratio(l, k2 / theta)
        value, ok = _cells(family, l, k2, rho_k, rho_q, theta)
    except ZeroDivisionError:  # a Bessel zero hit exactly: IEEE infinities give the limit
        values, oks = eigen_grid(family, l, l, [k2], theta)
        value, ok = float(values[0, 0]), bool(oks[0, 0])
    if not (ok and math.isfinite(value)):
        raise DirichletResonance(f"family-{family} pole at l = {l}, k2 = {k2}, theta = {theta}")
    return value


def lambda1(l: int, k2: float, theta: float = 1.0) -> float:
    """Family-1 Steklov eigenvalue.

    lambda = -[j_l'(q) j_l(k) q k^2] /
             [j_l(q) j_l(k) l(l+1) - j_l'(q) j_l'(k) k^2/sqrt(theta)
              - j_l'(q) j_l(k) k/sqrt(theta)],  q = k/sqrt(theta).

    Raises DirichletResonance at the poles (Dirichlet eigenvalues of the
    interior problem), InvalidMode for l outside [1, 200] or k2 = 0, and
    DomainError for |k2| or |k2/theta| above 1e10.
    """
    return _eigenvalue(1, l, k2, theta)


def lambda2(l: int, k2: float) -> float:
    """Family-2 Steklov eigenvalue -(j_l(k) + k j_l'(k)) / j_l(k).

    Independent of the penalty parameter.  Raises DirichletResonance
    when j_l(k) vanishes (within 1e-12 of the k j_l'(k) scale).
    """
    return _eigenvalue(2, l, k2, 1.0)
