"""Central finite-difference operators on fields in R^3.

These are deliberately dumb second-order stencils (optionally with one
level of Richardson extrapolation).  They exist as an independent route
to gradients, divergences, curls and Laplacians so that the analytic
formulas elsewhere in the package can be cross-checked against something
that shares no code with them.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "derivative",
    "gradient",
    "divergence",
    "curl",
    "scalar_laplacian",
    "vector_laplacian",
]

Scalar = Callable[[np.ndarray], complex]
Vector = Callable[[np.ndarray], Sequence[complex]]


def _validate_step(h: float) -> float:
    h = float(h)
    if not (h > 0.0) or not np.isfinite(h):
        raise DomainError(f"step must be positive and finite, got {h!r}")
    return h


def _point(p: Sequence[float]) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise DomainError(f"point must have 3 components, got shape {p.shape}")
    return p


def _maybe_richardson(stencil, h: float, richardson: bool):
    # The O(h^2) stencil at h, or one Richardson level from h and h/2.
    if not richardson:
        return stencil(h)
    return (4.0 * stencil(0.5 * h) - stencil(h)) / 3.0


def derivative(f, x: float, h: float, order: int = 1, richardson: bool = False):
    """Derivative of a single-variable function by central differences.

    ``order`` selects the first or second derivative.  With
    ``richardson=True`` the O(h^2) stencil is evaluated at h and h/2 and
    extrapolated one level, giving an O(h^4) result.
    """
    h = _validate_step(h)
    if order not in (1, 2):
        raise DomainError(f"order must be 1 or 2, got {order}")

    def stencil(step):
        if order == 1:
            return (f(x + step) - f(x - step)) / (2.0 * step)
        return (f(x + step) - 2.0 * f(x) + f(x - step)) / (step * step)

    return _maybe_richardson(stencil, h, richardson)


def _partial(f: Scalar, p: np.ndarray, axis: int, h: float):
    e = np.zeros(3)
    e[axis] = h
    return (f(p + e) - f(p - e)) / (2.0 * h)


def _partial2(f: Scalar, p: np.ndarray, axis: int, h: float, center):
    e = np.zeros(3)
    e[axis] = h
    return (f(p + e) - 2.0 * center + f(p - e)) / (h * h)


def gradient(f: Scalar, p, h: float, richardson: bool = False) -> np.ndarray:
    """Gradient of a scalar field at a point, as a length-3 array."""
    h = _validate_step(h)
    p = _point(p)

    def stencil(step):
        return np.asarray([_partial(f, p, axis, step) for axis in range(3)])

    return _maybe_richardson(stencil, h, richardson)


def divergence(field: Vector, p, h: float, richardson: bool = False):
    """Divergence of a vector field at a point."""
    h = _validate_step(h)
    p = _point(p)

    def stencil(step):
        total = 0.0
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = step
            plus = np.asarray(field(p + e))
            minus = np.asarray(field(p - e))
            total = total + (plus[axis] - minus[axis]) / (2.0 * step)
        return total

    return _maybe_richardson(stencil, h, richardson)


def curl(field: Vector, p, h: float, richardson: bool = False) -> np.ndarray:
    """Curl of a vector field at a point, as a length-3 array."""
    h = _validate_step(h)
    p = _point(p)

    def stencil(step):
        jac = np.empty((3, 3), dtype=complex)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = step
            plus = np.asarray(field(p + e), dtype=complex)
            minus = np.asarray(field(p - e), dtype=complex)
            jac[:, axis] = (plus - minus) / (2.0 * step)
        out = np.array(
            [
                jac[2, 1] - jac[1, 2],
                jac[0, 2] - jac[2, 0],
                jac[1, 0] - jac[0, 1],
            ]
        )
        return out

    result = _maybe_richardson(stencil, h, richardson)
    if np.allclose(result.imag, 0.0, atol=0.0):
        return result.real
    return result


def scalar_laplacian(f: Scalar, p, h: float, richardson: bool = False):
    """Laplacian of a scalar field at a point."""
    h = _validate_step(h)
    p = _point(p)

    def stencil(step):
        center = f(p)
        return sum(_partial2(f, p, axis, step, center) for axis in range(3))

    return _maybe_richardson(stencil, h, richardson)


def vector_laplacian(field: Vector, p, h: float, richardson: bool = False) -> np.ndarray:
    """Componentwise Laplacian of a vector field at a point."""
    h = _validate_step(h)
    p = _point(p)

    def stencil(step):
        center = np.asarray(field(p), dtype=complex)
        total = -6.0 * center
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = step
            total = total + np.asarray(field(p + e), dtype=complex)
            total = total + np.asarray(field(p - e), dtype=complex)
        return total / (step * step)

    result = _maybe_richardson(stencil, h, richardson)
    if np.allclose(result.imag, 0.0, atol=0.0):
        return result.real
    return result
