"""Central finite-difference operators on fields in R^3.

These are deliberately dumb second-order stencils.  They exist as an
independent route to divergences and vector Laplacians so that the
analytic formulas elsewhere in the package can be cross-checked
against something that shares no code with them.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, _positive

__all__ = ["divergence", "vector_laplacian"]

Vector = Callable[[np.ndarray], Sequence[complex]]


def _point(p: Sequence[float]) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise DomainError(f"point must have 3 components, got shape {p.shape}")
    return p


def divergence(field: Vector, p, h: float):
    """Divergence of a vector field at a point, by the O(h^2) stencil."""
    h = _positive(h, "step")
    p = _point(p)
    total = 0.0
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        plus = np.asarray(field(p + e))
        minus = np.asarray(field(p - e))
        total = total + (plus[axis] - minus[axis]) / (2.0 * h)
    return total


def vector_laplacian(field: Vector, p, h: float) -> np.ndarray:
    """Componentwise Laplacian of a vector field at a point, by the
    O(h^2) stencil; real when every component is."""
    h = _positive(h, "step")
    p = _point(p)
    center = np.asarray(field(p), dtype=complex)
    total = -6.0 * center
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        total = total + np.asarray(field(p + e), dtype=complex)
        total = total + np.asarray(field(p - e), dtype=complex)
    result = total / (h * h)
    if np.allclose(result.imag, 0.0, atol=0.0):
        return result.real
    return result
