"""Central finite-difference operators on fields in R^3.

These are deliberately dumb second-order stencils.  They exist as an
independent route to divergences and vector Laplacians so that the
analytic formulas elsewhere in the package can be cross-checked
against something that shares no code with them.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, _positive

__all__ = ["divergence", "vector_laplacian"]

Vector = Callable[[np.ndarray], Sequence[complex]]


def _stencil(p: Sequence[float], h: float) -> tuple[np.ndarray, float]:
    # The point and the step, refused where p +- h rounds back to p on
    # some axis: the stencil would then difference a field with itself.
    h = _positive(h, "step")
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise DomainError(f"point must have 3 components, got shape {p.shape}")
    if np.any((p + h == p) | (p - h == p)):
        raise DomainError(f"step {h!r} is lost to rounding at the point {p.tolist()!r}")
    return p, h


def _floor(p: np.ndarray, h: float, power: float, name: str) -> None:
    # Refuse a step below eps**power * max(1, |p|_inf), where the rounding
    # of the field values, amplified by the stencil's 1/h or 1/h^2, would
    # swamp the difference.
    floor = sys.float_info.epsilon**power * max(1.0, float(np.max(np.abs(p))))
    if h < floor:
        raise DomainError(f"step {h!r} is below the {name} floor {floor:.3g} at the point {p.tolist()!r}")


def divergence(field: Vector, p, h: float):
    """Divergence of a vector field at a point, by the O(h^2) stencil.

    The step must be at least sqrt(eps) * max(1, |p|_inf), which bounds
    the quotient's roundoff, of order eps |F| / h, by about 1.5e-8 |F|; a
    smaller step raises DomainError."""
    p, h = _stencil(p, h)
    _floor(p, h, 1.0 / 2.0, "divergence")
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
    O(h^2) stencil; real when every component is.  The step's square
    divides the sum, so it must be a normal double.  The step must also
    be at least eps^(1/3) * max(1, |p|_inf), which bounds the quotient's
    roundoff, of order eps |F| / h^2, by about 6e-6 |F|; a smaller step
    raises DomainError."""
    p, h = _stencil(p, h)
    if not sys.float_info.min <= h * h < math.inf:
        raise DomainError(f"step {h!r} squared leaves the normal double range")
    _floor(p, h, 1.0 / 3.0, "Laplacian")
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
