"""Central-difference stencils against fields with known derivatives."""

from __future__ import annotations

import math

import numpy as np
import pytest

from steklov_ball import DomainError
from steklov_ball.fd import divergence, vector_laplacian

P = np.array([0.3, -0.5, 0.7])


def test_divergence_linear_field():
    # F = (x + 2y, y - z, 4z + x): div = 6, exact for any h because the
    # field is affine.
    field = lambda p: (p[0] + 2 * p[1], p[1] - p[2], 4 * p[2] + p[0])
    assert divergence(field, P, 0.1) == pytest.approx(6.0, abs=1e-12)


def test_vector_laplacian_componentwise():
    field = lambda p: (p[0] ** 3, p[1] ** 2 * p[2], 0.0)
    got = vector_laplacian(field, P, 1e-4)
    want = np.array([6.0 * P[0], 2.0 * P[2], 0.0])
    assert np.max(np.abs(got - want)) < 1e-7


def test_complex_valued_fields_pass_through():
    # F = (e^{ix}, 0, 0): div F = i e^{ix} and Delta F = (-e^{ix}, 0, 0).
    field = lambda p: (math.cos(p[0]) + 1j * math.sin(p[0]), 0.0, 0.0)
    d = divergence(field, P, 1e-5)
    assert d.real == pytest.approx(-math.sin(P[0]), abs=1e-9)
    assert d.imag == pytest.approx(math.cos(P[0]), abs=1e-9)
    lap = vector_laplacian(field, P, 1e-3)
    want = -np.array([math.cos(P[0]) + 1j * math.sin(P[0]), 0.0, 0.0])
    assert np.iscomplexobj(lap) and np.max(np.abs(lap - want)) < 1e-6


def test_scalar_operators_return_scalars():
    # The divergence of a real or complex field is a real or complex
    # scalar, never an array; the vector Laplacian of a real field is real.
    real = lambda p: [p[0] * p[1], math.cos(p[2]), p[0] ** 3]
    cplx = lambda p: [p[0] * p[1], 1j * math.cos(p[2]), p[0] ** 3]
    for value, kind in ((divergence(real, P, 1e-3), float), (divergence(cplx, P, 1e-3), complex)):
        assert isinstance(value, kind) and not isinstance(value, np.ndarray)
    lap = vector_laplacian(real, P, 1e-3)
    assert lap.shape == (3,) and lap.dtype == float


def test_rejects_bad_step_and_point():
    field = lambda p: p
    for h in (0.0, -1e-3, math.nan):
        with pytest.raises(DomainError):
            divergence(field, P, h)
    with pytest.raises(DomainError):
        vector_laplacian(field, [1.0, 2.0], 1e-3)
