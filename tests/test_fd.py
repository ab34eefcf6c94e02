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


def test_step_too_small_for_the_stencil_is_refused_by_value():
    # p +- h rounded back to p: the divergence of p read 0.0 (it is 3), and
    # the Laplacian of p * p read nan and inf.  At the origin p +- h keeps
    # the step, but h * h = 1e-320 is subnormal, and the stencil's sum
    # divided by it kept four digits.
    with pytest.raises(DomainError, match="^step 1e-18 is lost to rounding"):
        divergence(lambda p: p, [0.1, 0.2, 0.3], 1e-18)
    with pytest.raises(DomainError, match="^step 1e-200 is lost to rounding"):
        vector_laplacian(lambda p: p * p, [0.1, 0.2, 0.3], 1e-200)
    with pytest.raises(DomainError, match="^step 1e-160 squared"):
        vector_laplacian(lambda p: p * p, [0.0, 0.0, 0.0], 1e-160)


def test_step_below_the_roundoff_floor_is_refused():
    # A step a few ulps wide passed the rounding check and read wrong:
    # the divergence of p as 3.70 (it is 3) at h = 3e-17, and the
    # Laplacian of p * p as [0, 0, -1.5e8] (it is [2, 2, 2]) at h = 1e-12.
    point = [0.1, 0.2, 0.3]
    with pytest.raises(DomainError, match="^step 3e-17 is below the divergence floor"):
        divergence(lambda p: p, point, 3e-17)
    with pytest.raises(DomainError, match="^step 1e-12 is below the Laplacian floor"):
        vector_laplacian(lambda p: p * p, point, 1e-12)
    # The floors are sqrt(eps) and eps^(1/3) times max(1, |p|_inf).
    assert divergence(lambda p: p, point, 1.5e-8) == pytest.approx(3.0, rel=1e-8)
    assert np.allclose(vector_laplacian(lambda p: p * p, point, 6.1e-6), 2.0, rtol=1e-5)
    far = [0.0, 0.0, 100.0]
    with pytest.raises(DomainError, match="divergence floor 1.49e-06"):
        divergence(lambda p: p, far, 1e-6)
    with pytest.raises(DomainError, match="Laplacian floor 0.000606"):
        vector_laplacian(lambda p: p * p, far, 1e-4)
