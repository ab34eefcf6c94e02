"""Central-difference stencils against fields with known derivatives."""

from __future__ import annotations

import math

import numpy as np
import pytest

from steklov_ball import DomainError
from steklov_ball.fd import (
    curl,
    derivative,
    divergence,
    gradient,
    scalar_laplacian,
    vector_laplacian,
)

P = np.array([0.3, -0.5, 0.7])


def test_derivative_orders():
    f = math.sin
    x = 0.9
    assert derivative(f, x, 1e-5) == pytest.approx(math.cos(x), abs=1e-9)
    assert derivative(f, x, 1e-4, order=2) == pytest.approx(-math.sin(x), abs=1e-7)
    assert derivative(f, x, 1e-3, richardson=True) == pytest.approx(
        math.cos(x), abs=1e-11
    )


def test_derivative_observed_order():
    # second-order stencil: halving h divides the error by ~4
    f, x = math.exp, 0.4
    e1 = abs(derivative(f, x, 1e-2) - math.exp(x))
    e2 = abs(derivative(f, x, 5e-3) - math.exp(x))
    assert 1.9 < math.log2(e1 / e2) < 2.1


def test_gradient_polynomial():
    f = lambda p: p[0] ** 2 * p[1] + 3.0 * p[2]
    got = gradient(f, P, 1e-5)
    want = np.array([2 * P[0] * P[1], P[0] ** 2, 3.0])
    assert np.max(np.abs(got - want)) < 1e-9


def test_divergence_and_curl_linear_field():
    # F = (x + 2y, y - z, 4z + x): div = 6, curl = (1, -1, -2), both exact
    # for any h because the field is affine.
    field = lambda p: (p[0] + 2 * p[1], p[1] - p[2], 4 * p[2] + p[0])
    assert divergence(field, P, 0.1) == pytest.approx(6.0, abs=1e-12)
    assert np.allclose(curl(field, P, 0.1), [1.0, -1.0, -2.0], atol=1e-12)


def test_curl_of_gradient_vanishes():
    field = lambda p: gradient(lambda q: q[0] * q[1] * q[2] ** 2, p, 1e-5)
    assert np.max(np.abs(curl(field, P, 1e-3))) < 1e-6


def test_scalar_laplacian_harmonic_and_quadratic():
    # x^2 - y^2 is harmonic; |p|^2 has Laplacian 6.
    assert scalar_laplacian(lambda p: p[0] ** 2 - p[1] ** 2, P, 1e-4) == pytest.approx(
        0.0, abs=1e-8
    )
    assert scalar_laplacian(lambda p: float(np.dot(p, p)), P, 1e-4) == pytest.approx(
        6.0, rel=1e-7
    )


def test_vector_laplacian_componentwise():
    field = lambda p: (p[0] ** 3, p[1] ** 2 * p[2], 0.0)
    got = vector_laplacian(field, P, 1e-4)
    want = np.array([6.0 * P[0], 2.0 * P[2], 0.0])
    assert np.max(np.abs(got - want)) < 1e-7


def test_complex_valued_fields_pass_through():
    f = lambda p: math.cos(p[0]) + 1j * math.sin(p[0])
    d = derivative(lambda x: f(np.array([x, 0, 0])), 0.2, 1e-5, richardson=True)
    assert d.real == pytest.approx(-math.sin(0.2), abs=1e-11)
    assert d.imag == pytest.approx(math.cos(0.2), abs=1e-11)


def test_scalar_operators_return_scalars():
    # One Richardson step serves every operator; the scalar ones still
    # return a real or complex scalar, never an array.
    real = lambda p: p[0] ** 2 * p[1] + math.sin(p[2])
    cplx = lambda p: complex(p[0] * p[1], p[2] ** 3)
    vec = lambda p: [p[0] * p[1], math.cos(p[2]), p[0] ** 3]
    for rich in (False, True):
        for value, kind in (
            (derivative(math.sin, 0.4, 1e-3, richardson=rich), float),
            (derivative(lambda x: 1j * x * x, 0.4, 1e-3, richardson=rich), complex),
            (scalar_laplacian(real, P, 1e-3, richardson=rich), float),
            (scalar_laplacian(cplx, P, 1e-3, richardson=rich), complex),
            (divergence(vec, P, 1e-3, richardson=rich), float),
        ):
            assert isinstance(value, kind) and not isinstance(value, np.ndarray)
        assert gradient(real, P, 1e-3, richardson=rich).shape == (3,)


def test_rejects_bad_step_and_point():
    with pytest.raises(DomainError):
        derivative(math.sin, 0.0, 0.0)
    with pytest.raises(DomainError):
        derivative(math.sin, 0.0, -1e-3)
    with pytest.raises(DomainError):
        gradient(lambda p: 0.0, [1.0, 2.0], 1e-3)
