"""Real spherical harmonics and the tangential/radial vector basis.

The basis on the sphere is A_1 (tangential), A_2 = xi x A_1
(tangential) and A_3 = Y xi (radial); their vector Laplacian is checked
here against finite differences on the corresponding Cartesian fields.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from steklov_ball import (
    BallPoint,
    DomainError,
    InvalidMode,
    ModeIndex,
    NotRepresentable,
    StepTooLarge,
    SurfacePoint,
    Vec3,
    check_vector_laplacian,
    enumerate_modes,
    gram_matrix,
    scalar_Y,
    surface_direction,
    surface_quadrature,
    vector_A,
)

POINTS = [
    SurfacePoint(0.4, 0.9),
    SurfacePoint(1.3, 2.2),
    SurfacePoint(2.8, 5.9),
]


def test_mode_index_validation():
    with pytest.raises(InvalidMode):
        ModeIndex("odd", 0, 2)
    with pytest.raises(InvalidMode):
        ModeIndex("even", 3, 2)
    with pytest.raises(InvalidMode):
        ModeIndex("both", 0, 1)


def test_l_max_is_bounded_up_front():
    # Degrees stop at 200, where the Legendre towers do; a larger l_max
    # is refused before any work, not after building the modes.
    for func, bad in ((enumerate_modes, 201), (enumerate_modes, 400), (gram_matrix, 300)):
        with pytest.raises(InvalidMode, match=r"in \[0, 200\], got"):
            func(bad)
    assert len(enumerate_modes(200)) == 201**2
    # A surface rule integrates products of two harmonics, so its own
    # bound is the weak identity's finest order at degree 200.
    assert surface_quadrature(408).weights.shape == (412 * 818,)
    with pytest.raises(InvalidMode, match=r"in \[0, 408\], got 409"):
        surface_quadrature(409)


def test_enumerate_modes_count():
    # (2l+1) real modes per degree
    for l_max in (0, 1, 4):
        assert len(enumerate_modes(l_max)) == (l_max + 1) ** 2


def test_scalar_Y_closed_forms():
    p = SurfacePoint(1.1, 0.7)
    assert scalar_Y(ModeIndex("even", 0, 0), p) == pytest.approx(
        1.0 / math.sqrt(4 * math.pi), rel=1e-14
    )
    assert scalar_Y(ModeIndex("even", 0, 1), SurfacePoint(0.0, 0.0)) == pytest.approx(
        math.sqrt(3.0 / (4 * math.pi)), rel=1e-14
    )
    # Y_{1,0} = sqrt(3/4pi) cos(theta) everywhere
    for p in POINTS:
        assert scalar_Y(ModeIndex("even", 0, 1), p) == pytest.approx(
            math.sqrt(3.0 / (4 * math.pi)) * math.cos(p.theta), rel=1e-13
        )


@pytest.mark.parametrize("l", range(0, 9))
def test_scalar_Y_normalized(l):
    rule = surface_quadrature(l)
    n = ModeIndex("even", min(l, 1), l)
    vals = np.array(
        [scalar_Y(n, SurfacePoint(t, p)) for t, p in zip(rule.theta, rule.phi)]
    )
    assert float(np.sum(rule.weights * vals * vals)) == pytest.approx(1.0, rel=1e-12)


def test_gram_matrix_identity():
    labels, g = gram_matrix(6)
    assert g.shape == (len(labels), len(labels))
    assert np.max(np.abs(g - np.eye(len(labels)))) < 1e-10


def test_vector_basis_frame_structure():
    n = ModeIndex("even", 1, 3)
    for p in POINTS:
        a1 = vector_A(1, n, p)
        a2 = vector_A(2, n, p)
        a3 = vector_A(3, n, p)
        # tangential / radial split
        assert a1.er == 0.0 and a2.er == 0.0
        assert a3.etheta == 0.0 and a3.ephi == 0.0
        assert a3.er == pytest.approx(scalar_Y(n, p), rel=1e-13)
        # xi x A_1 = A_2: in the local frame the cross with xi rotates
        # (etheta, ephi) -> (-ephi, etheta)
        assert a2.etheta == pytest.approx(-a1.ephi, rel=1e-13, abs=1e-15)
        assert a2.ephi == pytest.approx(a1.etheta, rel=1e-13, abs=1e-15)
        # pointwise mutual orthogonality
        c1, c2, c3 = (a.to_cartesian(p) for a in (a1, a2, a3))
        assert abs(np.dot(c1, c2)) < 1e-14
        assert abs(np.dot(c1, c3)) < 1e-14


def test_tangential_basis_needs_positive_degree():
    with pytest.raises(InvalidMode):
        vector_A(1, ModeIndex("even", 0, 0), POINTS[0])
    with pytest.raises(InvalidMode):
        vector_A(4, ModeIndex("even", 0, 1), POINTS[0])


def test_vector_harmonic_overflow_is_typed():
    # P_160^160 leaves double range; this used to be a bare OverflowError.
    p = SurfacePoint(0.7, 1.1)
    for tau in (1, 2, 3):
        with pytest.raises(NotRepresentable):
            vector_A(tau, ModeIndex("even", 160, 160), p)


def test_vec3_cartesian_round_trip():
    p = SurfacePoint(1.1, 0.7)
    v = Vec3(0.3, -0.2, 0.5)
    xyz = v.to_cartesian(p)
    # Project back onto the local frame (e_r, e_theta, e_phi) at p.
    st, ct, sp, cp = math.sin(p.theta), math.cos(p.theta), math.sin(p.phi), math.cos(p.phi)
    frame = np.array([[st * cp, st * sp, ct], [ct * cp, ct * sp, -st], [-sp, cp, 0.0]])
    back = frame @ xyz
    assert back[0] == pytest.approx(v.er, rel=1e-14)
    assert back[1] == pytest.approx(v.etheta, rel=1e-14)
    assert back[2] == pytest.approx(v.ephi, rel=1e-14)
    assert np.linalg.norm(xyz) == pytest.approx(v.norm(), rel=1e-14)


def test_surface_direction_round_trip():
    p = SurfacePoint(2.1, 4.0)
    xyz = Vec3(1.0, 0.0, 0.0).to_cartesian(p)
    q = surface_direction(xyz)
    assert q.theta == pytest.approx(p.theta, abs=1e-14)
    assert q.phi == pytest.approx(p.phi, abs=1e-14)
    with pytest.raises(DomainError):
        surface_direction([0.0, 0.0, 0.0])


@pytest.mark.parametrize("tau", [1, 2, 3])
def test_vector_laplacian_residual_order(tau):
    n = ModeIndex("even", 1, 2)
    p = BallPoint(0.77, SurfacePoint(1.0, 2.0))
    r1 = check_vector_laplacian(tau, n, p, 4e-2)
    r2 = check_vector_laplacian(tau, n, p, 2e-2)
    order = math.log2(r1 / max(r2, 1e-300))
    assert order > 1.9


def test_vector_laplacian_step_guard():
    p = BallPoint(0.2, SurfacePoint(1.0, 2.0))
    with pytest.raises(StepTooLarge):
        check_vector_laplacian(1, ModeIndex("even", 0, 1), p, 0.1)


def test_ball_point_validation():
    with pytest.raises(DomainError):
        BallPoint(0.0, SurfacePoint(1.0, 1.0))
    with pytest.raises(DomainError):
        BallPoint(1.5, SurfacePoint(1.0, 1.0))
    with pytest.raises(DomainError):
        SurfacePoint(4.0, 0.0)
