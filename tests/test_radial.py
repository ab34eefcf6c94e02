"""Radial profiles of the ball eigenfields.

Four kinds: TOROIDAL rides A_1 alone; SOLENOIDAL and COMPRESSIVE ride
(A_2, A_3); MATCHED is the combination of the last two whose radial
component vanishes on the boundary.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from steklov_ball import (
    DomainError,
    InvalidMode,
    NotRepresentable,
    RadialFunction,
    RadialKind,
    bessel_operator,
    radial_profiles,
    sph_bessel_j,
    sph_bessel_j_deriv,
)

RS = [0.15, 0.4, 0.75, 1.0]


def test_toroidal_is_plain_bessel():
    pair = radial_profiles(RadialKind.TOROIDAL, 2, 7.3)
    k = math.sqrt(7.3)
    for r in RS:
        assert pair.e1(r) == pytest.approx(sph_bessel_j(2, k * r), rel=1e-13)
        assert pair.e2(r) == 0.0
        assert pair.e3(r) == 0.0


def test_solenoidal_closed_form():
    l, k2 = 3, 4.0
    pair = radial_profiles(RadialKind.SOLENOIDAL, l, k2)
    k, L = 2.0, l * (l + 1)
    for r in RS:
        want2 = math.sqrt(L) * (k * sph_bessel_j_deriv(l, k * r) + sph_bessel_j(l, k * r) / r)
        want3 = L * sph_bessel_j(l, k * r) / r
        assert pair.e2(r) == pytest.approx(want2, rel=1e-12)
        assert pair.e3(r) == pytest.approx(want3, rel=1e-12)


def test_compressive_closed_form():
    l, k2, theta = 1, 2.25, 0.25
    pair = radial_profiles(RadialKind.COMPRESSIVE, l, k2, theta)
    q = math.sqrt(k2 / theta)
    for r in RS:
        assert pair.e2(r) == pytest.approx(
            math.sqrt(2.0) * sph_bessel_j(l, q * r) / r, rel=1e-12
        )
        assert pair.e3(r) == pytest.approx(q * sph_bessel_j_deriv(l, q * r), rel=1e-12)


def test_compressive_is_a_gradient():
    # E = grad(j_l(q r) Y): the gradient structure fixes
    # e2 = sqrt(L) f / r and e3 = f' for the potential f = j_l(q r).
    l, k2, theta = 2, 3.0, 1.5
    pair = radial_profiles(RadialKind.COMPRESSIVE, l, k2, theta)
    q = math.sqrt(k2 / theta)
    h = 1e-6
    for r in (0.3, 0.8):
        num = (sph_bessel_j(l, q * (r + h)) - sph_bessel_j(l, q * (r - h))) / (2 * h)
        assert pair.e3(r) == pytest.approx(num, rel=1e-8)


@pytest.mark.parametrize(
    "l,k2,theta",
    [(1, 1.0, 1.0), (2, 9.0, 0.5), (4, -6.0, 2.0), (3, 30.0, 1.0), (5, -0.7, 0.3)],
)
def test_matched_radial_trace_vanishes(l, k2, theta):
    pair = radial_profiles(RadialKind.MATCHED, l, k2, theta)
    # boundary condition E . nu = 0 is exactly e3(1) = 0
    scale = max(abs(pair.e2(1.0)), abs(pair.e3(0.5)), 1e-30)
    assert abs(pair.e3(1.0)) <= 1e-12 * scale


def test_matched_combination_weights():
    # MATCHED = a SOLENOIDAL + COMPRESSIVE with a chosen to cancel e3(1).
    l, k2, theta = 2, 5.0, 0.7
    sol = radial_profiles(RadialKind.SOLENOIDAL, l, k2, theta)
    com = radial_profiles(RadialKind.COMPRESSIVE, l, k2, theta)
    mat = radial_profiles(RadialKind.MATCHED, l, k2, theta)
    a = -com.e3(1.0) / sol.e3(1.0)
    for r in (0.2, 0.6, 1.0):
        assert mat.e2(r) == pytest.approx(a * sol.e2(r) + com.e2(r), rel=1e-11)
        assert mat.e3(r) == pytest.approx(a * sol.e3(r) + com.e3(r), rel=1e-11, abs=1e-13)


def test_bessel_operator_annihilates_bessel():
    # B_{k,l} applied to j_l(kr) is identically zero.
    for l, k2 in [(1, 1.0), (3, 12.5), (2, -4.0)]:
        pair = radial_profiles(RadialKind.TOROIDAL, l, k2)
        bf = bessel_operator(pair.e1, k2)
        for r in RS:
            assert abs(bf(r)) < 1e-11 * max(1.0, abs(pair.e1(r)))


def test_bessel_operator_nests():
    # B^2 on j_l(kr) is zero too (iterating the operator is legal).
    pair = radial_profiles(RadialKind.TOROIDAL, 2, 3.0)
    b2 = bessel_operator(bessel_operator(pair.e1, 3.0), 3.0)
    assert abs(b2(0.7)) < 1e-9


def phi_reference(pair, r: float) -> complex:
    # div(e2 A_2 + e3 A_3) = Phi Y with Phi = e3' + 2 e3 / r - sqrt(l(l+1)) e2 / r,
    # evaluated pointwise rather than through the radial algebra.
    l = pair.l
    return pair.e3.deriv()(r) + 2.0 * pair.e3(r) / r - math.sqrt(l * (l + 1)) * pair.e2(r) / r


def test_divergence_coeffs_closed_forms():
    # solenoidal fields are divergence-free; compressive divergence is
    # -(k^2/theta) j_l(q r).
    l, k2, theta = 1, 4.0, 2.0
    q = math.sqrt(k2 / theta)
    sol = radial_profiles(RadialKind.SOLENOIDAL, l, k2, theta)
    com = radial_profiles(RadialKind.COMPRESSIVE, l, k2, theta)
    for r in (0.3, 0.7, 1.0):
        for dsol in (sol.phi(r), phi_reference(sol, r)):
            assert abs(dsol) < 1e-12 * max(1.0, abs(sol.e3(r)))
        want = -(k2 / theta) * sph_bessel_j(l, q * r)
        for dcom in (com.phi(r), phi_reference(com, r)):
            assert dcom == pytest.approx(want, rel=1e-11)


def test_radial_function_calculus():
    pair = radial_profiles(RadialKind.TOROIDAL, 1, 1.0)
    f = pair.e1
    h = 1e-6
    for r in (0.4, 0.9):
        num = (f(r + h) - f(r - h)) / (2 * h)
        assert f.deriv()(r) == pytest.approx(num, rel=1e-9)
    g = f.scaled(2.5)
    assert g(0.5) == pytest.approx(2.5 * f(0.5), rel=1e-14)
    tp = f.times_power(3.0, -1)
    assert tp(0.5) == pytest.approx(3.0 * f(0.5) / 0.5, rel=1e-14)


def test_derivatives_and_phi_are_built_once():
    pair = radial_profiles(RadialKind.MATCHED, 3, -7.5, 0.5)
    for f in (pair.e2, pair.e3):
        assert f.deriv() is f.deriv()
        assert f.deriv().deriv() is f.deriv().deriv()
        fresh = RadialFunction(l=f.l, terms=f.terms)
        assert fresh.deriv() is not f.deriv()
        for r in RS:
            assert fresh.deriv().deriv()(r) == f.deriv().deriv()(r)
    assert pair.phi is pair.phi
    for r in RS:
        assert pair.phi(r) == pytest.approx(phi_reference(pair, r), rel=1e-13, abs=1e-15)


def test_negative_k2_profiles_are_real():
    # modes at k^2 < 0 are normalized to real radial data
    for kind in (RadialKind.SOLENOIDAL, RadialKind.COMPRESSIVE, RadialKind.MATCHED):
        pair = radial_profiles(kind, 2, -9.0, 0.5)
        vals = [pair.e2(r) for r in RS] + [pair.e3(r) for r in RS]
        mags = [abs(v) for v in vals]
        assert max(mags) > 0.0
        # values are complex numbers but either purely real or purely
        # imaginary as a set; the mode constructor handles the phase.
        re = max(abs(v.real) for v in vals)
        im = max(abs(v.imag) for v in vals)
        assert min(re, im) < 1e-13 * max(re, im)


def test_radial_profiles_validation():
    with pytest.raises(InvalidMode):
        radial_profiles(RadialKind.SOLENOIDAL, 0, 1.0)
    with pytest.raises(InvalidMode):
        radial_profiles(RadialKind.TOROIDAL, 1, 0.0)
    with pytest.raises(DomainError):
        radial_profiles(RadialKind.COMPRESSIVE, 1, 1.0, -2.0)


def test_radial_profiles_take_the_eigenvalue_domain():
    # The domain of lambda1, refused up front rather than deep inside a
    # tower or with a misleading message.
    for kind in RadialKind:
        with pytest.raises(InvalidMode, match=r"in \[1, 200\], got 250$"):
            radial_profiles(kind, 250, 1.0)
        with pytest.raises(DomainError, match="at most 1e"):
            radial_profiles(kind, 2, 1e12)
        with pytest.raises(DomainError, match="at most 1e"):
            radial_profiles(kind, 2, 1e6, 1e-5)
        with pytest.raises(DomainError, match="^theta must be positive and finite, got inf$"):
            radial_profiles(kind, 2, 1.0, math.inf)


# Radii from the series disc (|c r| < 1e-2) to the boundary, in a 2-d array.
RADII = np.array([[1e-4, 2e-3, 0.05, 0.15, 0.33, 0.4], [0.5, 0.61, 0.75, 0.88, 0.97, 1.0]])


@pytest.mark.parametrize("kind,l,k2,theta", [
    (RadialKind.TOROIDAL, 3, 7.3, 1.0),
    (RadialKind.SOLENOIDAL, 2, -9.0, 1.0),
    (RadialKind.COMPRESSIVE, 4, 12.0, 0.5),
    (RadialKind.MATCHED, 5, 30.0, 2.0),
    (RadialKind.MATCHED, 1, -3.0, 0.7),
    (RadialKind.MATCHED, 12, 400.0, 1.0),
])
def test_radial_functions_on_arrays_equal_scalar_calls(kind, l, k2, theta):
    pair = radial_profiles(kind, l, k2, theta)
    functions = [pair.phi]
    for f in (pair.e1, pair.e2, pair.e3):
        functions += [f, f.deriv(), f.deriv().deriv()]
    for f in functions:
        got = f(RADII)
        want = np.array([[f(float(r)) for r in row] for row in RADII])
        assert got.shape == RADII.shape
        assert got.tobytes() == want.tobytes()


def test_radial_function_on_an_array_refuses_any_nonpositive_radius():
    f = radial_profiles(RadialKind.MATCHED, 2, 3.0).e2
    for radii in ([0.5, 0.0], [[0.3, 0.9], [-1.0, 0.2]], [0.4, math.nan]):
        with pytest.raises(DomainError, match="r must be positive"):
            f(np.array(radii))


def test_slope_term_where_j_l_underflows_is_refused():
    # e3 = q j_3'(q r) read 2.1077e-320 at r = 1e-160, where mpmath gives
    # 9.035e-321: j_3(q r) underflowed and the slope lost its second term.
    e3 = radial_profiles(RadialKind.COMPRESSIVE, 3, 5.0, 0.5).e3
    with pytest.raises(NotRepresentable):
        e3(1e-160)


def test_radial_function_refuses_a_degree_outside_the_tower():
    # A negative degree once read the tower's last entry (l = -1 gave
    # j_1(0.5)) or raised a bare IndexError (l = -3); 201 is past the tower.
    for l in (-1, -3, 201):
        with pytest.raises(DomainError, match=rf"^degree l must be an integer in \[0, 200\], got {l}$"):
            RadialFunction.build(l, 1.0, {0: 1.0})
        with pytest.raises(DomainError):
            RadialFunction.zero(l)
    assert RadialFunction.build(0, 1.0, {0: 1.0})(0.5) == pytest.approx(sph_bessel_j(0, 0.5), rel=1e-15)
