"""One argument policy at every entry point: an integer argument (a
degree, order, count or dimension) takes a Python or numpy integer and
gives the same result for both; a bool, a float or a string is refused
with the site's typed error, which quotes the value.  A family or tau
selector follows the same rule within its set."""

from __future__ import annotations

import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from steklov_ball import (
    DomainError,
    InvalidMode,
    ModeIndex,
    RadialKind,
    BallPoint,
    SurfacePoint,
    Vec3,
    ball_steklov_spectrum,
    bessel_zeros,
    enumerate_modes,
    exclusion_check,
    family1_resonances,
    gauss_legendre,
    gram_matrix,
    harmonic_polynomial_dimension,
    lambda1,
    lambda1_theta1_alt,
    lambda2,
    magnetic_zeros,
    multiplicity,
    neumann_zeros,
    radial_profiles,
    residual_fourth_order,
    residual_system,
    run_suites,
    sph_bessel_j,
    sph_bessel_j_all,
    sph_bessel_j_deriv,
    steklov_mode,
    surface_quadrature,
    vector_A,
    weyl_exponent_fit,
    zero_in_spectrum,
)
from steklov_ball.kernel import eigen_grid
from steklov_ball.specfun import assoc_legendre_tower

E3 = radial_profiles(RadialKind.MATCHED, 2, 3.0).e3
N1 = ModeIndex("even", 0, 1)
MODE = steklov_mode(1, N1, 1.0)

# name -> (call with the integer argument, a valid value, the error type)
CASES = {
    "lambda1": (lambda v: lambda1(v, 3.0, 0.5), 3, InvalidMode),
    "lambda2": (lambda v: lambda2(v, 3.0), 3, InvalidMode),
    "eigen_grid.l_lo": (lambda v: eigen_grid(1, v, 4, [-2.0, 3.0], 0.5), 2, InvalidMode),
    "eigen_grid.l_hi": (lambda v: eigen_grid(2, 1, v, [-2.0, 3.0]), 3, InvalidMode),
    "sph_bessel_j_all": (lambda v: sph_bessel_j_all(v, 1.5 + 0.5j), 3, DomainError),
    "sph_bessel_j": (lambda v: sph_bessel_j(v, 1.5), 3, DomainError),
    "sph_bessel_j_deriv": (lambda v: sph_bessel_j_deriv(v, 1.5), 3, DomainError),
    "assoc_legendre_tower.m": (lambda v: assoc_legendre_tower(v, 5, 0.3), 2, DomainError),
    "assoc_legendre_tower.l_max": (lambda v: assoc_legendre_tower(1, v, 0.3), 4, DomainError),
    "gauss_legendre": (lambda v: gauss_legendre(v), 7, DomainError),
    "ModeIndex.m": (lambda v: ModeIndex("even", v, 3), 2, InvalidMode),
    "ModeIndex.l": (lambda v: ModeIndex("even", 0, v), 3, InvalidMode),
    "enumerate_modes": (lambda v: enumerate_modes(v), 3, InvalidMode),
    "surface_quadrature": (lambda v: surface_quadrature(v), 3, InvalidMode),
    "gram_matrix": (lambda v: gram_matrix(v), 2, InvalidMode),
    "radial_profiles": (lambda v: radial_profiles(RadialKind.MATCHED, v, 3.0, 0.5), 3, InvalidMode),
    "bessel_zeros.l": (lambda v: bessel_zeros(v, 2), 3, InvalidMode),
    "bessel_zeros.count": (lambda v: bessel_zeros(2, v), 2, DomainError),
    "neumann_zeros.l": (lambda v: neumann_zeros(v, 2), 3, InvalidMode),
    "neumann_zeros.count": (lambda v: neumann_zeros(2, v), 2, DomainError),
    "magnetic_zeros.l": (lambda v: magnetic_zeros(v, 2), 3, InvalidMode),
    "magnetic_zeros.count": (lambda v: magnetic_zeros(2, v), 2, DomainError),
    "family1_resonances.l": (lambda v: family1_resonances(v, 0.5, 2), 3, InvalidMode),
    "family1_resonances.count": (lambda v: family1_resonances(2, 0.5, v), 2, DomainError),
    "exclusion_check": (lambda v: exclusion_check(30.0, 0.5, v), 3, InvalidMode),
    "zero_in_spectrum": (lambda v: zero_in_spectrum(30.0, 0.5, v), 3, InvalidMode),
    "lambda1_theta1_alt": (lambda v: lambda1_theta1_alt(v, 3.0), 3, InvalidMode),
    "residual_fourth_order": (lambda v: residual_fourth_order(v, 3.0, 0.5, E3), 2, InvalidMode),
    "multiplicity.n": (lambda v: multiplicity(v, 4), 3, InvalidMode),
    "multiplicity.j": (lambda v: multiplicity(3, v), 4, InvalidMode),
    "harmonic_polynomial_dimension.n": (lambda v: harmonic_polynomial_dimension(v, 4), 3, InvalidMode),
    "harmonic_polynomial_dimension.j": (lambda v: harmonic_polynomial_dimension(3, v), 4, InvalidMode),
    "ball_steklov_spectrum.n": (lambda v: ball_steklov_spectrum(v, 1.0, 20), 3, InvalidMode),
    "ball_steklov_spectrum.count": (lambda v: ball_steklov_spectrum(3, 1.0, v), 20, DomainError),
    "weyl_exponent_fit.n": (lambda v: weyl_exponent_fit(v, 1000), 3, InvalidMode),
    "weyl_exponent_fit.count": (lambda v: weyl_exponent_fit(3, v), 1000, DomainError),
    "run_suites": (lambda v: run_suites(["zero-spectrum"], l_max=v), 2, InvalidMode),
    # Selectors follow the same rule within their set; True used to pass as 1.
    "eigen_grid.family": (lambda v: eigen_grid(v, 1, 2, [3.0]), 2, InvalidMode),
    "steklov_mode.family": (lambda v: steklov_mode(v, N1, 1.0), 2, InvalidMode),
    "SteklovMode.family": (lambda v: dataclasses.replace(MODE, family=v), 2, InvalidMode),
    "vector_A.tau": (lambda v: vector_A(v, N1, SurfacePoint(0.7, 1.1)), 2, InvalidMode),
}


@pytest.mark.parametrize("name", CASES)
def test_degree_arguments_are_integers(name):
    call, good, error = CASES[name]
    # Same result, bit for bit and type for type, from a numpy integer.
    assert pickle.dumps(call(np.int64(good))) == pickle.dumps(call(good))
    for bad in (True, 2.0, 2.5, "3"):
        with pytest.raises(error, match=f"got {re.escape(repr(bad))}$"):
            call(bad)


def test_numpy_integers_are_stored_as_int():
    mode = ModeIndex("even", np.int64(0), np.int64(2))
    assert type(mode.l) is int and type(mode.m) is int
    assert mode == ModeIndex("even", 0, 2)
    assert steklov_mode(1, ModeIndex("even", np.int64(0), np.int64(1)), 1.0).n.l == 1
    assert type(bessel_zeros(np.int64(2), 1).l) is int


# name -> (call with k2, the typed error for a k2 that is not a real number)
K2_CASES = {
    "lambda1": (lambda v: lambda1(1, v, 0.5), InvalidMode),
    "lambda2": (lambda v: lambda2(1, v), InvalidMode),
    "lambda1_theta1_alt": (lambda v: lambda1_theta1_alt(1, v), InvalidMode),
    "radial_profiles": (lambda v: radial_profiles(RadialKind.MATCHED, 1, v, 0.5), InvalidMode),
    "steklov_mode": (lambda v: steklov_mode(1, N1, v), InvalidMode),
    "exclusion_check": (lambda v: exclusion_check(v, 1.0, 0), DomainError),
    "zero_in_spectrum": (lambda v: zero_in_spectrum(v, 1.0, 0), DomainError),
    "residual_fourth_order": (lambda v: residual_fourth_order(2, v, 0.5, E3), DomainError),
}


@pytest.mark.parametrize("name", K2_CASES)
def test_k2_that_is_not_a_real_number_raises_the_typed_error(name):
    # k2 is converted as theta is: a string float() refuses, None, a list
    # and a complex number all raise the site's typed error, quoting k2.
    call, error = K2_CASES[name]
    for bad in ("abc", None, [3.0], 3.0 + 0.0j):
        with pytest.raises(error, match=f"got {re.escape(repr(bad))}$"):
            call(bad)


# name -> (call with a radius or one k2s entry, the typed error)
POINT_CASES = {
    "RadialFunction": (E3, DomainError),
    "residual_system": (lambda v: residual_system(MODE.radial, v), DomainError),
    "residual_fourth_order": (lambda v: residual_fourth_order(2, 3.0, v, E3), DomainError),
    "eigen_grid": (lambda v: eigen_grid(1, 1, 2, [v]), InvalidMode),
}


@pytest.mark.parametrize("name", POINT_CASES)
def test_radius_or_k2s_entry_that_is_not_a_real_number_raises_the_typed_error(name):
    # As r <= 0 does for a radius; the message quotes the value (eigen_grid
    # quotes the whole k2s list).
    call, error = POINT_CASES[name]
    for bad in ("abc", None, 3.0 + 0.0j):
        with pytest.raises(error, match=re.escape(repr(bad))):
            call(bad)


def test_radius_that_is_not_finite_is_refused_by_name():
    # A float inf once passed RadialFunction's fast path and failed in the
    # Bessel tower with a message that named neither r nor its value.
    for call in (E3, lambda v: E3(np.array([0.5, v])), lambda v: residual_system(MODE.radial, v)):
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match=f"^r must be positive and finite, got {bad!r}$"):
                call(bad)


def _bad_value_cases():
    # (call with the value, the value): inputs that complex() or float()
    # refuse, a complex angle, and arrays or lists where one real is due.
    # The radial call takes arrays of radii, but only of real numbers.
    point = SurfacePoint(1.0, 1.0)
    calls = {
        "sph_bessel_j_all": lambda v: sph_bessel_j_all(2, v),
        "sph_bessel_j": lambda v: sph_bessel_j(2, v),
        "sph_bessel_j_deriv": lambda v: sph_bessel_j_deriv(2, v),
    }
    cases = [(name, call, bad) for name, call in calls.items() for bad in (None, "a", [1.0], np.array([1.0, 2.0]))]
    cases += [("SurfacePoint", lambda v: SurfacePoint(v, 0.5), bad) for bad in (None, "a", 1j)]
    cases += [("BallPoint", lambda v: BallPoint(v, point), [1.0])]
    cases += [("Vec3", lambda v: Vec3(v, 0, 0), bad) for bad in (None, "a", 1j)]
    cases += [("residual_fourth_order", lambda v: residual_fourth_order(2, 7.0, v, E3), bad) for bad in (np.array([0.5]), [0.5])]
    cases += [("RadialFunction", E3, bad) for bad in (np.array([0.5 + 1j]), np.array(["a"]))]
    return [pytest.param(call, bad, id=f"{name}-{bad!r}") for name, call, bad in cases]


@pytest.mark.parametrize("call,bad", _bad_value_cases())
def test_value_that_is_not_a_number_raises_domain_error_quoting_it(call, bad):
    with pytest.raises(DomainError, match=re.escape(repr(bad))):
        call(bad)
