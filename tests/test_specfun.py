"""Spherical Bessel functions, Legendre towers, Gauss-Legendre rules.

Reference values were produced with mpmath at 40 significant digits
(j_l(z) = sqrt(pi/2z) J_{l+1/2}(z), derivative by the standard
recurrence) and are frozen here so the suite needs no multiprecision
dependency at run time.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from steklov_ball import (
    DomainError,
    NotRepresentable,
    SteklovBallError,
    gauss_legendre,
    run_suites,
    sph_bessel_j,
    sph_bessel_j_all,
    sph_bessel_j_deriv,
)
from steklov_ball import specfun
from steklov_ball.specfun import assoc_legendre_tower

# (l, z, j_l(z), j_l'(z)) -- mpmath, 40 digits, rounded to 20
BESSEL_ORACLE = [
    (0, 2.0, 0.4546487134128408477, -0.43539777497999161735),
    (1, 1.0, 0.30116867893975678925, 0.23913362692838292815),
    (2, 0.5, 0.016371106607993412617, 0.064310390988106093159),
    (5, 3.7, 0.038613656933813531175, 0.040307425728165464975),
    (8, 11.0, 0.10723186765836730537, -0.037313264006782618018),
]


@pytest.mark.parametrize("l,z,jval,jder", BESSEL_ORACLE)
def test_bessel_spot_values(l, z, jval, jder):
    assert sph_bessel_j(l, z) == pytest.approx(jval, rel=1e-13, abs=1e-15)
    assert sph_bessel_j_deriv(l, z) == pytest.approx(jder, rel=1e-13, abs=1e-15)


def test_bessel_closed_forms():
    # j_0 = sin z / z and j_1 = sin z / z^2 - cos z / z exactly.
    for z in (0.3, 1.0, 2.5, 7.0, 19.0):
        assert sph_bessel_j(0, z) == pytest.approx(math.sin(z) / z, rel=1e-14)
        j1 = math.sin(z) / z**2 - math.cos(z) / z
        assert sph_bessel_j(1, z) == pytest.approx(j1, rel=1e-13, abs=1e-16)


def test_bessel_at_zero_argument():
    tab = sph_bessel_j_all(6, 0.0)
    assert tab[0] == pytest.approx(1.0)
    assert np.all(tab[1:] == 0.0)


def test_bessel_small_argument_leading_order():
    # j_l(z) ~ z^l / (2l+1)!! for z -> 0.
    z = 1e-4
    for l in range(1, 8):
        lead = z**l / math.prod(range(2 * l + 1, 0, -2))
        assert sph_bessel_j(l, z) == pytest.approx(lead, rel=1e-6)


def test_bessel_complex_argument():
    # mpmath: j_2(1+1j)
    val = sph_bessel_j(2, 1.0 + 1.0j)
    assert val.real == pytest.approx(0.019015560570510053104, rel=1e-12)
    assert val.imag == pytest.approx(0.1322757488618091143, rel=1e-12)


def test_bessel_imaginary_argument_parity():
    # j_l(iy) = i^l * (real), so i^{-l} j_l(iy) must be real and positive
    # for y > 0 (all series terms are positive).
    for l in range(0, 7):
        val = (-1j) ** l * sph_bessel_j(l, 2.3j)
        assert abs(val.imag) < 1e-15 * abs(val.real)
        assert val.real > 0.0


@pytest.mark.parametrize("l", [1, 3, 9, 24])
@pytest.mark.parametrize("z", [0.7, 4.0, 13.5, 40.0])
def test_bessel_recurrence_consistency(l, z):
    # j_{l-1} + j_{l+1} = (2l+1)/z * j_l ties every table entry to its
    # neighbors independently of how the table was generated.
    tab = sph_bessel_j_all(l + 1, z)
    scale = np.max(np.abs(tab)) or 1.0
    for j in range(1, l + 1):
        lhs = tab[j - 1] + tab[j + 1]
        rhs = (2 * j + 1) / z * tab[j]
        assert abs(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("l,z", [(0, 1.3), (2, 0.9), (4, 6.0), (11, 20.0)])
def test_bessel_ode_residual(l, z):
    # z^2 j'' + 2 z j' + (z^2 - l(l+1)) j = 0; second derivative from the
    # derivative recurrence applied twice.
    tab = sph_bessel_j_all(l + 2, z)
    j = tab[l]
    if l == 0:
        d1 = -tab[1]
    else:
        d1 = tab[l - 1] - (l + 1) / z * tab[l]
    dlm = (tab[l - 2] if l >= 2 else -tab[1] if l == 1 else -d1) if l >= 1 else -tab[1]
    if l == 0:
        # j_0'' = -j_1' = -(j_0 - 2 j_1 / z)
        d2 = -(tab[0] - 2.0 * tab[1] / z)
    else:
        d1m = dlm - l / z * tab[l - 1] if l >= 1 else 0.0
        d2 = d1m - (l + 1) / z * d1 + (l + 1) / z**2 * j
    res = z * z * d2 + 2 * z * d1 + (z * z - l * (l + 1)) * j
    assert abs(res) <= 1e-11 * max(1.0, abs(z * z * j))


def test_bessel_rejects_negative_order():
    with pytest.raises(DomainError):
        sph_bessel_j(-1, 1.0)


def test_legendre_tower_matches_closed_forms():
    x = 0.37
    vals, dtheta, over_sin = assoc_legendre_tower(1, 3, x)
    s = math.sqrt(1.0 - x * x)
    # Without the Condon-Shortley phase:
    # P_1^1 = s, P_2^1 = 3 x s, P_3^1 = (3/2)(5x^2 - 1) s
    assert vals[1] == pytest.approx(s, rel=1e-14)
    assert vals[2] == pytest.approx(3.0 * x * s, rel=1e-14)
    assert vals[3] == pytest.approx(1.5 * (5 * x * x - 1) * s, rel=1e-14)
    assert over_sin[2] == pytest.approx(vals[2] / s, rel=1e-14)
    # theta-derivative spot check by central difference in theta
    th, h = math.acos(x), 1e-6
    vp = assoc_legendre_tower(1, 3, math.cos(th + h))[0][3]
    vm = assoc_legendre_tower(1, 3, math.cos(th - h))[0][3]
    assert dtheta[3] == pytest.approx((vp - vm) / (2 * h), rel=1e-8)


def test_legendre_tower_array_matches_scalar_calls():
    # Every column of an array call equals the scalar call at that point
    # within 1 ulp, for any input shape.
    x = np.array([[-1.0, -0.73, -0.2], [0.0, 0.41, 1.0]])
    for m, l_max in ((0, 0), (0, 9), (1, 1), (2, 12), (7, 40), (30, 60)):
        tower = assoc_legendre_tower(m, l_max, x)
        for idx in np.ndindex(x.shape):
            scalar = assoc_legendre_tower(m, l_max, float(x[idx]))
            for got, want in zip(tower, scalar):
                assert got.shape == (l_max + 1, *x.shape)
                assert want.shape == (l_max + 1,)
                col = got[(slice(None), *idx)]
                assert np.all(np.abs(col - want) <= np.spacing(np.abs(want)))


def test_legendre_tower_array_validation():
    for bad in ([0.2, 1.0 + 1e-12], [-1.5, 0.3], [0.2, math.nan], [0.2, 0.3 + 0j]):
        with pytest.raises(DomainError):
            assoc_legendre_tower(1, 3, np.array(bad))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow raises, without a RuntimeWarning first
        with pytest.raises(OverflowError):
            assoc_legendre_tower(160, 160, np.array([0.0, 0.5, 1.0]))


# j_0..j_l far up the imaginary axis, where the Miller scale seed / ref
# would overflow and the tower divides by ref first -- mpmath, 40 digits.
FAR_IMAGINARY_ORACLE = [
    (0, 678.5j, [3.437368744679891998e291]),
    (0, 690j, [3.3366713078137605957e296]),
    (3, 700j, [7.244514676678603639e300, 7.2341653699976342052e300j,
               -7.2135111108071852067e300, -7.1826402906347257394e300j]),
]


@pytest.mark.parametrize("l,z,want", FAR_IMAGINARY_ORACLE)
def test_bessel_tower_far_up_the_imaginary_axis(l, z, want):
    # These used to raise NotRepresentable although every value fits.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sph_bessel_j_all(l, z)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14 * abs(w)


def test_bessel_tower_overflow_is_typed():
    # Beyond |Im z| = 700 the seeds sin z, cos z near the top of double
    # range; the tower refuses there instead of returning inf or NaN.
    assert issubclass(NotRepresentable, OverflowError)
    assert issubclass(NotRepresentable, SteklovBallError)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for l, z in ((0, 701j), (5, -720j)):
            with pytest.raises(NotRepresentable):
                sph_bessel_j_all(l, z)
        near = sph_bessel_j_all(3, 678.0j)
    assert np.all(np.isfinite(near))
    assert near[0].real == pytest.approx(math.sinh(678.0) / 678.0, rel=1e-13)


def test_assoc_legendre_endpoint_regular():
    # m >= 1 vanishes at the poles; the derivative stays finite.
    values, dtheta, _ = assoc_legendre_tower(2, 5, 1.0)
    assert values[5] == 0.0
    assert math.isfinite(dtheta[5])


def test_assoc_legendre_rejects_bad_order():
    # The order m must not exceed the top degree, which must be >= 0.
    with pytest.raises(DomainError):
        assoc_legendre_tower(3, 2, 0.5)
    with pytest.raises(DomainError):
        assoc_legendre_tower(0, -1, 0.5)


def test_gauss_legendre_polynomial_exactness():
    # An n-point rule integrates monomials up to degree 2n-1 exactly.
    rule = gauss_legendre(6)
    for p in range(0, 12):
        exact = 0.0 if p % 2 else 2.0 / (p + 1)
        got = float(np.sum(rule.weights * rule.nodes**p))
        assert got == pytest.approx(exact, abs=5e-15)


def test_gauss_legendre_weights_sum():
    for n in (2, 9, 33, 120):
        rule = gauss_legendre(n)
        assert float(np.sum(rule.weights)) == pytest.approx(2.0, rel=1e-14)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=1e-14)


def test_gauss_legendre_matches_numpy_large():
    nodes, weights = np.polynomial.legendre.leggauss(4096)
    rule = gauss_legendre(4096)
    assert np.max(np.abs(rule.nodes - nodes)) < 1e-13
    # endpoint weights are ~4e-7; hold them to 1e-12 absolute
    assert np.max(np.abs(rule.weights - weights)) < 1e-12


def test_quadrature_rule_length_mismatch():
    rule = gauss_legendre(8)
    with pytest.raises(DomainError):
        type(rule)(nodes=rule.nodes, weights=rule.weights[:-1])


def test_gauss_legendre_builds_each_order_once():
    rule = gauss_legendre(12)
    assert gauss_legendre(np.int64(12)) is rule
    for array in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            array[0] = 0.0
    fresh = specfun._gauss_legendre.__wrapped__(12)
    assert rule.nodes.tobytes() == fresh.nodes.tobytes()
    assert rule.weights.tobytes() == fresh.weights.tobytes()
    for bad in (True, 12.0, [12]):  # the cache sits behind the validation
        with pytest.raises(DomainError):
            gauss_legendre(bad)


def test_run_suites_builds_each_quadrature_order_once(monkeypatch):
    orders = []
    cached = specfun._gauss_legendre

    def recording(n):
        orders.append(n)
        return cached(n)

    monkeypatch.setattr(specfun, "_gauss_legendre", recording)
    cached.cache_clear()
    run_suites()
    assert len(orders) > len(set(orders))
    assert cached.cache_info().misses == len(set(orders))


def test_gauss_legendre_rejects_nonpositive():
    with pytest.raises(DomainError):
        gauss_legendre(0)


def _lanes(rng, l):
    # Seeded lanes: real (either side of the turning point l = |z|),
    # imaginary up to |Im z| = 700, complex, and inside |z| < 1e-2.
    disc = rng.uniform(0.0, 1e-2, 6) * np.exp(2j * math.pi * rng.uniform(size=6))
    return np.concatenate([
        rng.uniform(-250.0, 250.0, 10),
        l + rng.uniform(-3.0, 3.0, 4),
        1j * rng.uniform(-700.0, 700.0, 10),
        rng.uniform(-60.0, 60.0, 10) + 1j * rng.uniform(-60.0, 60.0, 10),
        disc, disc.real,
        [0.0, 1e-2, 700j, -700j, 678.5j, 350.0 - 699.0j],
    ])


@pytest.mark.parametrize("l", [0, 1, 2, 7, 30, 99, 150, 189, 200])
def test_array_tower_matches_the_scalar_tower_lane_by_lane(l):
    z = _lanes(np.random.default_rng(16 + l), l)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tower = specfun._j_all_lanes(l, z.reshape(2, -1))
    assert tower.shape == (l + 1, 2, z.size // 2) and tower.flags.c_contiguous
    for lane, v in zip(tower.reshape(l + 1, -1).T, z.tolist()):
        assert lane.tobytes() == sph_bessel_j_all(l, v).tobytes(), v


@pytest.mark.parametrize("l", [0, 1, 2, 7, 30, 99, 150, 189, 200])
def test_array_pair_matches_the_scalar_pair_lane_by_lane(l):
    z = _lanes(np.random.default_rng(22 + l), l)
    z = z[z != 0]
    j, dj = specfun._j_pair_lanes(l, z.reshape(-1, 1))
    assert j.shape == dj.shape == (z.size, 1)
    for got, v in zip(zip(j.ravel(), dj.ravel()), z.tolist()):
        assert np.array(got).tobytes() == np.array(specfun._j_pair(l, v)).tobytes(), v


@pytest.mark.parametrize("bad", [700.5j, -720j, 3.0 + 701j, complex(math.nan, 0.0), math.inf, complex(1.0, -math.inf)])
def test_array_tower_raises_the_scalar_error_for_a_bad_lane(bad):
    with pytest.raises(SteklovBallError) as scalar:
        sph_bessel_j_all(4, bad)
    with pytest.raises(type(scalar.value)):
        specfun._j_all_lanes(4, np.array([[1.5, bad], [2.0j, 0.3]]))
