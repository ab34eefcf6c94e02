"""Steklov eigenvalues, eigenfields, and their verification routines.

Frozen reference eigenvalues were computed with mpmath at 40 digits
from the closed forms (spherical Bessel quotients); everything else is
an internal-consistency property that needs no external numbers.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from steklov_ball import (
    BallPoint,
    DirichletResonance,
    DomainError,
    InvalidMode,
    ModeIndex,
    NotRepresentable,
    QuadratureTooCoarse,
    RadialKind,
    SurfacePoint,
    bessel_zeros,
    divergence_field,
    eigenfield,
    eigenfield_cartesian,
    lambda1,
    lambda1_theta1_alt,
    lambda2,
    magnetic_zeros,
    neumann_zeros,
    radial_profiles,
    residual_fourth_order,
    residual_system,
    scalar_Y,
    sph_bessel_j,
    steklov_mode,
    verify_steklov_bc,
    verify_weak_identity,
    zero_in_spectrum,
)
from steklov_ball import fd, kernel
from steklov_ball.kernel import eigen_grid
from steklov_ball.spectrum import _theta1_alt_rows

# (l, k2, lambda2) -- mpmath, 40 digits
LAMBDA2_ORACLE = [
    (1, 1.0, -1.794018912491949990699),
    (2, 30.0, 18.71291482515433474401),
    (4, -10.0, -5.852295595531837101773),
]

# (l, k2, theta, lambda1) -- mpmath, 40 digits
LAMBDA1_ORACLE = [
    (1, 1.0, 1.0, -1.379666625255365140487),
    (2, -3.0, 2.0, -4.323223041479370520483),
    (3, 30.0, 0.5, -9.398118602263752047551),
    (5, -20.0, 1.0, -7.35281980589864714067),
]

SURFACE_POINTS = [
    SurfacePoint(0.7, 1.1),
    SurfacePoint(1.9, 3.4),
    SurfacePoint(2.6, 5.7),
]


@pytest.mark.parametrize("l,k2,want", LAMBDA2_ORACLE)
def test_lambda2_oracle(l, k2, want):
    assert lambda2(l, k2) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("l,k2,theta,want", LAMBDA1_ORACLE)
def test_lambda1_oracle(l, k2, theta, want):
    assert lambda1(l, k2, theta) == pytest.approx(want, rel=1e-12)


def test_lambda2_closed_form_spot():
    # (x j_1(x))' = x j_0(x), so lambda2(1,1) = -cos(1)/j_1(1) exactly.
    want = -math.cos(1.0) / sph_bessel_j(1, 1.0).real
    assert lambda2(1, 1.0) == pytest.approx(want, rel=1e-13)


def test_lambda1_alt_form_agrees():
    for l in range(1, 11):
        for k2 in (-37.0, -2.2, 0.9, 14.3, 49.0):
            a = lambda1(l, k2, 1.0)
            b = lambda1_theta1_alt(l, k2)
            assert a == pytest.approx(b, rel=1e-11)


def test_eigenvalues_real_for_negative_k2():
    # The closed forms stay real on k^2 < 0; the reality gate must not
    # trip anywhere on a generic grid.
    for l in range(1, 11):
        for k2 in np.linspace(-100.0, -0.5, 40):
            assert isinstance(lambda1(l, float(k2), 1.3), float)
            assert isinstance(lambda2(l, float(k2)), float)


def test_lambda_grows_linearly_in_degree():
    # For fixed k^2 both branches diverge like -l.
    for fam, val in ((1, lambda l: lambda1(l, 1.0, 1.0)), (2, lambda l: lambda2(l, 1.0))):
        r40 = val(40) / (-40.0)
        assert 0.9 < r40 < 1.1


def test_lambda_validation():
    with pytest.raises(InvalidMode):
        lambda1(0, 1.0, 1.0)
    with pytest.raises(InvalidMode):
        lambda2(0, 1.0)
    with pytest.raises(InvalidMode):
        lambda1(1, 0.0, 1.0)
    with pytest.raises(DomainError):
        lambda1(1, 1.0, 0.0)


# Inputs on which the complex Bessel-product evaluation failed; values
# from mpmath, 50 digits.
def test_lambda1_small_k2_is_finite_not_resonant():
    # The limit as k^2 -> 0 is -l (2l+3) / (l + (l+1)/theta) = -5/3 here.
    assert lambda1(1, 1e-12, 1.0) == pytest.approx(-1.6666666666663968254, rel=1e-14)
    assert lambda1(1, 1e-300, 1.0) == pytest.approx(-5.0 / 3.0, rel=1e-15)


def test_lambda2_large_negative_k2():
    # |Im k| = 1000 overflowed the complex towers.
    assert lambda2(2, -1e6) == pytest.approx(-1000.0030029999909729, rel=1e-14)


@pytest.mark.parametrize(
    "l,want",
    [
        (157, -157.99684539467147794),
        (180, -180.99724515827116273),
        (199, -199.99750621898234379),
        (200, -200.99751859521845519),
    ],
)
def test_lambda2_high_degree(l, want):
    # j_l underflowed from l = 157 at k^2 = 1, and l = 200 needed j_201.
    assert lambda2(l, 1.0) == pytest.approx(want, rel=1e-14)
    assert math.isfinite(lambda1(l, 1.0, 0.5))


def test_exact_bessel_zero_on_the_recurrence_is_removable():
    # At this k^2 the continued fraction hits rho_4 = z j_4 / j_5 = 0.0
    # exactly, so rho_3 is infinite in IEEE arithmetic.
    z2 = 66.9543119251048
    assert kernel._ratio(4, z2) == 0.0
    assert lambda2(3, z2) == pytest.approx(-4.0000000000000006609, rel=1e-14)
    assert lambda1(3, z2, 0.5) == pytest.approx(47.697725954894709718, rel=1e-13)
    assert lambda1(3, 2.0 * z2, 2.0) == pytest.approx(82.55772792964937161, rel=1e-13)
    assert abs(lambda1(4, z2, 0.5)) <= 1e-12  # removable zero where j_4(k) = 0
    with pytest.raises(DirichletResonance):
        lambda1(3, z2, 1.0)  # theta = 1: a zero of j_{l+1}(k) is a pole
    with pytest.raises(DirichletResonance):
        lambda2(4, z2)


def test_eigen_grid_matches_scalar_bitwise():
    pole = bessel_zeros(3, 1).roots[0] ** 2  # family 2, l = 3
    mixed = np.concatenate([np.linspace(-120.0, 120.0, 97), [-5e5, -3.3e-9, 1e-300, 7e4, 2.5e5, pole]])
    suite = np.linspace(-50.0, 50.0, 101)  # the form-equivalence suite's grid
    suite = suite[suite != 0.0]
    outer = np.linspace(1e4, 1e6, 41)  # start depths differ most between lanes
    for family, theta, l_lo, l_hi, k2s in (
        (1, 1.0, 1, 10, suite),
        (1, 1.0, 162, 171, outer),
        (2, 1.0, 162, 171, outer),
        (1, 1.0, 1, 6, mixed),
        (1, 0.5, 3, 9, mixed),
        (1, 2.0, 1, 4, mixed),
        (1, 0.1, 162, 171, outer),  # the q fraction starts far deeper than the k one
        (1, 0.5, 200, 200, mixed),  # one degree
        (2, 1.0, 1, 3, np.array([])),  # no samples: shape (3, 0)
        (2, 1.0, 2, 7, mixed),
    ):
        values, ok = eigen_grid(family, l_lo, l_hi, k2s, theta)
        assert values.shape == ok.shape == (l_hi - l_lo + 1, k2s.size)
        for i, l in enumerate(range(l_lo, l_hi + 1)):
            for j, k2 in enumerate(k2s.tolist()):
                if k2 == 0.0:
                    assert not ok[i, j]
                    continue
                try:
                    want = lambda1(l, k2, theta) if family == 1 else lambda2(l, k2)
                except DirichletResonance:
                    assert not ok[i, j] and math.isnan(values[i, j])
                    continue
                assert ok[i, j] and values[i, j] == want, (family, theta, l, k2)
    assert not ok[1, -1]  # the family-2 pole


def test_eigen_grid_memory_is_its_results_plus_a_few_vectors():
    # One descent turns each degree into its row as it passes, so no table
    # of ratios or of temporaries is held beside the results.
    k2s = np.linspace(-100.0, 100.0, 20000)
    tracemalloc.start()
    try:
        values, ok = eigen_grid(1, 1, 200, k2s, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= values.nbytes + ok.nbytes + 32 * k2s.size * 8, peak


def test_family1_pole_at_a_zero_of_the_next_order_at_theta_1():
    # At theta = 1 a zero of j_{l+1}(k) is a pole, where both terms of the
    # kernel's denominator vanish together: at the zeros of j_2, l = 1
    # returned -1.2e16 as OK, while l = 3 raised for the same zero.
    for root in bessel_zeros(2, 2).roots:
        for l in (1, 3):
            with pytest.raises(DirichletResonance):
                lambda1(l, root * root, 1.0)
        values, ok = eigen_grid(1, 1, 3, [root * root], 1.0)
        assert ok[:, 0].tolist() == [False, True, False]
        assert np.isnan(values[[0, 2], 0]).all()


def test_eigen_grid_marks_zero_k2_and_validates():
    values, ok = eigen_grid(1, 1, 2, [-1.0, 0.0, 1.0])
    assert ok.tolist() == [[True, False, True], [True, False, True]]
    assert np.isnan(values[:, 1]).all()
    # One message per fault, naming what is wrong.
    with pytest.raises(InvalidMode, match=r"^family must be 1 or 2, got 3$"):
        eigen_grid(3, 1, 2, [1.0])
    with pytest.raises(InvalidMode, match=r"^degree range 5\.\.4 is empty$"):
        eigen_grid(1, 5, 4, [1.0])
    with pytest.raises(InvalidMode, match=r"^k2s must be 1-d, got 2-d$"):
        eigen_grid(2, 1, 2, [[1.0, 2.0]])
    with pytest.raises(InvalidMode, match=r"^k2s must be finite, got nan$"):
        eigen_grid(2, 1, 2, [1.0, float("nan")])
    with pytest.raises(InvalidMode, match=r"^k2s must be finite, got -inf$"):
        eigen_grid(1, 1, 2, [-math.inf, 1.0])
    with pytest.raises(InvalidMode, match=r"^degree l must be an integer in \[1, 200\], got 201$"):
        eigen_grid(2, 1, 201, [1.0])
    with pytest.raises(DomainError):
        eigen_grid(1, 1, 2, [1e9], theta=0.01)  # |k2/theta| above 1e10
    with pytest.raises(InvalidMode):
        lambda2(201, 1.0)
    with pytest.raises(DomainError):
        lambda2(1, -2e10)


def test_lambda2_dirichlet_resonance():
    for l in (1, 2, 5):
        for root in bessel_zeros(l, 2).roots:
            with pytest.raises(DirichletResonance):
                lambda2(l, root * root)


def test_lambda1_theta1_alt_products_out_of_range_raise():
    # The products j_l j_l' and j_{l+1} j_{l-1} would underflow at high
    # degree and small k, and overflow from k^2 ~ -1.3e5; the quotients
    # of neighbouring orders stay in range, up to the tower's own limit.
    for l, k2 in (
        (79, 0.3), (105, -7.0), (105, 0.3), (105, 5.0), (150, -1.3e5), (196, -2e5),
        (20, -4e5), (1, -1.2e5), (1, -1.3e5), (1, -2e5), (1, -4.9e5),
    ):
        assert lambda1_theta1_alt(l, k2) == pytest.approx(lambda1(l, k2), rel=1e-14), (l, k2)
    # A tower entry that underflows to 0 or to a subnormal, or |Im k| > 700.
    for l, k2 in ((199, 1e-6), (199, 14.0), (150, 1.0), (3, -4.95e5), (1, -5e5)):
        with pytest.raises(DomainError, match="not representable"):
            lambda1_theta1_alt(l, k2)


def test_lambda1_theta1_alt_degree_bound():
    # The product form needs j_{l+1}, so its degrees stop at 199.
    for l in (0, 200, 201):
        with pytest.raises(InvalidMode, match=r"\[1, 199\], got " + str(l)):
            lambda1_theta1_alt(l, 1.0)
    assert lambda1_theta1_alt(199, 4e4) == pytest.approx(lambda1(199, 4e4), rel=1e-10)


def test_lambda1_theta1_alt_resonance():
    z = bessel_zeros(2, 1).roots[0]  # j_2 zero = zero of j_{l+1} for l=1
    with pytest.raises(DirichletResonance):
        lambda1_theta1_alt(1, z * z)


def test_theta1_alt_rows_equal_the_scalar_product_form():
    # The form-equivalence grid plus points within 1e-13 of zeros of j_2
    # (resonant at l = 1 as j_{l+1} and at l = 3 as j_{l-1}) and of j_6:
    # the rows agree with lambda1_theta1_alt cell by cell and mark exactly
    # the cells where it raises DirichletResonance.  (At a zero itself
    # the tower may return j = 0, and both raise DomainError.)
    planted = [(z * (1.0 + 1e-13)) ** 2 for l in (2, 6) for z in bessel_zeros(l, 2).roots]
    k2s = np.concatenate([np.linspace(-50.0, 50.0, 101), planted])
    k2s = k2s[k2s != 0.0]
    values, resonant = _theta1_alt_rows(1, 10, k2s)
    assert values.shape == resonant.shape == (10, k2s.size)
    skipped = 0
    for l, row, row_resonant in zip(range(1, 11), values, resonant):
        for k2, value, is_resonant in zip(k2s.tolist(), row, row_resonant):
            try:
                want = lambda1_theta1_alt(l, k2)
            except DirichletResonance:
                assert is_resonant, (l, k2)
                skipped += 1
                continue
            assert not is_resonant, (l, k2)
            # The rows read a tower of order 11, a one-cell call one of
            # order l + 1, which may take the other branch: the cells agree
            # to rounding, amplified by the condition number near a pole,
            # and absolutely near a zero of j_l (planted for j_6 at l = 6).
            assert value == pytest.approx(want, rel=1e-12, abs=1e-12), (l, k2)
    assert skipped >= 4


MODE_GRID = [
    (1, "even", 0, 1, 1.0, 1.0),
    (1, "odd", 1, 2, -3.0, 2.0),
    (1, "even", 2, 3, 30.0, 0.5),
    (2, "even", 0, 1, 1.0, 1.0),
    (2, "odd", 2, 4, -10.0, 1.0),
    (2, "even", 1, 5, 12.0, 0.7),
]


@pytest.mark.parametrize("family,parity,m,l,k2,theta", MODE_GRID)
def test_mode_residuals(family, parity, m, l, k2, theta):
    mode = steklov_mode(family, ModeIndex(parity, m, l), k2, theta)
    assert mode.eigenvalue == (lambda1(l, k2, theta) if family == 1 else lambda2(l, k2))
    for p in SURFACE_POINTS:
        assert verify_steklov_bc(mode, p) <= 1e-12
    for r in (0.2, 0.55, 0.9, 1.0):
        r2, r3 = residual_system(mode.radial, r)
        assert r2 <= 1e-12 and r3 <= 1e-12


@pytest.mark.parametrize("family,parity,m,l,k2,theta", MODE_GRID)
def test_mode_weak_identity(family, parity, m, l, k2, theta):
    mode = steklov_mode(family, ModeIndex(parity, m, l), k2, theta)
    assert verify_weak_identity(mode) <= 1e-10


def test_perturbed_eigenvalue_is_detected():
    # Both families run the same boundary and weak-form code; each must
    # catch a wrong eigenvalue, and the weak identity a wrong k^2, which
    # the boundary and radial residuals of the (unchanged) profiles miss.
    for family, n in ((1, ModeIndex("even", 0, 2)), (2, ModeIndex("odd", 1, 3))):
        mode = steklov_mode(family, n, 4.0, 1.0)
        bad = dataclasses.replace(mode, eigenvalue=mode.eigenvalue * (1.0 + 1e-3))
        worst = max(verify_steklov_bc(bad, p) for p in SURFACE_POINTS)
        assert worst > 1e-5, family
        assert verify_weak_identity(bad) > 1e-5, family
        assert verify_weak_identity(dataclasses.replace(mode, k2=mode.k2 * (1.0 + 1e-3))) > 1e-5, family


def test_modal_residuals_keep_their_bits():
    # One modal path for both families: each residual equals, float for
    # float, the one the family-specific code computed.
    for args, system, boundary in (
        ((1, ModeIndex("odd", 1, 2), -3.0, 2.0), (2.5849731409276642e-15, 5.8436457075456125e-15), 6.231599417456855e-17),
        ((2, ModeIndex("even", 1, 5), 12.0, 0.7), (7.072280803913728e-17, 0.0), 4.680186364283962e-17),
    ):
        mode = steklov_mode(*args)
        assert residual_system(mode.radial, 0.7) == system
        assert verify_steklov_bc(mode, SURFACE_POINTS[0]) == boundary


def test_fourth_order_factorization():
    # At theta = 1 the radial part of family 1 satisfies the fourth
    # order equation obtained by composing the Bessel operator with
    # itself (shifted); its residual must vanish on the matched profile.
    for l, k2 in [(1, 1.0), (2, 5.0), (3, -7.0)]:
        pair = radial_profiles(RadialKind.MATCHED, l, k2, 1.0)
        for r in (0.4, 0.9):
            assert residual_fourth_order(l, k2, r, pair.e3) <= 1e-10


@pytest.mark.parametrize("l,k2,theta", [(5, 30.0, 2.0), (1, -3.0, 0.7)])
def test_radial_derivatives_match_mpmath_diff_of_the_closed_form(l, k2, theta):
    # f', f'' and f'''' of the MATCHED e3 from the radial algebra against
    # mpmath's numerical derivatives of its closed form
    # e3 = a l(l+1) j_l(k r)/r + q j_l'(q r), a = -j_l'(q) q / (j_l(k) l(l+1)),
    # built from mpmath's besselj alone.  At r = 0.2 the terms of the fourth
    # derivative (powers down to r^-5) cancel to 5e-5 of the largest, which
    # costs about four of the sixteen digits.
    e3 = radial_profiles(RadialKind.MATCHED, l, k2, theta).e3
    d1 = e3.deriv()
    d2 = d1.deriv()
    derivatives = {1: d1, 2: d2, 4: d2.deriv().deriv()}
    with mpmath.workdps(40):
        big_l = l * (l + 1)
        k = mpmath.sqrt(mpmath.mpc(k2))
        q = k / mpmath.sqrt(theta)
        j = lambda n, z: mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.besselj(n + mpmath.mpf(1) / 2, z)
        jp = lambda z: j(l - 1, z) - (l + 1) / z * j(l, z)
        a = -jp(q) * q / (j(l, k) * big_l)
        closed = lambda r: a * big_l * j(l, k * r) / r + q * jp(q * r)
        for r in (0.2, 0.6, 1.0):
            for order, f in derivatives.items():
                want = complex(mpmath.diff(closed, mpmath.mpf(r), order))
                assert abs(f(r) - want) <= 3e-11 * abs(want), (r, order)


def test_divergence_dichotomy_pointwise():
    rng = np.random.default_rng(20240817)
    pts = [
        BallPoint(float(r), SurfacePoint(float(t), float(ph)))
        for r, t, ph in zip(
            rng.uniform(0.05, 1.0, 25),
            rng.uniform(0.01, math.pi - 0.01, 25),
            rng.uniform(0.0, 2 * math.pi, 25),
        )
    ]
    n = ModeIndex("even", 1, 2)
    m2 = steklov_mode(2, n, 7.0, 1.0)
    m1 = steklov_mode(1, n, 7.0, 2.0)
    q = math.sqrt(7.0 / 2.0)
    for p in pts:
        assert abs(divergence_field(m2, p)) <= 1e-12
        want = -(7.0 / 2.0) * sph_bessel_j(2, q * p.r).real * scalar_Y(n, p.direction)
        got = divergence_field(m1, p)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_divergence_finite_difference_order():
    # Cartesian FD divergence of the family-1 eigenfield converges to
    # the modal value at second order.
    mode = steklov_mode(1, ModeIndex("even", 0, 1), 5.0, 1.0)
    field = eigenfield_cartesian(mode)
    p = BallPoint(0.6, SurfacePoint(1.1, 0.8))
    xyz = p.r * np.array(
        [
            math.sin(p.direction.theta) * math.cos(p.direction.phi),
            math.sin(p.direction.theta) * math.sin(p.direction.phi),
            math.cos(p.direction.theta),
        ]
    )
    want = divergence_field(mode, p)
    e1 = abs(fd.divergence(field, xyz, 2e-3) - want)
    e2 = abs(fd.divergence(field, xyz, 1e-3) - want)
    assert math.log2(e1 / max(e2, 1e-300)) > 1.9


def test_eigenfield_frame_structure():
    p = BallPoint(1.0, SurfacePoint(0.9, 2.0))
    # family 2 is purely tangential (toroidal)
    m2 = steklov_mode(2, ModeIndex("even", 1, 3), 2.0, 1.0)
    v2 = eigenfield(m2, p)
    assert v2.er == 0.0
    # family 1 has no radial trace on the boundary (E . nu = 0 there)
    m1 = steklov_mode(1, ModeIndex("even", 1, 3), 2.0, 1.0)
    v1 = eigenfield(m1, p)
    assert abs(v1.er) <= 1e-12 * max(1.0, v1.norm())
    inner = eigenfield(m1, BallPoint(0.5, p.direction))
    assert abs(inner.er) > 1e-6  # but it is not radial-free inside


def test_eigenfields_are_real_for_negative_k2():
    mode = steklov_mode(1, ModeIndex("odd", 1, 3), -25.0, 0.5)
    for p in SURFACE_POINTS:
        v = eigenfield(mode, BallPoint(0.7, p))
        for c in (v.er, v.etheta, v.ephi):
            assert isinstance(c, float)


def test_eigenfield_checks_refuse_an_underflowed_mode():
    # Family 2 at l = 200, k^2 = 0.3: e1 is exactly 0 at r = 1 and at
    # r = 0.5, so each check would compare 0 with 0 and pass vacuously.
    # Family 1 at l = 140, k^2 = 1: every weak-form term is 0.  At l = 150
    # j_l(1) itself is subnormal, so the mode is refused when it is built.
    mode = steklov_mode(2, ModeIndex("even", 0, 200), 0.3)
    checks = (
        lambda: verify_steklov_bc(mode, SURFACE_POINTS[0]),
        lambda: verify_weak_identity(mode),
        lambda: residual_system(mode.radial, 1.0),
        lambda: residual_system(mode.radial, 0.5),
        lambda: verify_weak_identity(steklov_mode(1, ModeIndex("even", 0, 140), 1.0)),
    )
    for check in checks:
        with pytest.raises(NotRepresentable, match="underflows to 0"):
            check()
    with pytest.raises(NotRepresentable, match="not representable"):
        steklov_mode(1, ModeIndex("even", 0, 150), 1.0)


def test_eigenfield_checks_refuse_a_subnormal_mode():
    # Family 2 at l = 155, k^2 = 1: e1(1) = j_155(1) is subnormal, so the
    # boundary residual read 4.5e-3 and the radial system (0.0, 0.0), with
    # no digits left to compare.  The same at l = 150, r = 0.9.
    checks = (
        lambda: verify_steklov_bc(steklov_mode(2, ModeIndex("even", 0, 155), 1.0), SURFACE_POINTS[0]),
        lambda: residual_system(steklov_mode(2, ModeIndex("even", 0, 155), 1.0).radial, 1.0),
        lambda: residual_system(steklov_mode(2, ModeIndex("even", 0, 150), 1.0).radial, 0.9),
    )
    for check in checks:
        with pytest.raises(NotRepresentable, match="is subnormal"):
            check()


def test_family1_modes_reach_degree_200():
    # The matched profiles read j_l and j_l' of degree l only, so the top
    # degree builds; where j_l(k) underflows (l = 199, k^2 = 1) the mode
    # is refused without a 0/0 warning instead of holding NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for l in (199, 200):
            mode = steklov_mode(1, ModeIndex("even", 0, l), 1e4)
            assert mode.eigenvalue == lambda1(l, 1e4)
            assert max(residual_system(mode.radial, 0.7)) < 1e-13
            assert verify_steklov_bc(mode, SURFACE_POINTS[0]) < 1e-13
            with pytest.raises(NotRepresentable, match="not representable"):
                steklov_mode(1, ModeIndex("even", 0, l), 1.0)


def test_eigenfield_checks_refuse_an_overflowed_mode():
    # Family 1 at l = 1, k^2 = -4.9e5: e2(1) = -2.5e306, so the boundary
    # sides and the weak-form squares leave double range.  Both checks
    # raise instead of returning NaN, and numpy prints no warning.
    mode = steklov_mode(1, ModeIndex("even", 0, 1), -4.9e5, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (lambda: verify_steklov_bc(mode, SURFACE_POINTS[0]), lambda: verify_weak_identity(mode)):
            with pytest.raises(NotRepresentable, match="leaves double range"):
                check()


def test_weak_identity_quadrature_guards():
    # At l = 10 refinement moves the defect by 5.9e-2 (k^2 = 1e8) and
    # 3.7e-3 (k^2 = 1e4) of the largest term: far above the suite's 1e-8,
    # but below the 10 % the guard once used, so they returned 2.9e-2
    # and 0.229.
    for family, l, k2 in ((1, 1, 900.0), (1, 10, 1e8), (2, 10, 1e4)):
        with pytest.raises(QuadratureTooCoarse):
            verify_weak_identity(steklov_mode(family, ModeIndex("even", 0, l), k2, 1.0))


def test_zero_in_spectrum_witnesses():
    # Neumann witness: lambda1(l, theta z^2, theta) = 0 at zeros z of j_l'.
    z = neumann_zeros(1, 1).roots[0]
    theta = 2.0
    hit, witnesses = zero_in_spectrum(theta * z * z, theta, 3)
    assert hit
    kinds = {(w.kind, w.l) for w in witnesses}
    assert ("neumann", 1) in kinds
    for w in witnesses:
        if w.kind == "neumann":
            assert abs(lambda1(w.l, theta * w.root**2, theta)) <= 1e-9

    # magnetic witness: lambda2(l, x^2) = 0 at zeros of j_l + x j_l'
    x = magnetic_zeros(2, 1).roots[0]
    hit, witnesses = zero_in_spectrum(x * x, 1.0, 4)
    assert hit
    assert any(w.kind == "magnetic" and w.l == 2 for w in witnesses)
    assert abs(lambda2(2, x * x)) <= 1e-9


def test_zero_in_spectrum_generic_point():
    hit, witnesses = zero_in_spectrum(1.234567, 1.0, 6)
    assert not hit and witnesses == []
    hit, _ = zero_in_spectrum(-3.0, 1.0, 6)
    assert not hit


def test_steklov_mode_validation():
    n = ModeIndex("even", 0, 1)
    with pytest.raises(InvalidMode):
        steklov_mode(3, n, 1.0, 1.0)
    with pytest.raises(InvalidMode):
        steklov_mode(1, n, 0.0, 1.0)
    with pytest.raises(DomainError):
        steklov_mode(1, n, 1.0, -1.0)
