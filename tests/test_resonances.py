"""Root finding for the four resonance families.

High-precision reference roots were computed with mpmath at 40 digits
by Newton refinement of the same defining functions.
"""

from __future__ import annotations

import math
import sys

import mpmath
import numpy as np
import pytest

from steklov_ball import (
    DomainError,
    InvalidMode,
    RootList,
    ScanExhausted,
    bessel_zeros,
    exclusion_check,
    family1_resonances,
    lambda1,
    magnetic_zeros,
    neumann_zeros,
    sph_bessel_j,
    sph_bessel_j_deriv,
    zero_in_spectrum,
)
from steklov_ball.errors import _validate_eig_args
from steklov_ball.resonances import _scan

# first roots, mpmath 40 digits
J1_FIRST = 4.493409457909064175307881
J2_FIRST = 5.763459196894549791406467
J5_FIRST = 9.355812111042746171436232
N1_FIRST = 2.08157597781810061053765
N3_FIRST = 4.51409964703228167718384
M1_FIRST = 2.743707269992269382561122
M2_FIRST = 3.870238580222165012015372

FAMILY1_L2_HALF = (3.948618470213797824851, 5.22730588400331605371, 7.224061625255971809704)
FAMILY1_L2_TWO = (5.241455422057028507848, 7.516229994436157027216, 10.10940157028559443429)


def test_bessel_zeros_l0_exact():
    roots = bessel_zeros(0, 3).roots
    for i, r in enumerate(roots, start=1):
        assert r == pytest.approx(i * math.pi, rel=1e-14)


@pytest.mark.parametrize(
    "l,want", [(1, J1_FIRST), (2, J2_FIRST), (5, J5_FIRST)]
)
def test_bessel_zeros_oracle(l, want):
    assert bessel_zeros(l, 1).roots[0] == pytest.approx(want, rel=1e-13)


def test_neumann_and_magnetic_oracle():
    assert neumann_zeros(1, 1).roots[0] == pytest.approx(N1_FIRST, rel=1e-13)
    assert neumann_zeros(3, 1).roots[0] == pytest.approx(N3_FIRST, rel=1e-13)
    assert magnetic_zeros(1, 1).roots[0] == pytest.approx(M1_FIRST, rel=1e-13)
    assert magnetic_zeros(2, 1).roots[0] == pytest.approx(M2_FIRST, rel=1e-13)


def test_family1_theta1_is_neighbor_bessel_zeros():
    # At theta = 1 the denominator factors as k^2 j_{l+1} j_{l-1}, so
    # its roots are exactly the union of the neighbor zeros, including
    # the close pair (9.095, 3 pi) that a coarse scan would merge.
    roots = family1_resonances(1, 1.0, 5).roots
    want = sorted(
        [math.pi, 2 * math.pi, 3 * math.pi]
        + [bessel_zeros(2, 2).roots[0], bessel_zeros(2, 2).roots[1]]
    )[:5]
    assert len(roots) == 5
    for got, expect in zip(roots, want):
        assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize(
    "theta,want", [(0.5, FAMILY1_L2_HALF), (2.0, FAMILY1_L2_TWO)]
)
def test_family1_resonances_oracle(theta, want):
    roots = family1_resonances(2, theta, 3).roots
    for got, expect in zip(roots, want):
        assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("l", range(1, 11))
def test_bessel_zero_interlacing(l):
    a = bessel_zeros(l, 6).roots
    b = bessel_zeros(l + 1, 5).roots
    for i in range(5):
        assert a[i] < b[i] < a[i + 1]


@pytest.mark.parametrize("l", [1, 2, 4, 7])
def test_neumann_zeros_interlace_bessel(l):
    # j_l' vanishes between consecutive zeros of j_l (Rolle), and once
    # before the first positive zero.
    jz = bessel_zeros(l, 5).roots
    nz = neumann_zeros(l, 5).roots
    assert nz[0] < jz[0]
    for i in range(4):
        assert jz[i] < nz[i + 1] < jz[i + 1]


@pytest.mark.parametrize("l", [1, 3, 6])
def test_magnetic_zeros_interlace_bessel(l):
    # zeros of (x j_l)' interlace with zeros of x j_l
    jz = bessel_zeros(l, 4).roots
    mz = magnetic_zeros(l, 4).roots
    assert mz[0] < jz[0]
    for i in range(3):
        assert jz[i] < mz[i + 1] < jz[i + 1]


@pytest.mark.parametrize(
    "maker,l",
    [
        (lambda l: bessel_zeros(l, 4), 3),
        (lambda l: neumann_zeros(l, 4), 2),
        (lambda l: magnetic_zeros(l, 4), 2),
    ],
)
def test_root_residual_local_scale(maker, l):
    # each root's function value is negligible against the values a
    # third of a scan cell away
    rl = maker(l)
    fns = {
        "bessel": lambda x: sph_bessel_j(l, x).real,
        "neumann": lambda x: sph_bessel_j_deriv(l, x).real,
        "magnetic": lambda x: sph_bessel_j(l, x).real + x * sph_bessel_j_deriv(l, x).real,
    }
    f = fns[rl.tag]
    for r in rl.roots:
        local = max(abs(f(r - 1e-3)), abs(f(r + 1e-3)))
        assert abs(f(r)) <= 1e-12 * max(1.0, local)


def test_scan_step_halving_stable():
    # the documented scan step is conservative: halving it changes
    # nothing but roundoff
    f = lambda x: sph_bessel_j(3, x).real
    base, _ = _scan(f, 3.0, 5 * math.pi + 20.0, count=5)
    fine, _ = _scan(f, 3.0, 5 * math.pi + 20.0, count=5, step=math.pi / 16.0)
    assert len(base) == len(fine) == 5
    for a, b in zip(base, fine):
        assert a == pytest.approx(b, abs=1e-12)


def test_family1_roots_avoid_plain_bessel_zeros():
    # the deflation filter: D has no roots at zeros of j_l itself, and
    # none may leak in from noise near those points
    for theta in (0.5, 1.0, 2.0):
        for l in (1, 2, 3):
            roots = family1_resonances(l, theta, 6).roots
            jz = bessel_zeros(l, 8).roots
            for r in roots:
                assert min(abs(r - z) for z in jz) > 1e-6


def test_root_list_metadata():
    rl = family1_resonances(2, 0.5, 3)
    assert rl.tag == "family1"
    assert rl.l == 2 and rl.theta == 0.5
    assert len(rl.residuals) == len(rl.roots) == 3
    assert all(res >= 0.0 for res in rl.residuals)
    rb = bessel_zeros(2, 2)
    assert rb.theta is None


def test_root_list_validation():
    with pytest.raises(DomainError):
        RootList(tag="bessel", l=1, theta=None, roots=(2.0, 1.0), residuals=(0.0, 0.0))
    with pytest.raises(DomainError):
        RootList(tag="bessel", l=1, theta=None, roots=(1.0, 1.0 + 1e-9), residuals=(0.0, 0.0))
    with pytest.raises(DomainError):
        RootList(tag="bessel", l=1, theta=None, roots=(1.0,), residuals=(0.0, 0.0))


def test_count_and_degree_validation():
    with pytest.raises(DomainError):
        bessel_zeros(1, 0)
    with pytest.raises(DomainError):
        bessel_zeros(1, 101)
    with pytest.raises(InvalidMode):
        neumann_zeros(0, 1)
    with pytest.raises(InvalidMode):
        magnetic_zeros(0, 1)
    with pytest.raises(InvalidMode):
        family1_resonances(0, 1.0, 1)
    with pytest.raises(DomainError):
        family1_resonances(1, -1.0, 1)
    with pytest.raises(InvalidMode):
        bessel_zeros(-1, 1)
    assert len(bessel_zeros(200, 1).roots) == 1
    for maker in (bessel_zeros, neumann_zeros, magnetic_zeros):
        with pytest.raises(InvalidMode, match="201"):
            maker(201, 1)
    with pytest.raises(InvalidMode, match="201"):
        family1_resonances(201, 1.0, 1)


def test_scan_exhausted_when_window_holds_too_few_roots():
    # (3, 10] holds only the first two zeros of j_3
    with pytest.raises(ScanExhausted):
        _scan(lambda x: sph_bessel_j(3, x).real, 3.0, 10.0, count=3)


@pytest.mark.parametrize("l", [15, 150, 200])
def test_bessel_zeros_match_mpmath_at_high_degree(l):
    # The k-th zero of j_l is near (k + l/2) pi, far above a window
    # sized by the count alone; below l + 1/2 the scan would meet
    # j_l underflowing to 0.0.
    roots = bessel_zeros(l, 4).roots
    assert len(roots) == 4 and roots[0] > l + 0.5
    for k, root in enumerate(roots, start=1):
        assert root == pytest.approx(float(mpmath.besseljzero(l + 0.5, k)), rel=1e-13)


def test_known_window_and_step_defects_are_fixed():
    # inputs that raised ScanExhausted or answered clear on a resonance
    assert len(bessel_zeros(15, 10).roots) == 10
    assert len(neumann_zeros(15, 50).roots) == 50
    assert len(magnetic_zeros(15, 26).roots) == 26
    # at theta = 1 the family-1 roots are the zeros of j_19 and j_21
    assert family1_resonances(20, 1.0, 1).roots[0] == pytest.approx(
        bessel_zeros(19, 1).roots[0], rel=1e-12
    )
    # k^2 on the square of the second zero of j_5 + x j_5'
    hit, witnesses = zero_in_spectrum(125.19338030968427, 0.263108, 30)
    assert hit
    assert [(w.kind, w.l) for w in witnesses] == [("magnetic", 5)]
    assert witnesses[0].root == pytest.approx(magnetic_zeros(5, 2).roots[1], rel=1e-14)
    # k^2 on the l = 1 family-1 resonance square; the scan step must
    # not depend on l_max
    k2, theta = 154.5374829241101, 0.447459
    clear, nearest = exclusion_check(k2, theta, 5)
    assert not clear
    square = min((r * r for r in family1_resonances(1, theta, 20).roots), key=lambda s: abs(s - k2))
    assert nearest == pytest.approx(square, rel=1e-12)


def _family1_denominator(l: int, theta: float, k: float):
    # D(k) of `family1_resonances` at 60 digits, j_l from mpmath's besselj
    # and j_l' = j_{l-1} - (l+1)/z j_l.
    with mpmath.workdps(60):
        k = mpmath.mpf(k)
        sq = mpmath.sqrt(mpmath.mpf(theta))

        def pair(z):
            j = lambda n: mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.besselj(n + mpmath.mpf(1) / 2, z)
            jl = j(l)
            return jl, j(l - 1) - (l + 1) / z * jl

        (jk, jkp), (jq, jqp) = pair(k), pair(k / sq)
        return jq * jk * l * (l + 1) - jqp * jkp * k**2 / sq - jqp * jk * k / sq


@pytest.mark.parametrize("theta,want", [
    (3e-3, (1.005036614217729,)),
    (1e-3, (0.5802979846299319, 0.7126523270705051, 0.8318776165229468)),
])
def test_family1_small_theta_roots_are_the_first_sign_changes(theta, want):
    # Below k = l, j_l(k) and k j_l'(k) are both tiny, so an absolute
    # floor in the j_l-zero filter dropped these real poles.  Each root is
    # a sign change of D across k(1 +- 1e-9), and a fine grid from the
    # scan's lower bound (l - 1) sqrt(theta) finds no other one before it,
    # so the roots keep their index.
    l = 12
    roots = family1_resonances(l, theta, len(want)).roots
    assert roots == pytest.approx(want, rel=1e-12)
    lo = (l - 1) * math.sqrt(theta)
    top = roots[-1] * (1 + 1e-9)
    brackets = [root * (1 + s * 1e-9) for root in roots for s in (-1, 1)]
    points = sorted([lo + (top - lo) * i / 200 for i in range(201)] + brackets)
    signs = [_family1_denominator(l, theta, k) > 0 for k in points]
    changes = [(a, b) for a, b, sa, sb in zip(points, points[1:], signs, signs[1:]) if sa != sb]
    assert changes == list(zip(brackets[::2], brackets[1::2]))
    clear, nearest = exclusion_check(roots[0] ** 2, theta, l)
    assert not clear and nearest == pytest.approx(roots[0] ** 2, rel=1e-12)


def test_family1_keeps_no_root_where_j_l_is_subnormal():
    # At l = 200, theta = 1e-4, j_200(k) is subnormal below k = 4.38, and
    # the float terms of D there are noise with sign changes of their own
    # (one at k = 3.706 where D < 0 on both sides).  The filter drops them;
    # every root kept is a sign change of D at 60 digits.  The poles below
    # 4.38, such as k = 2.1255574, are still missed.
    l, theta = 200, 1e-4
    for root in family1_resonances(l, theta, 3).roots:
        assert abs(sph_bessel_j(l, root)) >= sys.float_info.min
        low, high = (_family1_denominator(l, theta, root * (1 + s * 1e-9)) for s in (-1, 1))
        assert (low > 0) != (high > 0), root


def test_exclusion_check_clear_point():
    clear, nearest = exclusion_check(1.0, 1.0, 15)
    assert clear
    assert nearest == pytest.approx(math.pi**2, rel=1e-12)


def test_exclusion_check_detects_collision():
    z = bessel_zeros(1, 1).roots[0]
    clear, nearest = exclusion_check(z * z, 1.0, 5)
    assert not clear
    assert nearest == pytest.approx(z * z, rel=1e-12)


def test_exclusion_check_edge_cases():
    clear, nearest = exclusion_check(5.0, 1.0, 0)
    assert clear and math.isinf(nearest)
    clear, nearest = exclusion_check(-4.0, 1.0, 10)
    assert clear
    with pytest.raises(InvalidMode):
        exclusion_check(0.0, 1.0, 3)
    with pytest.raises(DomainError):
        exclusion_check(1.0, 0.0, 3)


@pytest.mark.parametrize("check", [exclusion_check, zero_in_spectrum])
@pytest.mark.parametrize(
    "k2,theta,l_max,error",
    [
        (math.nan, 1.0, 3, DomainError),
        (math.inf, 1.0, 3, DomainError),
        (-math.inf, 1.0, 3, DomainError),
        (1.0 + 0.5j, 1.0, 3, DomainError),
        (1e11, 1.0, 3, DomainError),
        (1e40, 1.0, 3, DomainError),
        (-1e10, 0.5, 3, DomainError),
        (1.0, math.inf, 3, DomainError),
        (1.0, math.nan, 3, DomainError),
        (1.0, 1.0, 2.5, InvalidMode),
        (1.0, 1.0, -1, InvalidMode),
        (1.0, 1.0, 201, InvalidMode),
        (1.0, 1.0, True, InvalidMode),
    ],
)
def test_check_inputs_are_validated(check, k2, theta, l_max, error):
    with pytest.raises(error):
        check(k2, theta, l_max)


def test_one_k2_bound_for_eigenvalues_and_root_queries():
    # lambda1 answered this (k^2, theta) while the root queries refused it:
    # the bound had two formulas, max(|k2|, |k2|/theta) > 1e10 and
    # |k2| <= 1e10 min(1, theta), which round apart.  At l_max = 0 the
    # queries return at once.
    k2, theta = 125383578.2219086, 0.012538357822190859
    assert math.isfinite(lambda1(1, k2, theta))
    assert exclusion_check(k2, theta, 0) == (True, math.inf)
    assert zero_in_spectrum(k2, theta, 0) == (False, [])

    def accepts(call) -> bool:
        try:
            call()
        except DomainError:
            return False
        return True

    # One float either side of 1e10 theta, for theta < 1, where the two
    # formulas differed (132 of these 2000 probes).
    rng = np.random.default_rng(15)
    for theta in 10.0 ** rng.uniform(-8.0, 0.0, 2000):
        k2 = float(np.nextafter(1e10 * theta, rng.choice([0.0, np.inf])) * rng.choice([-1.0, 1.0]))
        eigenvalue_domain = accepts(lambda: _validate_eig_args(1, k2, theta))
        assert accepts(lambda: exclusion_check(k2, theta, 0)) == eigenvalue_domain, (k2, theta)
        assert accepts(lambda: zero_in_spectrum(k2, theta, 0)) == eigenvalue_domain, (k2, theta)
