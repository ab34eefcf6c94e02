"""Scalar Steklov spectrum of the n-ball and related counting.

Everything here is exact integer combinatorics or rational arithmetic,
so the assertions are tight.
"""

from __future__ import annotations

import math

import pytest

from steklov_ball import (
    InvalidMode,
    DomainError,
    NotRepresentable,
    ball_steklov_spectrum,
    harmonic_polynomial_dimension,
    multiplicity,
    weyl_exponent_fit,
)


def test_head_of_spectrum_ball_3d():
    got = ball_steklov_spectrum(3, count=20).flattened(16)
    want = [0.0] + [1.0] * 3 + [2.0] * 5 + [3.0] * 7
    assert got == want


def test_radius_scaling():
    # sigma = l / R: doubling the radius halves every eigenvalue.
    one = ball_steklov_spectrum(3, radius=1.0, count=10).flattened(30)
    two = ball_steklov_spectrum(3, radius=2.0, count=10).flattened(30)
    for a, b in zip(one, two):
        assert b == pytest.approx(a / 2.0, rel=1e-15)


def test_multiplicity_small_dimensions():
    # circle: 1, 2, 2, 2, ...; sphere: 2j+1
    assert [multiplicity(2, j) for j in range(5)] == [1, 2, 2, 2, 2]
    assert [multiplicity(3, j) for j in range(6)] == [1, 3, 5, 7, 9, 11]
    # 3-sphere: (j+1)^2
    assert [multiplicity(4, j) for j in range(5)] == [1, 4, 9, 16, 25]


@pytest.mark.parametrize("n", range(2, 7))
def test_multiplicity_equals_harmonic_dimension(n):
    for j in range(0, 51):
        assert multiplicity(n, j) == harmonic_polynomial_dimension(n, j)


def test_multiplicity_is_exact_integer():
    # the formula is a product over integers divided by (n-2)!; the
    # result must come out exactly integral, not rounded
    val = multiplicity(6, 40)
    assert isinstance(val, int)
    assert val == harmonic_polynomial_dimension(6, 40)


def test_spectrum_entries_structure():
    s = ball_steklov_spectrum(4, count=5)
    assert s.dim == 4 and s.radius == 1.0
    degrees = [e[0] for e in s.entries]
    assert degrees == sorted(degrees)
    for degree, eig, mult in s.entries:
        assert eig == pytest.approx(degree / s.radius)
        assert mult == multiplicity(4, degree)


def test_flattened_respects_limit():
    s = ball_steklov_spectrum(3, count=50)
    assert len(s.flattened(7)) == 7
    assert len(s.flattened(0)) == 0


@pytest.mark.parametrize("n,want", [(2, 1.0), (3, 0.5)])
def test_weyl_exponent(n, want):
    fit = weyl_exponent_fit(n, 10_000)
    assert abs(fit - want) < 0.02


def test_weyl_exponent_converges_with_count():
    # the fitted exponent approaches 1/(n-1) as the tail grows
    for n in (2, 3):
        want = 1.0 / (n - 1)
        coarse = abs(weyl_exponent_fit(n, 1_000) - want)
        fine = abs(weyl_exponent_fit(n, 100_000) - want)
        assert fine <= coarse + 1e-12


def test_weyl_four_dimensional():
    # slower approach in higher dimension: just bracket it loosely at
    # the 1e5 scale and tighter at 1e6
    assert abs(weyl_exponent_fit(4, 100_000) - 1.0 / 3.0) < 0.02


def test_classical_validation():
    with pytest.raises(InvalidMode):
        ball_steklov_spectrum(1)
    with pytest.raises(DomainError):
        ball_steklov_spectrum(3, radius=0.0)
    with pytest.raises(DomainError):
        ball_steklov_spectrum(3, count=0)
    with pytest.raises(InvalidMode):
        multiplicity(3, -1)
    with pytest.raises(DomainError):
        weyl_exponent_fit(3, 10)
    # The dimension is bounded: an unbounded n (3,000,000, say) kept the
    # multiplicity loop busy for minutes.  The top dimension answers, and
    # the refused one sits just above it, so that a build without the
    # bound fails here fast instead of hanging.
    assert len(ball_steklov_spectrum(10**4, count=10**6).entries) == 3
    for call in (
        lambda: multiplicity(10**4 + 1, 2),
        lambda: harmonic_polynomial_dimension(10**4 + 1, 2),
        lambda: ball_steklov_spectrum(10**4 + 1, count=5),
    ):
        with pytest.raises(InvalidMode, match=r"^dimension must be an integer in \[2, 10000\]"):
            call()


def test_radius_whose_spectrum_overflows_is_refused():
    # 1/R overflows to inf for a subnormal radius, which no table may print.
    with pytest.raises(NotRepresentable, match=r"radius 1e-320$"):
        ball_steklov_spectrum(2, radius=1e-320, count=3)
    values = ball_steklov_spectrum(2, radius=1e-300, count=3).flattened(3)
    assert values[0] == 0.0 and all(math.isfinite(v) and v > 1e299 for v in values[1:])
