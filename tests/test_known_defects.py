"""Known defects, written down as strict expected failures.

Each test states the right answer for an input that the package gets
wrong today.  `xfail_strict` is on, so a fix turns the test into an
XPASS, which fails the run: the fix must then drop the mark, and the
test becomes a plain regression test.
"""

from __future__ import annotations

import pytest

from steklov_ball import ModeIndex, NotRepresentable, family1_resonances, steklov_mode, verify_weak_identity


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP known defect: family1_resonances misses the poles where j_l(k) is subnormal",
)
def test_family1_finds_the_pole_where_j_l_is_subnormal():
    # Below k ~ 4.38, j_200(k) is subnormal and the scan's filter drops
    # every pole: the first root read 4.417051651304769.  lambda1 changes
    # sign across k = 2.1255574 (1 +- 1e-9), and so does the 60-digit D.
    root = family1_resonances(200, 1e-4, 1).roots[0]
    assert abs(root - 2.1255574) <= 1e-6


@pytest.mark.xfail(
    strict=True,
    raises=NotRepresentable,
    reason="ROADMAP known defect: the weak identity refuses high degrees at small k^2",
)
@pytest.mark.parametrize("family,l", [(1, 56), (2, 60)])
def test_weak_identity_reaches_high_degree_at_small_k2(family, l):
    # The radial rule has nodes near r = 0 where j_l(kr) is 0 or
    # subnormal; the refused j_l' terms there add nothing to the
    # integral.  Family 1 at (54, 1) answers 1.6e-12.
    mode = steklov_mode(family, ModeIndex("even", 1, l), 1.0, 1.0)
    assert verify_weak_identity(mode) <= 1e-8
