"""Known defects, written down as strict expected failures.

Each test states the right answer for an input that the package gets
wrong today.  `xfail_strict` is on, so a fix turns the test into an
XPASS, which fails the run: the fix must then drop the mark, and the
test becomes a plain regression test.
"""

from __future__ import annotations

import sys

import pytest

from steklov_ball import (
    ModeIndex,
    NotRepresentable,
    exclusion_check,
    family1_resonances,
    kernel,
    lambda1,
    specfun,
    steklov_mode,
    verify_weak_identity,
)


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


@pytest.mark.parametrize("family,l", [(1, 56), (2, 60)])
def test_weak_identity_reaches_high_degree_at_small_k2(family, l):
    # The radial rule has nodes near r = 0 where j_l(kr) is 0 or
    # subnormal; they add nothing to the integral and are dropped, where
    # their refused j_l' terms once made the whole identity raise.  Family 1
    # at (54, 1) answers 1.6e-12, at (56, 1) 2.3e-12.
    mode = steklov_mode(family, ModeIndex("even", 1, l), 1.0, 1.0)
    assert verify_weak_identity(mode) <= 1e-8


def test_weak_identity_reaches_high_degree_at_k2_100():
    mode = steklov_mode(1, ModeIndex("even", 1, 64), 100.0, 1.0)
    assert verify_weak_identity(mode) <= 1e-8


def test_weak_identity_with_no_normal_node_is_refused_typed():
    # j_150(r) is 0 or subnormal at every node of the radial rule.
    with pytest.raises(NotRepresentable, match="every radial node"):
        verify_weak_identity(steklov_mode(2, ModeIndex("even", 1, 150), 1.0, 1.0))


def _lines_run_in(module, call) -> int:
    # Python lines that `call` executes in `module`'s own code: a count,
    # the same on every machine, where a time would not be.
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == module.__file__ else None)
    try:
        call()
    finally:
        sys.settrace(None)
    return lines


def _calls_into(modules, call) -> int:
    # Python function calls that `call` makes into the code of `modules`.
    files = {module.__file__ for module in modules}
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_filename in files

    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP known defect: a sweep sample at large k^2 costs about 1e5 steps of the fraction",
)
def test_lambda1_at_the_top_of_the_domain_costs_o_l_steps():
    # The backward fraction starts at depth 202 + ceil(sqrt(40 k)) + ceil(k),
    # 102,202 at k^2 = 1e10: about 3.1e5 kernel lines, three a step.  Past
    # the turning point the upward pass costs O(l) steps (ROADMAP item 2);
    # the budget is 50 lines a degree.
    l = 10
    assert _lines_run_in(kernel, lambda: lambda1(l, 1e10)) <= 50 * (l + 1)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP known defect: root-scan cost grows like k^2 / (2l + 1) per degree",
)
def test_exclusion_check_costs_a_bounded_number_of_evaluations():
    # The scans step from each first-root bound up to sqrt(k^2) + pi + 1 and
    # bisect every root on the way: about 2.8e5 calls into specfun and
    # kernel here (0.3 s).  Counting (ROADMAP item 3) locates only the two
    # roots around sqrt(k^2) per degree and kind, a few hundred
    # evaluations each; the budget is 500 calls a degree and kind.
    l_max = 10
    calls = _calls_into((specfun, kernel), lambda: exclusion_check(1e4, 1.0, l_max))
    assert calls <= 500 * 2 * l_max
