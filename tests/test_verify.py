"""The self-verification suites as a whole: they pass with room to
spare on the error checks, and they catch a wrong eigenvalue."""

from __future__ import annotations

from steklov_ball import run_suites, spectrum


def test_all_checks_pass_with_error_residuals_below_1e_12():
    # Checks with a tolerance of at most 1e-8 compare two routes to one
    # number; the others are orders, counts or flags.
    report = run_suites()
    assert len(report.checks) == 22 and report.passed
    errors = {c.name: c.residual for c in report.checks if c.tolerance <= 1e-8}
    assert len(errors) == 13
    assert max(errors.values()) <= 1e-12, errors


def test_eigen_residuals_catch_a_wrong_eigenvalue(monkeypatch):
    for name in ("lambda1", "lambda2"):
        exact = getattr(spectrum, name)
        monkeypatch.setattr(spectrum, name, lambda *args, exact=exact: exact(*args) * (1.0 + 1e-3))
    report = run_suites(["eigen-residuals"])
    assert not report.passed
    assert [c.name for c in report.checks if not c.passed] == ["boundary condition, 40 modes x 3 points"]
