"""Self-verification suites.

Every closed-form claim the library makes is re-checked here by an
independent route: eigenvalue formulas against their algebraic
rearrangements, eigenfields against pointwise residuals of the
differential systems they must satisfy, quadrature identities against
refined quadrature, root lists against the functions they annihilate,
and the scalar spectrum against combinatorial dimension counts.

The suites are what `steklov-ball verify` runs; they are deliberately
cheap enough to execute on every build.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass

import numpy as np

from . import classical, fd, harmonics, kernel, resonances, spectrum
from .errors import _L_MAX, DirichletResonance, InvalidMode, _integer, _positive
from .harmonics import BallPoint, ModeIndex, SurfacePoint
from .radial import RadialKind, radial_profiles
from .specfun import assoc_legendre_tower, sph_bessel_j, sph_bessel_j_all, sph_bessel_j_deriv

__all__ = ["Check", "VerifyReport", "SUITE_NAMES", "run_suites", "sample_modes"]


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    passed: bool
    residual: float
    tolerance: float


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "counts": {
                "total": len(self.checks),
                "failed": sum(not c.passed for c in self.checks),
            },
            "checks": [dataclasses.asdict(c) for c in self.checks],
        }


@dataclass(frozen=True)
class _Context:
    l_max: int | None
    tol_scale: float

    def cap(self, l: int) -> int:
        return l if self.l_max is None else min(l, self.l_max)


def _check(suite: str, name: str, residual: float, tolerance: float) -> Check:
    return Check(suite, name, bool(residual <= tolerance), float(residual), float(tolerance))


_SURFACE_POINTS = [
    SurfacePoint(theta=0.7, phi=1.1),
    SurfacePoint(theta=1.9, phi=4.0),
    SurfacePoint(theta=2.6, phi=0.3),
]


def sample_modes() -> list[tuple[int, ModeIndex, float, float]]:
    """The 40-mode sample grid shared by the residual suites: both
    families, degrees up to 8, k^2 of both signs, all three penalty
    regimes (theta below, at, and above 1)."""
    ls = [1, 2, 5, 8]
    k2s = [1.0, -1.0, 10.0, -10.0, 30.0]
    thetas = [0.5, 1.0, 2.0]
    grid = []
    i = 0
    for l in ls:
        for k2 in k2s:
            for family in (1, 2):
                theta = thetas[i % 3]
                m = i % (l + 1)
                parity = "odd" if (i % 2 == 1 and m >= 1) else "even"
                grid.append((family, ModeIndex(parity, m, l), k2, theta))
                i += 1
    return grid


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------


def _suite_spot_values(ctx: _Context) -> list[Check]:
    tol = 1e-10 * ctx.tol_scale
    j1 = math.sin(1.0) - math.cos(1.0)
    expected = -math.cos(1.0) / j1
    got = kernel.lambda2(1, 1.0)
    checks = [_check("spot-values", "lambda2(1,1) closed form", abs(got - expected), tol)]
    a = kernel.lambda1(1, 1.0, 1.0)
    b = spectrum.lambda1_theta1_alt(1, 1.0)
    checks.append(
        _check("spot-values", "lambda1(1,1,1) vs product form", abs(a - b) / abs(a), tol)
    )
    return checks


def _suite_form_equivalence(ctx: _Context) -> list[Check]:
    tol = 1e-10 * ctx.tol_scale
    k2s = np.linspace(-50.0, 50.0, 101)
    k2s = k2s[k2s != 0.0]
    # One kernel grid and one tower: a kernel cell equals lambda1 bit for
    # bit and ok is False exactly where lambda1 raises DirichletResonance;
    # resonant marks the cells where lambda1_theta1_alt raises it.
    values, ok = kernel.eigen_grid(1, 1, ctx.cap(10), k2s, 1.0)
    alt, resonant = spectrum._theta1_alt_rows(1, ctx.cap(10), k2s)
    use = ok & ~resonant & (values != 0.0)
    a, b = values[use], alt[use]
    worst = float(np.max(np.abs(a - b) / np.abs(a), initial=0.0))
    tried = int(np.count_nonzero(use))
    name = f"lambda1 vs alt over {tried} off-resonance points"
    return [_check("form-equivalence", name, worst, tol)]


def _suite_asymptotics(ctx: _Context) -> list[Check]:
    checks = []
    for which, func in (
        ("lambda1", lambda l: kernel.lambda1(l, 1.0, 1.0)),
        ("lambda2", lambda l: kernel.lambda2(l, 1.0)),
    ):
        ratios = [func(l) / (-l) for l in range(30, 51)]
        inside = all(0.85 < r < 1.15 for r in ratios)
        gaps = [abs(r - 1.0) for r in ratios]
        monotone = all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
        worst = max(gaps)
        checks.append(
            Check(
                "asymptotics",
                f"{which}_l/(-l) in (0.85,1.15), gap monotone, l=30..50",
                bool(inside and monotone),
                float(worst),
                0.15,
            )
        )
    return checks


def _suite_eigen_residuals(ctx: _Context) -> list[Check]:
    tol_bc = 1e-9 * ctx.tol_scale
    tol_sys = 1e-9 * ctx.tol_scale
    tol_fourth = 1e-8 * ctx.tol_scale
    checks = []
    worst_bc = 0.0
    worst_sys = 0.0
    worst_fourth = 0.0
    n_modes = 0
    for family, n, k2, theta in sample_modes():
        if ctx.l_max is not None and n.l > ctx.l_max:
            continue
        mode = spectrum.steklov_mode(family, n, k2, theta)
        n_modes += 1
        for p in _SURFACE_POINTS:
            worst_bc = max(worst_bc, spectrum.verify_steklov_bc(mode, p))
        for r in (0.3, 0.7, 1.0):
            res2, res3 = spectrum.residual_system(mode.radial, r)
            worst_sys = max(worst_sys, res2, res3)
        if theta == 1.0 and family == 1:
            # the fourth-order reduction applies to the coupled pair only
            for r in (0.4, 0.9):
                worst_fourth = max(
                    worst_fourth,
                    spectrum.residual_fourth_order(n.l, k2, r, mode.radial.e3),
                )
    checks.append(
        _check("eigen-residuals", f"boundary condition, {n_modes} modes x 3 points", worst_bc, tol_bc)
    )
    checks.append(
        _check("eigen-residuals", f"radial ODE system, {n_modes} modes x 3 radii", worst_sys, tol_sys)
    )
    checks.append(
        _check("eigen-residuals", "fourth-order reduction, theta=1 subset", worst_fourth, tol_fourth)
    )
    return checks


_WEAK_MODES = [
    (2, ModeIndex("even", 0, 1), 1.0, 1.0),
    (1, ModeIndex("even", 0, 1), 1.0, 1.0),
    (1, ModeIndex("even", 1, 2), -3.0, 2.0),
    (2, ModeIndex("odd", 1, 2), -3.0, 2.0),
    (1, ModeIndex("even", 2, 3), 10.0, 0.5),
    (2, ModeIndex("odd", 2, 3), 10.0, 0.5),
    (1, ModeIndex("even", 0, 4), -1.0, 1.0),
    (2, ModeIndex("even", 3, 4), 30.0, 2.0),
    (1, ModeIndex("odd", 1, 5), 30.0, 0.5),
    (2, ModeIndex("even", 0, 5), -10.0, 1.0),
    (1, ModeIndex("even", 5, 5), 1.0, 2.0),
    (2, ModeIndex("odd", 4, 5), -1.0, 0.5),
]


def _suite_weak_identity(ctx: _Context) -> list[Check]:
    tol = 1e-8 * ctx.tol_scale
    worst = 0.0
    n_modes = 0
    for family, n, k2, theta in _WEAK_MODES:
        if ctx.l_max is not None and n.l > ctx.l_max:
            continue
        mode = spectrum.steklov_mode(family, n, k2, theta)
        worst = max(worst, spectrum.verify_weak_identity(mode))
        n_modes += 1
    return [_check("weak-identity", f"weak-form defect, {n_modes} modes", worst, tol)]


def _suite_divergence(ctx: _Context) -> list[Check]:
    checks = []
    rng = random.Random(20240817)
    box = ((0.15, 0.95), (0.1, math.pi - 0.1), (0.0, 2.0 * math.pi - 1e-9))  # r, polar, azimuth
    r, polar, azimuth = np.array([[rng.uniform(*side) for side in box] for _ in range(100)]).T
    n = ModeIndex("even", 1, 2)
    y = harmonics._angular(n, [t[n.l] for t in assoc_legendre_tower(n.m, n.l, np.cos(polar))], azimuth)[0]

    mode2 = spectrum.steklov_mode(2, n, 5.0, 1.0)
    worst2 = float(np.max(np.abs(spectrum._divergence_coef(mode2, r) * y)))
    checks.append(_check("divergence", "family 2 divergence-free, 100 points", worst2, 1e-11 * ctx.tol_scale))

    mode1 = spectrum.steklov_mode(1, n, 5.0, 2.0)
    q = math.sqrt(5.0 / 2.0)
    closed_arr = -(5.0 / 2.0) * np.array([sph_bessel_j_all(2, v)[2].real for v in q * r]) * y
    modal_arr = spectrum._divergence_coef(mode1, r) * y
    mask = np.abs(closed_arr) >= 0.01 * np.max(np.abs(closed_arr))
    rel = float(np.max(np.abs(modal_arr[mask] - closed_arr[mask]) / np.abs(closed_arr[mask])))
    checks.append(_check("divergence", "family 1 modal vs closed form", rel, 1e-10 * ctx.tol_scale))

    # Cartesian finite differences must converge to the modal divergence
    # at second order up to rounding.
    field = spectrum.eigenfield_cartesian(mode1)
    p = BallPoint(r=0.55, direction=SurfacePoint(theta=1.1, phi=2.2))
    xyz = np.asarray(p.to_xyz())
    exact = spectrum.divergence_field(mode1, p)
    errors = []
    for h in (2e-3, 1e-3):
        errors.append(abs(fd.divergence(field, xyz, h) - exact))
    order = min(math.log2(errors[0] / max(errors[1], 1e-300)), 16.0)
    checks.append(
        Check("divergence", "finite-difference order", bool(order >= 1.9), float(order), 1.9)
    )
    return checks


def _suite_resonances(ctx: _Context) -> list[Check]:
    checks = []
    worst_boundary = 0.0
    worst_pole_gap = 0.0
    for l in range(1, ctx.cap(5) + 1):
        roots = resonances.family1_resonances(l, 1.0, 4).roots
        for root in roots:
            pair = radial_profiles(RadialKind.MATCHED, l, root * root, 1.0)
            value = abs(pair.e2(1.0))
            q = complex(root)
            big_l = l * (l + 1)
            a = -sph_bessel_j_deriv(l, q).real * root / (
                sph_bessel_j(l, q).real * big_l
            )
            solenoidal = radial_profiles(RadialKind.SOLENOIDAL, l, root * root, 1.0)
            compressive = radial_profiles(RadialKind.COMPRESSIVE, l, root * root, 1.0)
            scale = max(abs(a * solenoidal.e2(1.0)), abs(compressive.e2(1.0)))
            worst_boundary = max(worst_boundary, value / scale)
            # pole behavior on both sides
            lo = kernel.lambda1(l, (root - 1e-4) ** 2, 1.0)
            hi = kernel.lambda1(l, (root + 1e-4) ** 2, 1.0)
            if not (lo * hi < 0.0 or min(abs(lo), abs(hi)) > 1e4):
                worst_pole_gap = max(worst_pole_gap, 1.0)
        for root in resonances.bessel_zeros(l, 3).roots:
            try:
                kernel.lambda2(l, root * root)
            except DirichletResonance:
                continue
            worst_pole_gap = max(worst_pole_gap, 1.0)
    checks.append(
        _check("resonances", "boundary trace vanishes at denominator roots", worst_boundary, 1e-9 * ctx.tol_scale)
    )
    checks.append(
        Check("resonances", "poles flagged and sign-changing", worst_pole_gap == 0.0, worst_pole_gap, 0.5)
    )
    pole = resonances.family1_resonances(1, 1.0, 1).roots[0] ** 2
    hit_clear, nearest = resonances.exclusion_check(pole, 1.0, ctx.cap(3))
    far_clear, _ = resonances.exclusion_check(20.0, 1.0, ctx.cap(3))
    agreed = not hit_clear and nearest == pole and far_clear
    checks.append(Check("resonances", "exclusion check bookkeeping", bool(agreed), 0.0 if agreed else 1.0, 0.5))
    return checks


def _suite_zero_spectrum(ctx: _Context) -> list[Check]:
    worst = 0.0
    for l in range(1, ctx.cap(5) + 1):
        zeros = resonances.neumann_zeros(l, 3).roots
        for theta in (1.0, 2.0):
            for z in zeros:
                worst = max(worst, abs(kernel.lambda1(l, theta * z * z, theta)))
        for x in resonances.magnetic_zeros(l, 3).roots:
            worst = max(worst, abs(kernel.lambda2(l, x * x)))
    checks = [_check("zero-spectrum", "lambda vanishes at auxiliary zeros", worst, 1e-9 * ctx.tol_scale)]
    ok, witnesses = resonances.zero_in_spectrum(
        resonances.neumann_zeros(1, 1).roots[0] ** 2 * 2.0, 2.0, 3
    )
    generic, _ = resonances.zero_in_spectrum(1.0, 1.0, ctx.cap(20))
    agreed = ok and any(w.kind == "neumann" and w.l == 1 for w in witnesses) and not generic
    checks.append(Check("zero-spectrum", "witness bookkeeping", bool(agreed), 0.0 if agreed else 1.0, 0.5))
    return checks


def _suite_harmonics(ctx: _Context) -> list[Check]:
    checks = []
    l_max = ctx.cap(6)
    _, gram = harmonics.gram_matrix(l_max)
    identity = np.eye(gram.shape[0])
    checks.append(
        _check("harmonics", f"Gram identity, tau<=3, l<={l_max}", float(np.max(np.abs(gram - identity))), 1e-10 * ctx.tol_scale)
    )
    p = BallPoint(r=0.6, direction=SurfacePoint(theta=1.0, phi=0.8))
    worst_order = 16.0
    for tau, n in ((1, ModeIndex("even", 1, 2)), (2, ModeIndex("odd", 1, 3)), (3, ModeIndex("even", 0, 2))):
        r1 = harmonics.check_vector_laplacian(tau, n, p, 2e-3)
        r2 = harmonics.check_vector_laplacian(tau, n, p, 1e-3)
        worst_order = min(worst_order, math.log2(r1 / max(r2, 1e-300)))
    checks.append(
        Check("harmonics", "vector Laplacian FD order", bool(worst_order >= 1.9), float(worst_order), 1.9)
    )
    return checks


def _suite_classical(ctx: _Context) -> list[Check]:
    checks = []
    head = classical.ball_steklov_spectrum(3, 1.0, 9).flattened(9)
    expected = [0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0]
    checks.append(
        Check("classical", "n=3 spectrum head", head == expected, float(np.max(np.abs(np.array(head) - expected))), 0.0)
    )
    mismatch = 0
    for n in range(2, 7):
        for j in range(0, 51):
            if classical.multiplicity(n, j) != classical.harmonic_polynomial_dimension(n, j) and j > 0:
                mismatch += 1
    checks.append(Check("classical", "multiplicity = harmonic dimension, n<=6, j<=50", mismatch == 0, float(mismatch), 0.5))
    fit = classical.weyl_exponent_fit(3, 10**4)
    checks.append(_check("classical", "Weyl exponent n=3", abs(fit - 0.5), 0.02))
    return checks


SUITES = {
    "spot-values": _suite_spot_values,
    "form-equivalence": _suite_form_equivalence,
    "asymptotics": _suite_asymptotics,
    "eigen-residuals": _suite_eigen_residuals,
    "weak-identity": _suite_weak_identity,
    "divergence": _suite_divergence,
    "resonances": _suite_resonances,
    "zero-spectrum": _suite_zero_spectrum,
    "harmonics": _suite_harmonics,
    "classical": _suite_classical,
}

SUITE_NAMES = tuple(SUITES)


def run_suites(
    suites: list[str] | None = None,
    l_max: int | None = None,
    tol_scale: float = 1.0,
) -> VerifyReport:
    """Run the named suites (all by default) and collect their checks.

    ``l_max`` (1..200) caps the suites' degrees; ``tol_scale`` (finite,
    > 0) multiplies every tolerance."""
    if suites is None:
        names = list(SUITE_NAMES)
    else:
        unknown = [s for s in suites if s not in SUITES]
        if unknown:
            raise InvalidMode(f"unknown suites: {unknown}; available: {list(SUITE_NAMES)}")
        names = list(suites)
    if l_max is not None:
        l_max = _integer(l_max, "l_max", 1, _L_MAX)
    ctx = _Context(l_max=l_max, tol_scale=_positive(tol_scale, "tol_scale"))
    checks: list[Check] = []
    for name in names:
        checks.extend(SUITES[name](ctx))
    return VerifyReport(checks=tuple(checks))
