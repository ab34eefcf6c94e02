"""Electromagnetic Steklov eigenvalues of the penalized curl-curl
operator on the unit ball, with the classical scalar spectrum of the
n-ball alongside.

The library computes the two explicit eigenvalue families in closed
form, builds their eigenfields, and re-verifies every claim by an
independent numerical route (finite differences, quadrature, root
bracketing).  See the README for the mathematical setup.

Public names are imported from their module on first use (PEP 562), so
a process loads only the modules it calls.  They are looked up on every
access and never stored here, so a module attribute replaced at run
time shows through.
"""

__version__ = "0.1.0"

_SUBMODULES = (
    "classical", "cli", "errors", "fd", "harmonics", "kernel",
    "radial", "resonances", "specfun", "spectrum", "verify",
)

# Public name -> the module that defines it.
_SOURCE = {
    name: module
    for module, names in {
        "classical": "ScalarSpectrum ball_steklov_spectrum harmonic_polynomial_dimension "
        "multiplicity weyl_exponent_fit",
        "errors": "DirichletResonance DomainError InvalidMode NonRealEigenvalue NotRepresentable "
        "QuadratureTooCoarse ScanExhausted SteklovBallError StepTooLarge",
        "harmonics": "BallPoint ModeIndex SurfacePoint SurfaceRule Vec3 check_vector_laplacian "
        "enumerate_modes gram_matrix scalar_Y surface_direction surface_quadrature vector_A",
        "kernel": "lambda1 lambda2",
        "radial": "RadialFunction RadialKind RadialPair bessel_operator radial_profiles",
        "resonances": "RootList SpectrumWitness bessel_zeros exclusion_check family1_resonances "
        "magnetic_zeros neumann_zeros zero_in_spectrum",
        "specfun": "QuadratureRule gauss_legendre sph_bessel_j sph_bessel_j_all sph_bessel_j_deriv",
        "spectrum": "SteklovMode divergence_field eigenfield eigenfield_cartesian "
        "lambda1_theta1_alt residual_fourth_order residual_system steklov_mode "
        "verify_steklov_bc verify_weak_identity",
        "verify": "Check VerifyReport run_suites",
    }.items()
    for name in names.split()
}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    from importlib import import_module

    if name in _SOURCE:
        return getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
