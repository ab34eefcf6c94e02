"""The import graph: the production path (cli, kernel, resonances,
classical, errors) loads no verification module, neither on import nor
when the root queries run, a sweep process loads only what it runs, a
verify process does without numpy.random, the package's public names
resolve lazily without being cached and are each used by the package
itself, only the kernel and the root scans name a private kernel
member, and only the CLI sets a process default in os.environ."""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

import steklov_ball

PUBLIC_NAMES = """
BallPoint Check DirichletResonance DomainError InvalidMode ModeIndex NonRealEigenvalue
NotRepresentable QuadratureRule QuadratureTooCoarse RadialFunction RadialKind RadialPair
RootList ScalarSpectrum ScanExhausted SpectrumWitness SteklovBallError SteklovMode StepTooLarge
SurfacePoint SurfaceRule Vec3 VerifyReport ball_steklov_spectrum bessel_operator bessel_zeros
check_vector_laplacian divergence_field eigenfield eigenfield_cartesian enumerate_modes
exclusion_check family1_resonances gauss_legendre gram_matrix harmonic_polynomial_dimension
lambda1 lambda1_theta1_alt lambda2 magnetic_zeros multiplicity neumann_zeros radial_profiles
residual_fourth_order residual_system run_suites scalar_Y sph_bessel_j sph_bessel_j_all
sph_bessel_j_deriv steklov_mode surface_direction surface_quadrature vector_A verify_steklov_bc
verify_weak_identity weyl_exponent_fit zero_in_spectrum
""".split()
SUBMODULES = """
classical cli errors fd harmonics kernel radial resonances specfun spectrum verify
""".split()
VERIFICATION = {f"steklov_ball.{m}" for m in ("fd", "harmonics", "radial", "spectrum", "verify")}


def all_loaded_modules(code: str) -> set[str]:
    """The names in sys.modules after `code` runs in a fresh interpreter."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return set(json.loads(r.stdout.splitlines()[-1]))


def loaded_modules(code: str) -> set[str]:
    """The steklov_ball modules in sys.modules after `code` runs in a
    fresh interpreter."""
    return {name for name in all_loaded_modules(code) if name.split(".")[0] == "steklov_ball"}


def test_production_modules_import_no_verification_module():
    loaded = loaded_modules(
        "import steklov_ball.cli, steklov_ball.kernel, steklov_ball.resonances, "
        "steklov_ball.classical, steklov_ball.errors"
    )
    assert not loaded & VERIFICATION, sorted(loaded & VERIFICATION)


def test_root_queries_load_no_verification_module():
    loaded = loaded_modules(
        "import steklov_ball as sb\n"
        "sb.bessel_zeros(2, 3), sb.neumann_zeros(2, 3), sb.magnetic_zeros(2, 3)\n"
        "sb.family1_resonances(2, 0.5, 3)\n"
        "assert sb.exclusion_check(30.0, 0.5, 4)[0]\n"
        "assert sb.zero_in_spectrum(sb.neumann_zeros(1, 1).roots[0] ** 2, 1.0, 3)[0]"
    )
    assert not loaded & VERIFICATION, sorted(loaded & VERIFICATION)


def test_sweep_process_loads_only_cli_errors_and_kernel():
    loaded = loaded_modules(
        "import contextlib, io\n"
        "from steklov_ball import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['sweep', '--l', '1:3', '--k2=-10:10', '--samples', '9']) == 0"
    )
    assert loaded == {"steklov_ball", "steklov_ball.cli", "steklov_ball.errors", "steklov_ball.kernel"}


def test_verify_divergence_process_does_not_load_numpy_random():
    # The divergence suite draws its points with the standard library's
    # random module, which the interpreter has loaded already.
    loaded = all_loaded_modules(
        "import contextlib, io\n"
        "from steklov_ball import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--suite', 'divergence']) == 0"
    )
    assert "steklov_ball.verify" in loaded
    assert not {name for name in loaded if name.split(".")[:2] == ["numpy", "random"]}


def test_public_names_and_submodules_resolve():
    assert steklov_ball.__all__ == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        value = getattr(steklov_ball, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    for name in SUBMODULES:
        assert getattr(steklov_ball, name) is sys.modules[f"steklov_ball.{name}"]
    star: dict = {}
    exec("from steklov_ball import *", star)
    assert set(star) - {"__builtins__"} == set(PUBLIC_NAMES)
    assert [n for n in dir(steklov_ball) if not n.startswith("_")] == sorted(PUBLIC_NAMES + SUBMODULES)


def test_every_public_name_is_used_by_the_package():
    # A public name earns its place when a command, a verify suite or
    # another package function reaches it: some module other than
    # __init__ (whose name table only lists it) refers to it by name or
    # attribute.  Tests do not count; a name only they use is dead code.
    used = set()
    for path in pathlib.Path(steklov_ball.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    exported = {name: name for name in steklov_ball.__all__}
    for module in SUBMODULES:
        for name in getattr(getattr(steklov_ball, module), "__all__", ()):
            exported.setdefault(name, f"{module}.{name}")
    assert sorted(label for name, label in exported.items() if name not in used) == []


def test_only_the_kernel_and_root_scans_name_private_kernel_members():
    # The verification layer checks the kernel through its public names
    # only; `resonances` may share the kernel's private machinery.
    found = []
    for path in pathlib.Path(steklov_ball.__file__).parent.glob("*.py"):
        if path.stem in ("kernel", "resonances"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("kernel", "steklov_ball.kernel"):
                found += [f"{path.stem}: {a.name}" for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                if isinstance(node.value, ast.Name) and node.value.id == "kernel":
                    found.append(f"{path.stem}: kernel.{node.attr}")
    assert found == []


def test_public_names_are_not_cached(monkeypatch):
    original = steklov_ball.resonances.bessel_zeros

    def sentinel(l, count):
        raise AssertionError("unreachable")

    monkeypatch.setattr(steklov_ball.resonances, "bessel_zeros", sentinel)
    assert steklov_ball.bessel_zeros is sentinel
    monkeypatch.undo()
    assert steklov_ball.bessel_zeros is original
    assert "bessel_zeros" not in vars(steklov_ball)


def environ_change(code: str, **preset: str) -> dict:
    """The os.environ entries that `code` adds or changes in a fresh
    interpreter started without OPENBLAS_NUM_THREADS, plus `preset`."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    script = (
        "import json, os\nbefore = dict(os.environ)\n"
        f"{code}\n"
        "print(json.dumps({k: v for k, v in os.environ.items() if before.get(k) != v}))"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env={**env, **preset})
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def test_cli_loads_numpy_with_one_blas_thread_unless_set():
    assert environ_change("import steklov_ball.cli") == {"OPENBLAS_NUM_THREADS": "1"}
    assert environ_change("import steklov_ball.cli", OPENBLAS_NUM_THREADS="3") == {}
    assert environ_change("import steklov_ball, steklov_ball.kernel") == {}
