"""Output checks, run outside the timed region.

References are evaluated with mpmath at 40 significant digits.  Each
check returns a verdict dict: ``ok`` (bool), ``reason`` (why it failed,
or None), ``silent`` (the op ended normally but its output is wrong),
``errors`` (relative errors of the checked values) and ``rows`` (output
rows of the op: cells, roots or checks).
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import jsonschema
import mpmath as mp
import numpy as np
from scipy.optimize import brentq
from scipy.special import spherical_jn

mp.mp.dps = 40

# Relative tolerance per unit of conditioning for sweep cells and roots:
# about 5000 ulps, far above the roundoff of a stable evaluation and far
# below any wrong branch or skipped root.
REL_TOL = 1e-12
SWEEP_CELLS_CHECKED = 40  # seeded sample of OK cells per sweep op
SCHEMA_ROWS = 200  # seeded rows of a JSON table run through jsonschema
VERIFY_ERROR_TOL = 1e-8  # verify checks at most this tolerance are error checks


def load_schemas(root: Path) -> dict:
    return json.loads((root / "src" / "steklov_ball" / "schemas" / "output_schemas.json").read_text())


def _validator(schemas: dict, definition: str):
    schema = {"$ref": f"#/definitions/{definition}", "definitions": schemas["definitions"]}
    return jsonschema.Draft7Validator(schema)


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _verdict(rows: int, errors: list[float], reason: str | None = None, silent: bool = True) -> dict:
    return {"ok": reason is None, "reason": reason, "silent": reason is not None and silent,
            "errors": errors, "rows": rows}


# ----------------------------------------------------------------------
# mpmath references
# ----------------------------------------------------------------------


def sph_j(l: int, z):
    """Spherical Bessel j_l(z) for nonzero real or complex z."""
    return mp.sqrt(mp.pi / (2 * z)) * mp.besselj(l + mp.mpf(1) / 2, z)


def _bessel_pair(l: int, z):
    jl = sph_j(l, z)
    return jl, sph_j(l - 1, z) - (l + 1) / z * jl


def _wavenumber(k2: float):
    k2 = mp.mpf(k2)
    return mp.sqrt(k2) if k2 > 0 else mp.mpc(0, mp.sqrt(-k2))


def _lambda(family: int, l: int, k2, theta: float):
    """(lambda, formula condition) at 40 digits.  The formula condition is
    how much the closed form amplifies relative errors of its Bessel
    factors: the cancellation in its denominator (sum of the terms' sizes
    over |den|) plus the amplification near a zero of a factor (|z f'/f|)."""
    k = _wavenumber(k2)
    jk, jkp = _bessel_pair(l, k)
    if family == 2:
        num = -(jk + k * jkp)
        cond = 1 + abs(k * jkp / jk) + (abs(jk) + abs(k * jkp)) / abs(num)
        return mp.re(num / jk), cond
    sq = mp.sqrt(mp.mpf(theta))
    q = k / sq
    jq, jqp = (jk, jkp) if theta == 1.0 else _bessel_pair(l, q)
    big_l = l * (l + 1)
    t1 = jq * jk * big_l
    t2 = -jqp * jkp * k * k / sq
    t3 = -jqp * jk * k / sq
    den = t1 + t2 + t3
    # j_l'' from the Bessel equation, for the zero amplification of j_l'(q).
    jqpp = -2 / q * jqp - (1 - big_l / (q * q)) * jq
    cond = 1 + (abs(t1) + abs(t2) + abs(t3)) / abs(den) + abs(q * jqpp / jqp) + abs(k * jkp / jk)
    return mp.re(-jqp * jk * q * k * k / den), cond


def lambda_reference(family: int, l: int, k2: float, theta: float):
    """(lambda, cond) at 40 digits.  cond adds to the formula condition the
    argument condition |k2 lambda'(k2) / lambda|, which is large near a
    pole of the eigenvalue."""
    value, cond = _lambda(family, l, k2, theta)
    h = mp.mpf(k2) * mp.mpf("1e-15")
    slope = (_lambda(family, l, mp.mpf(k2) + h, theta)[0] - _lambda(family, l, mp.mpf(k2) - h, theta)[0]) / (2 * h)
    return value, float(cond + abs(k2 * slope / value))


def _real_den(family: int, l: int, k2: float, theta: float):
    """The pole function of a family, made real: j_l(k) for family 2, the
    family-1 denominator for family 1 (its phase i^(2l) divided out)."""
    k = _wavenumber(k2)
    jk, jkp = _bessel_pair(l, k)
    if family == 2:
        return mp.re(jk) if k2 > 0 else mp.mpf(1)  # no real pole for k2 < 0
    sq = mp.sqrt(mp.mpf(theta))
    q = k / sq
    jq, jqp = _bessel_pair(l, q)
    den = jq * jk * l * (l + 1) - jqp * jkp * k * k / sq - jqp * jk * k / sq
    return mp.re(den * (-1) ** l)


def _pole_near(family: int, l: int, k2s: list[float], theta: float) -> bool:
    values = [_real_den(family, l, k2, theta) for k2 in k2s]
    return any(mp.sign(a) != mp.sign(b) or a == 0 for a, b in zip(values, values[1:]))


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def _flags(argv: list[str]) -> dict[str, str]:
    """Flag values of a generated command line (`--flag value` or `--flag=value`)."""
    flags, tokens = {}, iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        flags[name] = value if eq else next(tokens)
    return flags


def _sweep_grid(argv: list[str]) -> tuple[int, float, list[int], np.ndarray]:
    flags = _flags(argv)
    k2_lo, k2_hi = (float(x) for x in flags["--k2"].split(":"))
    l_lo, l_hi = (int(x) for x in flags["--l"].split(":"))
    k2s = np.linspace(k2_lo, k2_hi, int(flags["--samples"]))
    return int(flags["--family"]), float(flags["--theta"]), list(range(l_lo, l_hi + 1)), k2s


def _parse_table(text: str, fmt: str, schemas: dict, rng: random.Random) -> list[tuple]:
    """Rows (family, l, theta, k2, lambda or None, status); raises
    ValueError on any malformed row."""
    if fmt == "json":
        payload = json.loads(text)
        rows = payload.get("rows") if isinstance(payload, dict) else None
        if not isinstance(rows, list):
            raise ValueError("JSON table has no rows array")
        sample = rng.sample(range(len(rows)), min(SCHEMA_ROWS, len(rows)))
        sample_doc = dict(payload, rows=[rows[i] for i in sorted(sample)])
        error = jsonschema.exceptions.best_match(_validator(schemas, "table").iter_errors(sample_doc))
        if error is not None:
            raise ValueError(f"schema: {error.message}")
        keys = {"family", "l", "theta", "k2", "lambda", "status"}
        out = []
        for row in rows:
            if not isinstance(row, dict) or set(row) != keys:
                raise ValueError(f"bad JSON row {row!r}")
            out.append((row["family"], row["l"], row["theta"], row["k2"], row["lambda"], row["status"]))
        return out
    lines = text.splitlines()
    if not lines or lines[0] != "family,l,theta,k2,lambda,status":
        raise ValueError("missing CSV header")
    out = []
    for line in lines[1:]:
        family, l, theta, k2, lam, status = line.split(",")
        out.append((int(family), int(l), float(theta), float(k2), float(lam) if lam else None, status))
    return out


def check_sweep(op: dict, returncode: int, stdout: str, stderr: str, schemas: dict, seed: int) -> dict:
    argv = op["argv"]
    family, theta, degrees, k2s = _sweep_grid(argv)
    expected_rows = len(degrees) * len(k2s)
    if returncode != 0:
        return _verdict(0, [], f"exit code {returncode}: {_last_line(stderr)}", silent=False)
    if "Traceback" in stderr:
        return _verdict(0, [], "traceback", silent=False)
    rng = random.Random(f"check/{seed}/{op['index']}")
    fmt = _flags(argv)["--format"]
    try:
        rows = _parse_table(stdout, fmt, schemas, rng)
    except (ValueError, json.JSONDecodeError) as exc:
        return _verdict(0, [], f"malformed output: {exc}")
    if len(rows) != expected_rows:
        return _verdict(len(rows), [], f"{len(rows)} rows, expected {expected_rows}")
    ok_cells, res_cells = [], []
    for i, (fam, l, th, k2, lam, status) in enumerate(rows):
        j = i % len(k2s)
        if fam != family or l != degrees[i // len(k2s)] or th != theta or k2 != float(k2s[j]):
            return _verdict(len(rows), [], f"row {i} is {fam},{l},{th},{k2}: not the requested grid")
        if status == "OK":
            if lam is None or not math.isfinite(lam):
                return _verdict(len(rows), [], f"non-finite OK value {lam!r} at l={l}, k2={k2!r}")
            ok_cells.append((l, j, lam))
        elif status == "RES" and lam is None:
            res_cells.append((l, j))
        else:
            return _verdict(len(rows), [], f"bad status {status!r} with value {lam!r}")
    step = float(k2s[1] - k2s[0])
    for l, j in res_cells:
        k2 = float(k2s[j])
        if k2 == 0.0:
            continue  # k^2 = 0 is outside the model and marked RES by contract
        near = [float(k2s[j - 1]) if j > 0 else k2 - step, k2,
                float(k2s[j + 1]) if j + 1 < len(k2s) else k2 + step]
        if not _pole_near(family, l, near, theta):
            return _verdict(len(rows), [], f"RES at l={l}, k2={k2!r} with no pole within one step")
    errors = []
    for l, j, lam in rng.sample(ok_cells, min(SWEEP_CELLS_CHECKED, len(ok_cells))):
        k2 = float(k2s[j])
        ref, cond = lambda_reference(family, l, k2, theta)
        err = float(abs(lam - ref) / abs(ref)) if ref != 0 else abs(lam)
        if not err <= REL_TOL * cond:
            return _verdict(len(rows), errors, f"lambda{family}(l={l}, k2={k2!r}) = {lam!r}, "
                            f"mpmath {mp.nstr(ref, 17)}, rel err {err:.3g} > {REL_TOL:g} * cond {cond:.3g}")
        errors.append(err / cond)
    return _verdict(len(rows), errors)


# ----------------------------------------------------------------------
# roots
# ----------------------------------------------------------------------


def _root_function(kind: str, l: int, theta: float | None):
    if kind == "bessel":
        return lambda x: sph_j(l, x)
    if kind == "neumann":
        return lambda x: _bessel_pair(l, x)[1]
    if kind == "magnetic":
        def magnetic(x):
            jl, jlp = _bessel_pair(l, x)
            return jl + x * jlp
        return magnetic
    return lambda x: _real_den(1, l, x * x, theta)


def _double_function(kind: str, l: int, theta: float | None):
    """The function of `_root_function` in double precision, for scanning."""
    def f(x):
        jl, jlp = spherical_jn(l, x), spherical_jn(l, x, derivative=True)
        if kind == "bessel":
            return jl
        if kind == "neumann":
            return jlp
        if kind == "magnetic":
            return jl + x * jlp
        sq = math.sqrt(theta)
        jq, jqp = spherical_jn(l, x / sq), spherical_jn(l, x / sq, derivative=True)
        return jq * jl * l * (l + 1) - jqp * jlp * x * x / sq - jqp * jl * x / sq
    return f


def root_at_or_above(kind: str, l: int, theta: float | None, x_min: float):
    """The first zero at or above x_min of the function of `_root_function`,
    at 40 digits: a double-precision scan in steps of 0.05 brackets it,
    brentq narrows the bracket and mpmath's secant method refines it."""
    f = _double_function(kind, l, theta)
    xs = x_min + 0.05 * np.arange(4000)
    values = f(xs)
    change = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))
    if not change.size:
        raise ValueError(f"no {kind} root of degree {l} in [{x_min}, {xs[-1]}]")
    x = brentq(f, xs[change[0]], xs[change[0] + 1], xtol=1e-14)
    return mp.findroot(_root_function(kind, l, theta), (mp.mpf(x) * (1 - mp.mpf("1e-12")), mp.mpf(x)))


def _bracket(f, root: float):
    """(a, b, f(a), f(b)) at root * (1 -+ 1e-12), or None without a sign change."""
    r = mp.mpf(root)
    a, b = r * (1 - mp.mpf("1e-12")), r * (1 + mp.mpf("1e-12"))
    fa, fb = f(a), f(b)
    return (a, b, fa, fb) if mp.sign(fa) != mp.sign(fb) else None


def _check_root(kind: str, l: int, theta, index: int, root: float) -> tuple[str | None, float]:
    """(failure or None, relative error) of one root against mpmath: a sign
    change across root * (1 -+ 1e-12), and the secant root of that bracket
    (exact to about 1e-24) as reference; bessel roots are also compared
    with besseljzero(l + 1/2, index), so a skipped root shows."""
    bracket = _bracket(_root_function(kind, l, theta), root)
    if bracket is None:
        return f"{kind} root {index} = {root!r} (l={l}) is not bracketed by a sign change", math.inf
    a, b, fa, fb = bracket
    reference = a - fa * (b - a) / (fb - fa)
    if kind == "bessel" and index > 0:
        true = mp.besseljzero(l + mp.mpf(1) / 2, index)
        if abs(true - reference) > mp.mpf("1e-20") * true:
            return f"bessel root {index} = {root!r} (l={l}) but besseljzero gives {mp.nstr(true, 17)}", math.inf
    return None, float(abs(mp.mpf(root) - reference) / reference)


def check_call(op: dict, reply: dict, schemas: dict, seed: int) -> dict:
    if reply.get("error"):
        return _verdict(0, [], f"{reply['error']}: {reply.get('message', '')}", silent=False)
    function, args, result = op["function"], op["args"], reply["result"]
    if function == "exclusion_check":
        return _check_exclusion(args, result, op.get("expect"))
    if function == "zero_in_spectrum":
        return _check_zero_in_spectrum(args, result, op.get("expect"))
    error = jsonschema.exceptions.best_match(_validator(schemas, "zeros").iter_errors(result))
    if error is not None:
        return _verdict(0, [], f"schema: {error.message}")
    roots = result["roots"]
    count = args[-1]
    if len(roots) != count:
        return _verdict(len(roots), [], f"{len(roots)} roots, expected {count}")
    rng = random.Random(f"check/{seed}/{op['index']}")
    indices = sorted({1, count, rng.randint(1, count)})
    theta = args[1] if function == "family1_resonances" else None
    errors = []
    for index in indices:
        failure, err = _check_root(result["kind"], args[0], theta, index, roots[index - 1])
        if failure:
            return _verdict(len(roots), errors, failure)
        errors.append(err)
    return _verdict(len(roots), errors)


def _candidate_degrees(root: float, theta: float, l_max: int) -> list[tuple[str, int]]:
    """(kind, l) pairs whose function changes sign at root in double
    precision; a cheap screen before the mpmath bracket."""
    x = root * np.array([1 - 1e-9, 1 + 1e-9])
    out = []
    for kind in ("bessel", "family1"):
        for l in range(1, l_max + 1):
            below, above = np.sign(_double_function(kind, l, theta)(x))
            if below != above:
                out.append((kind, l))
    return out


def _check_exclusion(args: list, result: list, expect: dict | None) -> dict:
    """`expect`, for a k^2 planted on a resonance square, names its kind and
    degree; the call must then answer not clear."""
    k2, theta, l_max = args
    clear, nearest = result
    if nearest is None or not (nearest > 0):
        return _verdict(1, [], f"nearest resonance square {nearest!r}")
    if clear != (abs(k2 - nearest) > 1e-6):
        return _verdict(1, [], f"clear={clear} but |k2 - nearest| = {abs(k2 - nearest):.3g}")
    if expect and clear:
        return _verdict(1, [], f"clear=True at the {expect['kind']} resonance square of l={expect['l']}")
    if math.isinf(nearest):
        return _verdict(1, [])
    # The nearest square must be a root of j_l or of the family-1
    # denominator for some degree l <= l_max.
    root = math.sqrt(nearest)
    for kind, l in _candidate_degrees(root, theta, l_max):
        failure, err = _check_root(kind, l, theta, 0, root)
        if failure is None:
            return _verdict(1, [err])
    return _verdict(1, [], f"nearest {nearest!r} is no resonance square for l <= {l_max}")


def _check_zero_in_spectrum(args: list, result: list, expect: dict | None) -> dict:
    """`expect`, for a k^2 planted on an auxiliary root, names its kind and
    degree; the call must then return a witness of that kind and degree."""
    k2, theta, _ = args
    found, witnesses = result
    if found != bool(witnesses):
        return _verdict(1, [], f"answer {found} with {len(witnesses)} witnesses")
    if expect and not any((kind, l) == (expect["kind"], expect["l"]) for kind, l, _ in witnesses):
        return _verdict(1, [], f"no {expect['kind']} witness of l={expect['l']} among {witnesses}")
    errors = []
    for kind, l, root in witnesses:
        target = theta * root * root if kind == "neumann" else root * root
        if abs(target - k2) > 1e-8:
            return _verdict(1, errors, f"witness {kind} l={l} root={root!r} misses k2")
        failure, err = _check_root(kind, l, None, 0, root)
        if failure:
            return _verdict(1, errors, failure)
        errors.append(err)
    return _verdict(1, errors)


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def check_verify(op: dict, returncode: int, stdout: str, stderr: str, schemas: dict) -> dict:
    if returncode not in (0, 1):
        return _verdict(0, [], f"exit code {returncode}: {_last_line(stderr)}", silent=False)
    if "Traceback" in stderr:
        return _verdict(0, [], "traceback", silent=False)
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return _verdict(0, [], f"malformed output: {exc}")
    error = jsonschema.exceptions.best_match(_validator(schemas, "verify").iter_errors(report))
    if error is not None:
        return _verdict(0, [], f"schema: {error.message}")
    checks = report["checks"]
    if returncode != 0 or not report["passed"]:
        failed = [c["name"] for c in checks if not c["passed"]]
        return _verdict(len(checks), [], f"exit code {returncode}, failed checks {failed}", silent=False)
    suites = [op["argv"][i + 1] for i, a in enumerate(op["argv"]) if a == "--suite"]
    if {c["suite"] for c in checks} != set(suites):
        return _verdict(len(checks), [], "checks do not cover the requested suites")
    if report["counts"] != {"total": len(checks), "failed": 0}:
        return _verdict(len(checks), [], f"counts {report['counts']} disagree with the checks")
    errors = [c["residual"] for c in checks if c["tolerance"] <= VERIFY_ERROR_TOL]
    return _verdict(len(checks), errors)
