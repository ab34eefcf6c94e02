"""Command-line surface: eigenvalue tables, parameter sweeps, resonance
lists, classical spectra, and the verification suites.

Exit codes: 0 success, 1 failed verification, 2 invalid flags or
parameters, 3 for the excluded parameter k^2 = 0.

Every command is deterministic for fixed flags.  `eigs` and `sweep`
evaluate their whole table in one vectorized pass of the eigenvalue
kernel (`kernel.eigen_grid`) and write it from the grid in blocks of at
most 1,024 cells of one degree; a cell's bytes do not depend on the rest
of the table.  Resonant cells are marked with the explicit token RES; no
command ever prints NaN or Inf.  The other commands import their modules
when they run, so that `eigs` and `sweep` load only the kernel.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

# No command does BLAS work worth a second thread, and OpenBLAS starts one
# worker per core when numpy is imported, which costs every process CPU
# time. Set before the first numpy import; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .errors import SteklovBallError
from .kernel import eigen_grid

__all__ = ["main"]

_KINDS = ("bessel", "neumann", "magnetic", "family1")
_TABLE_HEADER = "family,l,theta,k2,lambda,status"
_MAX_SAMPLES = 100_000
_MAX_THREADS = 64
_CHUNK_CELLS = 1024  # table cells per written chunk


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _parse_real(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a real number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_range(text: str, parse, name: str) -> tuple:
    parts = text.split(":")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError(f"expected {name} or LO:HI, got {text!r}")
    lo, hi = parse(parts[0]), parse(parts[-1])
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _parse_int_range(text: str) -> tuple[int, int]:
    return _parse_range(text, _parse_int, "INT")


def _parse_real_range(text: str) -> tuple[float, float]:
    return _parse_range(text, _parse_real, "REAL")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join `--flag` with a following value that starts with '-', so
    negative numbers and ranges like -100:100 survive option parsing."""
    merged: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (
            token.startswith("--")
            and "=" not in token
            and i + 1 < len(argv)
            and len(argv[i + 1]) > 1
            and argv[i + 1][0] == "-"
            and (argv[i + 1][1].isdigit() or argv[i + 1][1] == ".")
        ):
            merged.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            merged.append(token)
            i += 1
    return merged


# ----------------------------------------------------------------------
# Flags: one table of add_argument keywords per subcommand.  A --config
# file's lines become flag tokens placed before the command line's own,
# so argparse casts and checks them alike and explicit flags win.
# ----------------------------------------------------------------------


_COMMON = {
    "--format": dict(default="csv", choices=("csv", "json"), help="output format"),
    "--out": dict(help="output file (default: stdout)"),
    "--config": dict(help="key=value config file mirroring the flags"),
}

_OPTIONS: dict[str, dict[str, dict]] = {
    "eigs": {
        "--family": dict(type=_parse_int, default=1, help="eigenvalue family, 1 or 2"),
        "--l-max": dict(type=_parse_int, default=3, help="degrees 1..l_max"),
        "--k2": dict(type=_parse_real, required=True, help="wavenumber squared (nonzero real)"),
        "--theta": dict(type=_parse_real, default=1.0, help="penalty parameter > 0"),
        **_COMMON,
    },
    "sweep": {
        "--family": dict(type=_parse_int, default=1, help="eigenvalue family, 1 or 2"),
        "--l": dict(type=_parse_int_range, default=(1, 10), help="degree or range LO:HI"),
        "--k2": dict(type=_parse_real_range, required=True, help="k2 value or range LO:HI"),
        "--samples": dict(
            type=_parse_int, default=2001, help=f"number of k2 samples, 1..{_MAX_SAMPLES}"
        ),
        "--theta": dict(type=_parse_real, default=1.0, help="penalty parameter > 0"),
        "--threads": dict(
            type=_parse_int, help=f"no effect; 1..{_MAX_THREADS} for old command lines"
        ),
        **_COMMON,
    },
    "zeros": {
        "--kind": dict(choices=_KINDS, required=True, help="root family"),
        "--l": dict(type=_parse_int, required=True, help="Bessel degree"),
        "--count": dict(type=_parse_int, default=5, help="number of roots"),
        "--theta": dict(type=_parse_real, default=1.0, help="penalty parameter (family1 only)"),
        **_COMMON,
    },
    "classical": {
        "--dim": dict(type=_parse_int, default=3, help="ambient dimension n, 2..10000"),
        "--radius": dict(type=_parse_real, default=1.0, help="ball radius"),
        "--count": dict(type=_parse_int, default=25, help="flattened eigenvalue count"),
        **_COMMON,
    },
    "verify": {
        "--suite": dict(action="append", help="suite name (repeatable, each runs once; default: all)"),
        "--l-max": dict(
            type=_parse_int,
            help="cap the degrees of the form-equivalence, eigen-residuals, weak-identity, resonances, "
            "zero-spectrum and Gram checks (1..200); the other checks keep fixed degrees",
        ),
        "--tol": dict(type=_parse_real, default=1.0, help="tolerance scale factor (> 0)"),
        **_COMMON,
        "--format": dict(_COMMON["--format"], default="json"),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steklov-ball",
        description="Steklov eigenvalues of the penalized curl-curl operator on the unit ball",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "eigs": "eigenvalue table at fixed k2",
        "sweep": "eigenvalue grid over a k2 range (figure reproduction)",
        "zeros": "resonance and auxiliary root lists",
        "classical": "classical scalar Steklov spectrum of the n-ball",
        "verify": "run the self-verification suites",
    }
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command, help=descriptions[command])
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=_COMMANDS[command])
    return parser


def _config_tokens(command: str, args: list[str]) -> list[str]:
    """The `--key=value` tokens of the --config file named in `args`.

    Keys must be the command's own flags, spelled out; `suite=a,b` gives
    one --suite token per name, and none when `args` has its own --suite.
    """
    prescan = argparse.ArgumentParser(prog="steklov-ball", add_help=False, exit_on_error=False)
    prescan.add_argument("--config")
    prescan.add_argument("--suite", action="append")
    try:
        given, _ = prescan.parse_known_args(args)
    except argparse.ArgumentError:
        return []  # a flag without its value: the full parse reports it
    if given.config is None:
        return []
    try:
        text = Path(given.config).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SteklovBallError(f"cannot read --config file: {exc}") from None
    table: dict[str, str] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SteklovBallError(f"{given.config}:{line_number}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        table[key.strip()] = value.strip()
    tokens = []
    for key, value in table.items():
        if f"--{key}" not in _OPTIONS[command]:
            raise SteklovBallError(f"unknown config key {key!r}")
        if key != "suite":
            tokens.append(f"--{key}={value}")
        elif given.suite is None:
            tokens += [f"--suite={name.strip()}" for name in value.split(",")]
    return tokens


def _csv(header: str, rows) -> str:
    # RFC 4180 with minimal quoting, since verify's check names hold commas.
    import csv
    import io
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([header.split(","), *rows])
    return text.getvalue()


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write a command's output chunk by chunk to stdout or the --out file;
    a reader that closes stdout early ends the output quietly, and any
    other write error is a SteklovBallError."""
    if not out:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as exc:
            # Point stdout at the null device, so that the interpreter's
            # flush at exit cannot fail a second time.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if not isinstance(exc, BrokenPipeError):
                raise SteklovBallError(f"cannot write output: {exc}") from None
        return
    try:
        with open(out, "w") as file:
            file.writelines(chunks)
    except OSError as exc:
        raise SteklovBallError(f"cannot write --out file: {exc}") from None


# ----------------------------------------------------------------------
# Table assembly shared by eigs and sweep
# ----------------------------------------------------------------------


# Table text per format: a row's lead up to its k2, then its rest when OK
# (the value left as a %-field) and when RES.  '%.17g' and '%r' print a
# float as _fmt and json.dumps do.  Every JSON row leads with the comma
# that separates it from the one before; the first row's is cut.
_TABLE_PARTS = {
    "csv": ("\n{family},{l},{theta},", "{k2},%.17g,OK", "{k2},,RES"),
    "json": (
        ',\n    {{\n      "family": {family},\n      "l": {l},\n      "theta": {theta},\n',
        '      "k2": {k2},\n      "lambda": %r,\n      "status": "OK"\n    }}',
        '      "k2": {k2},\n      "lambda": null,\n      "status": "RES"\n    }}',
    ),
}


def _table_text(fmt: str, family: int, theta: float, degrees: range, k2s: list[float],
                values: np.ndarray, ok: np.ndarray) -> Iterator[str]:
    """The eigs/sweep table of `eigen_grid`'s (values, ok), degrees by k2s,
    in the bytes of per-cell _fmt lines or of json.dumps(indent=2), as the
    header, one chunk per degree and block of 1,024 k2s (_CHUNK_CELLS), and
    the trailer.  Theta and each k2 are formatted once per table, and a
    chunk's OK values in one %-operation when the writer asks for that chunk.
    """
    num = _fmt if fmt == "csv" else repr
    lead, ok_rest, res_rest = _TABLE_PARTS[fmt]
    theta_text = num(theta)
    oks = [ok_rest.format(k2=num(k2)) for k2 in k2s]
    yield _TABLE_HEADER if fmt == "csv" else '{\n  "rows": ['
    cut = int(fmt == "json")  # the first row's lead comma
    for l, row_values, row_ok in zip(degrees, values, ok):
        row_lead = lead.format(family=family, l=l, theta=theta_text)
        for lo in range(0, len(k2s), _CHUNK_CELLS):
            block = slice(lo, lo + _CHUNK_CELLS)
            goods = row_ok[block].tolist()
            cells = (text if good else res_rest.format(k2=num(k2))
                     for text, k2, good in zip(oks[block], k2s[block], goods))
            yield (row_lead.join(["", *cells]) % tuple(row_values[block][row_ok[block]].tolist()))[cut:]
            cut = 0
    yield "\n" if fmt == "csv" else ("\n  ]\n}\n" if values.size else "]\n}\n")


def _emit_grid(ns: argparse.Namespace, l_lo: int, l_hi: int, k2s: list[float]) -> None:
    values, ok = eigen_grid(ns.family, l_lo, l_hi, k2s, ns.theta)
    _emit(_table_text(ns.format, ns.family, ns.theta, range(l_lo, l_hi + 1), k2s, values, ok), ns.out)


def cmd_eigs(ns: argparse.Namespace) -> int:
    if ns.k2 == 0.0:
        print("error: k2 = 0 is outside the eigenvalue problem's range", file=sys.stderr)
        return 3
    _emit_grid(ns, 1, ns.l_max, [ns.k2])
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    if ns.threads is not None and not (1 <= ns.threads <= _MAX_THREADS):
        raise SteklovBallError(f"--threads must be in [1, {_MAX_THREADS}], got {ns.threads}")
    if not (1 <= ns.samples <= _MAX_SAMPLES):
        raise SteklovBallError(f"--samples must be in [1, {_MAX_SAMPLES}], got {ns.samples}")
    k2_lo, k2_hi = ns.k2
    if k2_lo == 0.0 and k2_hi == 0.0:
        print("error: k2 = 0 is outside the eigenvalue problem's range", file=sys.stderr)
        return 3
    k2_values = np.linspace(k2_lo, k2_hi, ns.samples).tolist()
    _emit_grid(ns, *ns.l, k2_values)
    return 0


def cmd_zeros(ns: argparse.Namespace) -> int:
    from .resonances import bessel_zeros, family1_resonances, magnetic_zeros, neumann_zeros

    if ns.kind == "family1":
        roots = family1_resonances(ns.l, ns.theta, ns.count)
    else:
        scan = {"bessel": bessel_zeros, "neumann": neumann_zeros, "magnetic": magnetic_zeros}
        roots = scan[ns.kind](ns.l, ns.count)
    if ns.format == "csv":
        theta = "" if roots.theta is None else _fmt(roots.theta)
        text = _csv("kind,l,theta,index,root,residual", (
            (roots.tag, roots.l, theta, index, _fmt(root), _fmt(residual))
            for index, (root, residual) in enumerate(zip(roots.roots, roots.residuals), start=1)
        ))
    else:
        text = _json({"kind": roots.tag, "l": roots.l, "theta": roots.theta,
                      "roots": list(roots.roots), "residuals": list(roots.residuals)})
    _emit((text,), ns.out)
    return 0


def cmd_classical(ns: argparse.Namespace) -> int:
    from .classical import ball_steklov_spectrum

    entries = ball_steklov_spectrum(ns.dim, ns.radius, ns.count).entries
    flat = itertools.islice(((j, sigma, m) for j, sigma, m in entries for _ in range(m)), ns.count)
    rows = [(ns.dim, ns.radius, rank, *entry) for rank, entry in enumerate(flat, start=1)]
    if ns.format == "csv":
        text = _csv("dim,radius,rank,degree,eigenvalue,multiplicity", (
            (dim, _fmt(radius), rank, degree, _fmt(sigma), mult)
            for dim, radius, rank, degree, sigma, mult in rows
        ))
    else:
        keys = ("dim", "radius", "rank", "degree", "eigenvalue", "multiplicity")
        text = _json({"rows": [dict(zip(keys, row)) for row in rows]})
    _emit((text,), ns.out)
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    from .verify import run_suites

    report = run_suites(suites=ns.suite, l_max=ns.l_max, tol_scale=ns.tol)
    if ns.format == "csv":
        text = _csv("suite,name,passed,residual,tolerance", (
            (c.suite, c.name, str(c.passed).lower(), _fmt(c.residual), _fmt(c.tolerance))
            for c in report.checks
        ))
    else:
        text = _json(report.to_dict())
    _emit((text,), ns.out)
    return 0 if report.passed else 1


_COMMANDS = {
    "eigs": cmd_eigs,
    "sweep": cmd_sweep,
    "zeros": cmd_zeros,
    "classical": cmd_classical,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    argv = _merge_negative_values(list(sys.argv[1:]) if argv is None else list(argv))
    try:
        if argv and argv[0] in _OPTIONS:
            argv[1:1] = _config_tokens(argv[0], argv[1:])
        ns = _build_parser().parse_args(argv)
        return ns.func(ns)
    except SteklovBallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
