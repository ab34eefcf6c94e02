"""Command-line surface: eigenvalue tables, parameter sweeps, resonance
lists, classical spectra, and the verification suites.

Exit codes: 0 success, 1 failed verification, 2 invalid flags or
parameters, 3 for the excluded parameter k^2 = 0.

Every command is deterministic for fixed flags.  `eigs` and `sweep`
evaluate their whole table in one vectorized pass of the eigenvalue
kernel (`spectrum.eigen_grid`), and a cell's bytes do not depend on the
rest of the table.  Resonant cells are marked with the explicit token
RES; no command ever prints NaN or Inf.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .classical import ball_steklov_spectrum
from .errors import SteklovBallError
from .resonances import bessel_zeros, family1_resonances, magnetic_zeros, neumann_zeros
from .spectrum import eigen_grid
from .verify import SUITE_NAMES, run_suites

__all__ = ["main"]

_KINDS = ("bessel", "neumann", "magnetic", "family1")
_TABLE_HEADER = "family,l,theta,k2,lambda,status"
_MAX_SAMPLES = 100_000
_MAX_THREADS = 64


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


def _parse_int_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) == 1:
        lo = hi = _parse_int(parts[0])
    elif len(parts) == 2:
        lo, hi = _parse_int(parts[0]), _parse_int(parts[1])
    else:
        raise argparse.ArgumentTypeError(f"expected INT or LO:HI, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _parse_real_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) == 1:
        lo = hi = _parse_real(parts[0])
    elif len(parts) == 2:
        lo, hi = _parse_real(parts[0]), _parse_real(parts[1])
    else:
        raise argparse.ArgumentTypeError(f"expected REAL or LO:HI, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


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
# Flag plumbing: one table per subcommand drives both argparse and the
# config-file merge (config mirrors every flag; flags win on conflict).
# ----------------------------------------------------------------------


class _Opt:
    def __init__(
        self,
        flag: str,
        cast: Callable[[str], object] | None,
        default: object,
        help: str,
        choices: tuple[str, ...] | None = None,
        required: bool = False,
        hidden: bool = False,
    ) -> None:
        self.flag = flag
        self.attr = flag.lstrip("-").replace("-", "_")
        self.cast = cast
        self.default = default
        self.help = help
        self.choices = choices
        self.required = required
        self.hidden = hidden


_COMMON = [
    _Opt("--format", str, "csv", "output format", choices=("csv", "json")),
    _Opt("--out", str, None, "output file (default: stdout)"),
    _Opt("--config", str, None, "key=value config file mirroring the flags"),
]

_OPTIONS: dict[str, list[_Opt]] = {
    "eigs": [
        _Opt("--family", _parse_int, 1, "eigenvalue family, 1 or 2"),
        _Opt("--l-max", _parse_int, 3, "degrees 1..l_max"),
        _Opt("--k2", _parse_real, None, "wavenumber squared (nonzero real)", required=True),
        _Opt("--theta", _parse_real, 1.0, "penalty parameter > 0"),
        *_COMMON,
    ],
    "sweep": [
        _Opt("--family", _parse_int, 1, "eigenvalue family, 1 or 2"),
        _Opt("--l", _parse_int_range, (1, 10), "degree or range LO:HI"),
        _Opt("--k2", _parse_real_range, None, "k2 value or range LO:HI", required=True),
        _Opt("--samples", _parse_int, 2001, f"number of k2 samples, 1..{_MAX_SAMPLES}"),
        _Opt("--theta", _parse_real, 1.0, "penalty parameter > 0"),
        _Opt("--threads", _parse_int, None, f"no effect; 1..{_MAX_THREADS} for old command lines"),
        *_COMMON,
    ],
    "zeros": [
        _Opt("--kind", str, None, "root family", choices=_KINDS, required=True),
        _Opt("--l", _parse_int, None, "Bessel degree", required=True),
        _Opt("--count", _parse_int, 5, "number of roots"),
        _Opt("--theta", _parse_real, 1.0, "penalty parameter (family1 only)"),
        *_COMMON,
    ],
    "classical": [
        _Opt("--dim", _parse_int, 3, "ambient dimension n >= 2"),
        _Opt("--radius", _parse_real, 1.0, "ball radius"),
        _Opt("--count", _parse_int, 25, "flattened eigenvalue count"),
        *_COMMON,
    ],
    "verify": [
        _Opt("--suite", str, None, "suite name (repeatable; default: all)"),
        _Opt("--l-max", _parse_int, None, "cap harmonic degree in the suites (1..200)"),
        _Opt("--tol", _parse_real, 1.0, "tolerance scale factor (> 0)"),
        _Opt("--perturb-lambda", _parse_real, 0.0, "debug hook", hidden=True),
        _Opt("--format", str, "json", "output format", choices=("csv", "json")),
        _Opt("--out", str, None, "output file (default: stdout)"),
        _Opt("--config", str, None, "key=value config file mirroring the flags"),
    ],
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
        for opt in options:
            kwargs: dict = {
                "default": None,
                "help": argparse.SUPPRESS if opt.hidden else opt.help,
            }
            if opt.choices:
                kwargs["choices"] = opt.choices
            if opt.flag == "--suite":
                kwargs["action"] = "append"
            p.add_argument(opt.flag, **kwargs)
        p.set_defaults(func=_COMMANDS[command], options=options)
    return parser


def _load_config(path: str) -> dict[str, str]:
    table: dict[str, str] = {}
    text = Path(path).read_text()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SteklovBallError(f"{path}:{line_number}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        table[key.strip()] = value.strip()
    return table


def _resolve(ns: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the config file, then from defaults, and
    apply each option's cast uniformly to both sources."""
    config = _load_config(ns.config) if ns.config else {}
    known = {opt.flag.lstrip("-") for opt in ns.options}
    for key in config:
        if key not in known:
            raise SteklovBallError(f"unknown config key {key!r}")
    for opt in ns.options:
        raw = getattr(ns, opt.attr)
        if raw is None and opt.flag.lstrip("-") in config:
            raw = config[opt.flag.lstrip("-")]
            if opt.flag == "--suite":
                raw = [token.strip() for token in raw.split(",")]
        if raw is None:
            if opt.required:
                raise SteklovBallError(f"missing required flag {opt.flag}")
            setattr(ns, opt.attr, opt.default)
            continue
        if opt.cast is not None:
            try:
                if isinstance(raw, list):
                    raw = [opt.cast(item) if isinstance(item, str) else item for item in raw]
                elif isinstance(raw, str):
                    raw = opt.cast(raw)
            except argparse.ArgumentTypeError as exc:
                raise SteklovBallError(f"{opt.flag}: {exc}")
        if opt.choices and raw not in opt.choices:
            raise SteklovBallError(f"{opt.flag}: expected one of {opt.choices}, got {raw!r}")
        setattr(ns, opt.attr, raw)
    return ns


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# Table assembly shared by eigs and sweep
# ----------------------------------------------------------------------


def _grid_rows(family: int, l_lo: int, l_hi: int, k2s: list[float], theta: float) -> list[tuple]:
    values, ok = eigen_grid(family, l_lo, l_hi, k2s, theta)
    rows = []
    for l, row_values, row_ok in zip(range(l_lo, l_hi + 1), values.tolist(), ok.tolist()):
        for k2, value, good in zip(k2s, row_values, row_ok):
            rows.append((family, l, theta, k2, value if good else None, "OK" if good else "RES"))
    return rows


def _table_text(rows: list[tuple[int, int, float, float, float | None, str]], fmt: str) -> str:
    if fmt == "csv":
        lines = [_TABLE_HEADER]
        for family, l, theta, k2, value, status in rows:
            lam = "" if value is None else _fmt(value)
            lines.append(f"{family},{l},{_fmt(theta)},{_fmt(k2)},{lam},{status}")
        return "\n".join(lines) + "\n"
    payload = {
        "rows": [
            {
                "family": family,
                "l": l,
                "theta": theta,
                "k2": k2,
                "lambda": value,
                "status": status,
            }
            for family, l, theta, k2, value, status in rows
        ]
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def cmd_eigs(ns: argparse.Namespace) -> int:
    if ns.k2 == 0.0:
        print("error: k2 = 0 is outside the eigenvalue problem's range", file=sys.stderr)
        return 3
    rows = _grid_rows(ns.family, 1, ns.l_max, [ns.k2], ns.theta)
    _emit(_table_text(rows, ns.format), ns.out)
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    given = os.environ.get("STEKLOV_BALL_THREADS", "4") if ns.threads is None else str(ns.threads)
    if given not in {str(n) for n in range(1, _MAX_THREADS + 1)}:
        raise SteklovBallError(f"--threads/STEKLOV_BALL_THREADS {given!r} not in 1..{_MAX_THREADS}")
    if not (1 <= ns.samples <= _MAX_SAMPLES):
        raise SteklovBallError(f"--samples must be in [1, {_MAX_SAMPLES}], got {ns.samples}")
    k2_lo, k2_hi = ns.k2
    if k2_lo == 0.0 and k2_hi == 0.0:
        print("error: k2 = 0 is outside the eigenvalue problem's range", file=sys.stderr)
        return 3
    k2_values = np.linspace(k2_lo, k2_hi, ns.samples).tolist()
    rows = _grid_rows(ns.family, *ns.l, k2_values, ns.theta)
    _emit(_table_text(rows, ns.format), ns.out)
    return 0


def cmd_zeros(ns: argparse.Namespace) -> int:
    if ns.kind == "bessel":
        roots = bessel_zeros(ns.l, ns.count)
    elif ns.kind == "neumann":
        roots = neumann_zeros(ns.l, ns.count)
    elif ns.kind == "magnetic":
        roots = magnetic_zeros(ns.l, ns.count)
    else:
        roots = family1_resonances(ns.l, ns.theta, ns.count)
    theta_text = "" if roots.theta is None else _fmt(roots.theta)
    if ns.format == "csv":
        lines = ["kind,l,theta,index,root,residual"]
        for index, (root, residual) in enumerate(zip(roots.roots, roots.residuals), start=1):
            lines.append(
                f"{roots.tag},{roots.l},{theta_text},{index},{_fmt(root)},{_fmt(residual)}"
            )
        _emit("\n".join(lines) + "\n", ns.out)
    else:
        payload = {
            "kind": roots.tag,
            "l": roots.l,
            "theta": roots.theta,
            "roots": list(roots.roots),
            "residuals": list(roots.residuals),
        }
        _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", ns.out)
    return 0


def cmd_classical(ns: argparse.Namespace) -> int:
    spectrum_table = ball_steklov_spectrum(ns.dim, ns.radius, ns.count)
    rows = []
    rank = 0
    for degree, eigenvalue, mult in spectrum_table.entries:
        for _ in range(mult):
            rank += 1
            if rank > ns.count:
                break
            rows.append((ns.dim, ns.radius, rank, degree, eigenvalue, mult))
        if rank > ns.count:
            break
    if ns.format == "csv":
        lines = ["dim,radius,rank,degree,eigenvalue,multiplicity"]
        for dim, radius, rank, degree, eigenvalue, mult in rows:
            lines.append(
                f"{dim},{_fmt(radius)},{rank},{degree},{_fmt(eigenvalue)},{mult}"
            )
        _emit("\n".join(lines) + "\n", ns.out)
    else:
        payload = {
            "rows": [
                {
                    "dim": dim,
                    "radius": radius,
                    "rank": rank,
                    "degree": degree,
                    "eigenvalue": eigenvalue,
                    "multiplicity": mult,
                }
                for dim, radius, rank, degree, eigenvalue, mult in rows
            ]
        }
        _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", ns.out)
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    report = run_suites(
        suites=ns.suite,
        l_max=ns.l_max,
        tol_scale=ns.tol,
        perturb_lambda=ns.perturb_lambda,
    )
    if ns.format == "csv":
        lines = ["suite,name,passed,residual,tolerance"]
        for c in report.checks:
            lines.append(
                f"{c.suite},{c.name},{str(c.passed).lower()},{_fmt(c.residual)},{_fmt(c.tolerance)}"
            )
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"
    _emit(text, ns.out)
    return 0 if report.passed else 1


_COMMANDS = {
    "eigs": cmd_eigs,
    "sweep": cmd_sweep,
    "zeros": cmd_zeros,
    "classical": cmd_classical,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    ns = parser.parse_args(_merge_negative_values(argv))
    try:
        ns = _resolve(ns)
        return ns.func(ns)
    except SteklovBallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
