"""steklov-ball benchmark: run one workload with one seed.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the program is run from ./src and
nothing else.  One client drives the program in a closed loop, one op at
a time; every op's output is checked against mpmath, the JSON schemas
and the exit-code contract outside the timed region.  With --trace 0 it
prints the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced in-process run.  The last line of stdout is the result as JSON;
per-op records go to .bench_results/.  --op N replays op N of the seed;
--defects runs the known-defect inputs, which the timed ops leave out.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import mpmath
import numpy as np

import checks
import gen
from roots_runner import timed_call
from tracer import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
# Fresh interpreters that import the CLI, timed for setup_s (median
# reported).  They are spread over the run, between ops, so that their
# median samples the same stretch of machine time as the ops.
SETUP_RUNS = 11
SETUP_CODE = "import steklov_ball.cli"
FLOOR_RUNS = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
# max_rel_err reads errors below these as these: about 4.5 ulps for the
# mpmath-checked roots; about 45 ulps per unit of conditioning for sweep
# cells, whose recurrences at degrees up to 190 reach 6 ulps; and 1e-12
# for verify's residuals, which carry quadrature and recurrence error.  A
# change that only reshuffles roundoff then does not read as an accuracy
# regression.
ERROR_RESOLUTION = {"sweep": 1e-14, "roots": 1e-15, "verify": 1e-12}
# fail_ratio reads a failed share below this as this: it is never 0, and
# when no op fails it does not follow how many ops a run fits in.
FAIL_RESOLUTION = 1e-3
HERE = Path(__file__).resolve().parent

END_TO_END_UNITS = {
    "wall_s.p50": "s",
    "wall_s.tail": "s",
    "cpu_s.p50": "s",
    "rows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "1",
    "max_rel_err": "1",
}


def program_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _interpreter_times(code: str, runs: int) -> list[float]:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=program_env(), cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": _git_commit(),
        "loadavg_start": (_read("/proc/loadavg") or "").strip() or None,
        "python_floor_s": statistics.median(_interpreter_times("pass", FLOOR_RUNS)),
    }


# ----------------------------------------------------------------------
# Executing ops
# ----------------------------------------------------------------------


def spawn(argv: list[str], **popen) -> tuple[subprocess.Popen, int]:
    """Start a program process through bench/spawn.py, so that its rusage
    is its own; returns the spawner and the read end of its report pipe."""
    report, write_end = os.pipe()
    try:
        proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py"), str(write_end), *argv], cwd=ROOT,
                                env=program_env(), pass_fds=(write_end,), **popen)
    finally:
        os.close(write_end)
    return proc, report


def spawn_report(proc: subprocess.Popen, report: int) -> dict:
    """The spawned process's wall time, CPU time, ru_maxrss and exit code,
    once it has exited."""
    with os.fdopen(report) as lines:
        text = lines.read()
    proc.wait()
    return json.loads(text)


def run_cli(argv: list[str]) -> dict:
    """One `steklov-ball` process: wall time from spawn to exit and the
    process's own rusage from wait4, both taken by bench/spawn.py."""
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "stderr.tmp", "w+b") as err:
        proc, report = spawn([sys.executable, "-m", "steklov_ball.cli", *argv],
                             stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            stdout = proc.stdout.read()
        outcome = spawn_report(proc, report)
        err.seek(0)
        stderr = err.read()
    return dict(outcome, stdout=stdout.decode(errors="replace"), stderr=stderr.decode(errors="replace"),
                bytes_out=len(stdout))


def run_cli_in_process(cli_module, argv: list[str]) -> dict:
    """cli.main(argv) in this process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_module.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error is the op's traceback, exit 1
            code = 1
            err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return {"wall_s": wall, "cpu_s": time.process_time() - cpu0,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "exit_code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "bytes_out": len(out.getvalue().encode())}


class RootsRunner:
    """The long-lived child that times calls to the public root API."""

    def __init__(self) -> None:
        self.proc, self.report = spawn([sys.executable, str(HERE / "roots_runner.py")],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.maxrss_kb = 0
        hello = json.loads(self.proc.stdout.readline())
        if not Path(hello["module"]).resolve().is_relative_to(SRC.resolve()):
            self.close()
            raise RuntimeError(f"runner imported steklov_ball from {hello['module']}, not {SRC}")

    def call(self, op: dict) -> dict:
        self.proc.stdin.write(json.dumps({"function": op["function"], "args": op["args"]}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.maxrss_kb = spawn_report(self.proc, self.report)["maxrss_kb"]


def replay_command(workload: str, seed: int, op: dict) -> str:
    if "argv" in op:
        return "PYTHONPATH=src python3 -m steklov_ball.cli " + " ".join(op["argv"])
    return f"python3 bench/run.py --workload {workload} --seed {seed} --op {op['index']}"


def check_op(workload: str, op: dict, outcome: dict, schemas: dict, seed: int) -> dict:
    if workload == "sweep":
        return checks.check_sweep(op, outcome["exit_code"], outcome["stdout"], outcome["stderr"], schemas, seed)
    if workload == "verify":
        return checks.check_verify(op, outcome["exit_code"], outcome["stdout"], outcome["stderr"], schemas)
    return checks.check_call(op, outcome, schemas, seed)


def record(workload: str, seed: int, op: dict, outcome: dict, verdict: dict) -> dict:
    inputs = {k: v for k, v in op.items() if k not in ("index", "round")}
    return {
        "index": op["index"], "round": op["round"], "seed": seed, "inputs": inputs,
        "wall_s": outcome["wall_s"], "cpu_s": outcome["cpu_s"], "maxrss_kb": outcome["maxrss_kb"],
        "exit_code": outcome.get("exit_code"), "error": outcome.get("error"),
        "bytes_out": outcome.get("bytes_out", 0), "rows": verdict["rows"], "ok": verdict["ok"],
        "silent": verdict["silent"], "reason": verdict["reason"],
        "max_err": max(verdict["errors"], default=None), "replay": replay_command(workload, seed, op),
    }


def run_rounds(rounds, workload: str, seed: int, seconds: float, execute, schemas: dict,
               setup: list[float] | None = None):
    """Whole rounds, as many as come closest to `seconds` of op time (at
    least one).  Each round's ops are checked after the round, so checking
    is not counted and does not run between two timed ops.  Given a
    `setup` list, it also collects SETUP_RUNS set-up times into it, one
    between two ops every `seconds / SETUP_RUNS` of op time."""
    records, errors = [], []
    busy, done = 0.0, 0
    for ops in rounds:
        outcomes = []
        for op in ops:
            start = time.perf_counter()
            outcomes.append(execute(op))
            busy += time.perf_counter() - start
            if setup is not None and len(setup) < SETUP_RUNS and busy >= len(setup) * seconds / SETUP_RUNS:
                setup += _interpreter_times(SETUP_CODE, 1)
        for op, outcome in zip(ops, outcomes):
            verdict = check_op(workload, op, outcome, schemas, seed)
            errors += verdict["errors"]
            records.append(record(workload, seed, op, outcome, verdict))
        done += 1
        if busy + 0.5 * busy / done >= seconds:
            break
    if setup is not None:
        setup += _interpreter_times(SETUP_CODE, SETUP_RUNS - len(setup))
    return records, errors


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def tail_percentile(n: int) -> float:
    """The highest percentile with at least TAIL_BEYOND samples beyond
    it, never below the median."""
    return max(50.0, 100.0 * (1.0 - TAIL_BEYOND / n)) if n else 50.0


def end_to_end(workload: str, records: list[dict], errors: list[float], setup: list[float],
               peak_rss_kb: int) -> dict:
    good = [r for r in records if r["ok"]] or records
    walls = [r["wall_s"] for r in good]
    tail_p = tail_percentile(len(walls))
    failed = sum(not r["ok"] for r in records)
    values = {
        "wall_s.p50": (statistics.median(walls), len(walls)),
        "wall_s.tail": (float(np.percentile(walls, tail_p)), len(walls)),
        "cpu_s.p50": (statistics.median(r["cpu_s"] for r in good), len(good)),
        "rows_per_s": (sum(r["rows"] for r in good) / sum(walls), len(good)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (peak_rss_kb / 1024.0, len(records)),
        "fail_ratio": (max(failed / len(records), FAIL_RESOLUTION), len(records)),
        "max_rel_err": (max(errors + [ERROR_RESOLUTION[workload]]), len(errors)),
    }
    out = {name: {"value": v, "unit": END_TO_END_UNITS[name], "samples": n} for name, (v, n) in values.items()}
    out["wall_s.tail"]["percentile"] = tail_p
    return out


def per_layer(tr: Tracer, n_ops: int, overhead: float, bytes_out: float) -> dict:
    stats, merged = tr.stats, tr.merged
    n = max(n_ops, 1)

    def calls(name):
        return stats[name].calls / n if name in stats else 0.0

    def self_s(name):
        return stats[name].self / n if name in stats else 0.0

    def module_self(prefix, exclude=()):
        return sum(s.self for k, s in stats.items() if k.startswith(prefix) and k not in exclude) / n

    m: dict[str, tuple[float, str]] = {}
    bessel = "specfun.sph_bessel_j_all"
    m[f"{bessel}.calls"] = (calls(bessel), "count")
    m[f"{bessel}.self_s"] = (self_s(bessel), "s")
    m[f"{bessel}.mean_order"] = (merged.bessel_order_sum / stats[bessel].calls if bessel in stats else 0.0, "1")
    for arg_class in ("real_ge_l", "real_lt_l", "imag"):
        m[f"{bessel}.self_s.{arg_class}"] = (merged.bessel_self.get(arg_class, 0.0) / n, "s")
    for name in ("specfun.assoc_legendre_tower", "specfun.gauss_legendre", "spectrum.lambda1", "spectrum.lambda2"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    lam_calls = sum(stats[k].calls for k in ("spectrum.lambda1", "spectrum.lambda2") if k in stats)
    lam_res = sum(stats[k].errors.get("DirichletResonance", 0) for k in ("spectrum.lambda1", "spectrum.lambda2")
                  if k in stats)
    m["spectrum.res_share"] = (lam_res / lam_calls if lam_calls else 0.0, "1")
    for name in ("steklov_mode", "residual_system", "verify_weak_identity", "zero_in_spectrum"):
        m[f"spectrum.{name}.self_s"] = (self_s(f"spectrum.{name}"), "s")
    for name in ("bessel_zeros", "neumann_zeros", "magnetic_zeros", "family1_resonances", "exclusion_check"):
        m[f"resonances.{name}.calls"] = (calls(f"resonances.{name}"), "count")
        m[f"resonances.{name}.self_s"] = (self_s(f"resonances.{name}"), "s")
    m["resonances.evals_per_root"] = (merged.resonance_evals / max(merged.roots_returned, 1), "1")
    m["resonances.scan_exhausted"] = (merged.scan_exhausted / n, "count")
    m["radial.radial_profiles.self_s"] = (self_s("radial.radial_profiles"), "s")
    m["radial.RadialFunction.call.calls"] = (calls("radial.RadialFunction.call"), "count")
    m["radial.RadialFunction.call.self_s"] = (self_s("radial.RadialFunction.call"), "s")
    m["harmonics.vector_A.calls"] = (calls("harmonics.vector_A"), "count")
    m["harmonics.vector_A.self_s"] = (self_s("harmonics.vector_A"), "s")
    m["harmonics.other.self_s"] = (module_self("harmonics.", exclude=("harmonics.vector_A",)), "s")
    m["fd.self_s"] = (module_self("fd."), "s")
    m["classical.self_s"] = (module_self("classical."), "s")
    for suite in gen.VERIFY_SUITES:
        name = f"verify.suite.{suite}"
        m[f"{name}.s"] = (stats[name].total / n if name in stats else 0.0, "s")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    m["cli.bytes_out"] = (bytes_out, "B")
    m["trace.overhead_s"] = (overhead, "s")
    return {name: {"value": v, "unit": unit, "samples": n_ops} for name, (v, unit) in m.items()}


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def timed_run(workload: str, seed: int, seconds: float, schemas: dict):
    setup: list[float] = []
    rounds = gen.rounds(workload, seed)
    if workload == "roots":
        runner = RootsRunner()
        try:
            records, errors = run_rounds(rounds, workload, seed, seconds, runner.call, schemas, setup)
        finally:
            runner.close()
        peak = runner.maxrss_kb
    else:
        records, errors = run_rounds(rounds, workload, seed, seconds, lambda op: run_cli(op["argv"]), schemas,
                                     setup)
        good = [r["maxrss_kb"] for r in records if r["ok"]]
        peak = max(good) if good else 0
    return records, end_to_end(workload, records, errors, setup, peak), {}


def import_program():
    sys.path.insert(0, str(SRC))
    import steklov_ball
    import steklov_ball.cli

    if not Path(steklov_ball.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported steklov_ball from {steklov_ball.__file__}, not {SRC}")
    return steklov_ball


def traced_run(workload: str, seed: int, seconds: float, schemas: dict):
    """Whole rounds in-process, each op once traced and once untraced, for
    the tracing overhead.  The two runs of an op are back to back, in turns
    of which goes first, because an op run in-process slows down as the
    process ages; the traced run's outcome is the one checked."""
    package = import_program()

    def execute(op):
        if workload == "roots":
            return timed_call(getattr(package, op["function"]), op["args"])
        return run_cli_in_process(package.cli, op["argv"])

    tr = Tracer()
    untraced_s = []

    def traced(op):
        tr.install()
        try:
            with tr.op(op["index"]):
                return execute(op)
        finally:
            tr.uninstall()

    def paired(op):
        if op["index"] % 2:
            outcome = traced(op)
            untraced_s.append(execute(op)["wall_s"])
            return outcome
        untraced_s.append(execute(op)["wall_s"])
        return traced(op)

    records, _ = run_rounds(gen.rounds(workload, seed), workload, seed, seconds, paired, schemas)
    overhead = statistics.mean(r["wall_s"] - u for r, u in zip(records, untraced_s))
    bytes_out = float(statistics.mean(r["bytes_out"] for r in records)) if workload != "roots" else 0.0
    trace = {
        "missing": tr.missing,
        "spans": tr.spans,
        "by_parent": [{"parent": p, "name": n, "calls": s.calls, "total_s": s.total, "self_s": s.self}
                      for (p, n), s in sorted(tr.merged.by_parent.items())],
    }
    return records, per_layer(tr, len(records), overhead, bytes_out), trace


def replay(workload: str, seed: int, index: int, schemas: dict) -> int:
    op = gen.op_by_index(workload, seed, index)
    if workload == "roots":
        runner = RootsRunner()
        try:
            outcome = runner.call(op)
        finally:
            runner.close()
    else:
        outcome = run_cli(op["argv"])
    print(json.dumps(record(workload, seed, op, outcome, check_op(workload, op, outcome, schemas, seed)), indent=2))
    return 0


def defects(workload: str, seed: int, schemas: dict) -> int:
    """Run the workload's known-defect inputs (gen.KNOWN_DEFECTS) once each,
    through the same checks as the timed ops, and say which still fail."""
    ops = gen.known_defects(workload)
    if workload == "roots":
        runner = RootsRunner()
        try:
            records, _ = run_rounds(iter([ops]), workload, seed, 0.0, runner.call, schemas)
        finally:
            runner.close()
    else:
        records, _ = run_rounds(iter([ops]), workload, seed, 0.0, lambda op: run_cli(op["argv"]), schemas)
    for r in records:
        state = "passes now" if r["ok"] else "still fails" + (" silently" if r["silent"] else "")
        print(f"defect {r['index']}: {state}: {r['reason']}\n  inputs: {json.dumps(r['inputs'])}")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-defects.json").write_text(json.dumps(records, indent=1))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--op", type=int, default=None, help="replay one op of this seed and print its record")
    parser.add_argument("--defects", action="store_true", help="run the known-defect inputs instead of a workload")
    args = parser.parse_args(argv)
    if not (SRC / "steklov_ball" / "__init__.py").is_file():
        print(f"error: no steklov_ball package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    schemas = checks.load_schemas(ROOT)
    if args.op is not None:
        return replay(args.workload, args.seed, args.op, schemas)
    if args.defects:
        return defects(args.workload, args.seed, schemas)

    prov = provenance()
    run = traced_run if args.trace else timed_run
    records, metrics, trace = run(args.workload, args.seed, args.seconds, schemas)
    prov["loadavg_end"] = (_read("/proc/loadavg") or "").strip() or None
    failed = [r for r in records if not r["ok"]]
    result = {
        "correct": not any(r["silent"] for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": prov, "result": result, "metrics": metrics, "ops": records, "trace_data": trace,
    }, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(records)} ops, {len(failed)} failed; "
          f"records in {out_path.relative_to(ROOT)}")
    if trace.get("missing"):
        print(f"# public names not found, read as 0: {', '.join(trace['missing'])}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:<24.10g} {m['unit']:6s} n={m['samples']}")
    for r in failed:
        print(f"FAILED op {r['index']}: {r['reason']}\n  inputs: {json.dumps(r['inputs'])}\n  replay: {r['replay']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
