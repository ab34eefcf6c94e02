"""Long-lived child of the roots workload.

It imports steklov_ball once, before any timing, then reads one JSON
call per line from stdin, times the call to the public root API and
writes one JSON reply per line.  The timed region is the call alone:
reading, parsing and serializing stay outside it.

    PYTHONPATH=src python3 bench/roots_runner.py < calls.jsonl
"""

from __future__ import annotations

import json
import resource
import sys
import time


def serialize(result):
    """JSON form of a root-API result; a RootList takes the shape of the
    `zeros` output schema."""
    if hasattr(result, "roots"):
        return {"kind": result.tag, "l": result.l, "theta": result.theta,
                "roots": list(result.roots), "residuals": list(result.residuals)}
    found, extra = result
    if isinstance(extra, list):  # zero_in_spectrum: (bool, witnesses)
        return [found, [[w.kind, w.l, w.root] for w in extra]]
    return [found, extra]  # exclusion_check: (clear, nearest square)


def timed_call(fn, args) -> dict:
    """Call fn(*args) and return the reply: times, result or error."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        result = fn(*args)
    except Exception as exc:  # every failure is reported, none stops the runner
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        typed = any(c.__name__ == "SteklovBallError" for c in type(exc).__mro__)
        reply = {"error": type(exc).__name__, "message": str(exc)[:300], "traceback": not typed}
    else:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        reply = {"result": serialize(result)}
    reply.update(wall_s=wall, cpu_s=cpu, maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return reply


def main() -> int:
    import steklov_ball

    print(json.dumps({"module": steklov_ball.__file__}), flush=True)
    for line in sys.stdin:
        call = json.loads(line)
        reply = timed_call(getattr(steklov_ball, call["function"]), call["args"])
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
