"""Seeded inputs for the three workloads.

Each workload is an endless sequence of rounds.  A round is a balanced
set of op classes in a seeded order.  Each op's free parameters (degree
block, k^2 window, count, theta) fall in strata that rotate with the
round index, and the seed draws the values inside each stratum.  Fixing
the mix per round and measuring whole rounds keeps the medians the same
from seed to seed, while the inputs themselves change.  The same
(workload, seed) always gives the same ops.
"""

from __future__ import annotations

import math
import random
from itertools import count

import checks

WORKLOADS = ("sweep", "roots", "verify")

SWEEP_DEGREES = 10
SWEEP_SAMPLES = 2001
# (family, theta, format, threads) of the figure-range ops (|k^2| <= 1e4,
# degrees <= 40); a round holds each class FIGURE_COPIES times.
SWEEP_FIGURE_CLASSES = (
    (1, 1.0, "csv", 1),
    (1, 0.5, "csv", 2),
    (1, 2.0, "json", 1),
    (2, 1.0, "csv", 2),
    (1, 1.0, "csv", 2),
)
FIGURE_COPIES = 2
# Outer-domain ops, a stated minority of every round: one with its lowest
# degree in 41..60 and one in 162..181 (so up to degree 190), each with a
# k^2 window from 1e3..1e4 up to 1e5..1e6, all real arguments.  Their cost
# grows with the degree, so each copy keeps its narrow degree stratum and
# the sum of their costs, which moves rows_per_s, does not follow the seed.
# The rest of the accepted domain's edges (k^2 below about -1e5, |k^2|
# near 1e-300, degree 200) hold known defects, so ops there fail at the
# seed commit; they live in KNOWN_DEFECTS, not in the timed mix.
OUTER_L_LO = ((41, 60), (162, 181))  # per copy
OUTER_K2_LO = (1e3, 1e4)
OUTER_K2_HI = (1e5, 1e6)
# Window kind, window decade and lowest degree of the figure ops, paired
# with the classes and copies by rotations that depend on the round index
# only, so that every run of the same number of rounds holds the same
# pairings.
WINDOW_KINDS = ("straddle", "positive", "straddle", "negative", "straddle")
DEGREE_BLOCKS = ((1, 7), (8, 13), (14, 19), (20, 25), (26, 31))

ROOT_FUNCTIONS = (
    "bessel_zeros",
    "neumann_zeros",
    "magnetic_zeros",
    "family1_resonances",
    "exclusion_check",
    "zero_in_spectrum",
)
# Each call's stratum of degree and of count, theta or k^2 follows a
# rotation over the round index, so that every run holds the same mix.
# Degrees stop at 12: from 13 up the scan window of the seed commit runs
# out (ScanExhausted), so those calls are in KNOWN_DEFECTS instead.
DEGREE_STRATA = ((1, 3), (4, 6), (7, 9), (10, 12))
COUNT_STRATA = ((1, 3), (4, 10), (11, 30), (31, 100))  # 100 is the library's own bound
F1_THETA_STRATA = ((0.01, 0.04), (0.04, 0.2), (0.2, 1.0), (1.0, 4.0))
CHECK_THETA_STRATA = ((0.25, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 4.0))
K2_STRATA = ((1.0, 10.0), (10.0, 60.0), (60.0, 200.0), (200.0, 600.0))
# Planted hits: at these levels a zero_in_spectrum call gets k^2 on a root
# of this kind, so 0 is in the spectrum; at EXCLUSION_HIT_LEVEL an
# exclusion_check call gets k^2 on a resonance square (a zero of j_l on
# even rounds, a family-1 root on odd ones), so k^2 is not clear.
SPECTRUM_HITS = {1: "neumann", 2: "magnetic"}
EXCLUSION_HIT_LEVEL = 2
EXCLUSION_HIT_KINDS = ("bessel", "family1")

VERIFY_SUITES = (
    "spot-values",
    "form-equivalence",
    "asymptotics",
    "eigen-residuals",
    "weak-identity",
    "divergence",
    "resonances",
    "zero-spectrum",
    "harmonics",
    "classical",
)


def _sig(x: float, digits: int = 4) -> float:
    return float(f"{x:.{digits}g}")


class _Spread:
    """Low-discrepancy draws per key: the n-th draw of a key is
    frac(offset + n * golden ratio), with a seeded offset.  Over the rounds
    of one run each key's draws cover [0, 1) evenly, whatever the seed."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.state: dict[tuple, tuple[float, int]] = {}

    def __call__(self, *key) -> float:
        offset, n = self.state.get(key) or (self.rng.random(), 0)
        self.state[key] = (offset, n + 1)
        return (offset + n * 0.6180339887498949) % 1.0


def _pick(u: float, lo: int, hi: int) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _log_pick(u: float, lo: float, hi: float) -> float:
    return _sig(lo * (hi / lo) ** u, 6)


def _figure_window(draw, kind: str, level: int) -> tuple[float, float]:
    """A k^2 window of one kind; `level` 0, 1 or 2 puts its far end in
    10..30, 100..300 or 1000..3000.  `draw(what)` gives a number in [0, 1)."""
    far = _sig(10.0 ** (1 + level) * 3.0 ** draw("far"))
    if kind == "straddle":
        return -_sig(far ** draw("near")), far
    near = _sig(0.01 * 100.0 ** draw("near"))
    return (near, far) if kind == "positive" else (-far, -near)


def _sweep_argv(family: int, theta: float, fmt: str, threads: int, l_lo: int, window) -> list[str]:
    k2_lo, k2_hi = window
    return [
        "sweep",
        "--family", str(family),
        "--l", f"{l_lo}:{l_lo + SWEEP_DEGREES - 1}",
        f"--k2={k2_lo!r}:{k2_hi!r}",
        "--samples", str(SWEEP_SAMPLES),
        "--theta", repr(theta),
        "--threads", str(threads),
        "--format", fmt,
    ]


def _sweep_round(rng: random.Random, spread: _Spread, round_index: int) -> list[dict]:
    ops = []
    n = len(SWEEP_FIGURE_CLASSES)
    for copy in range(FIGURE_COPIES):
        for i, (family, theta, fmt, threads) in enumerate(SWEEP_FIGURE_CLASSES):
            kind = WINDOW_KINDS[(i + copy + round_index) % n]
            l_lo = _pick(spread("l_lo"), *DEGREE_BLOCKS[(i + 2 * copy + 3 * round_index) % n])
            window = _figure_window(lambda what: spread(kind, what), kind, (i + copy) % 3)
            argv = _sweep_argv(family, theta, fmt, threads, l_lo, window)
            ops.append({"kind": "sweep", "edge": None, "argv": argv})
    for copy, l_range in enumerate(OUTER_L_LO):
        family, theta, fmt, threads = SWEEP_FIGURE_CLASSES[(len(OUTER_L_LO) * round_index + copy) % n]
        l_lo = _pick(spread("outer", copy, "l_lo"), *l_range)
        window = (_log_pick(spread("outer", "k2_lo"), *OUTER_K2_LO),
                  _log_pick(spread("outer", "k2_hi"), *OUTER_K2_HI))
        argv = _sweep_argv(family, theta, fmt, threads, l_lo, window)
        ops.append({"kind": "sweep", "edge": "outer", "argv": argv})
    rng.shuffle(ops)
    return ops


def _planted(kind: str, theta: float, l_max: int, x_min: float, u: float) -> tuple[float, dict]:
    """(k^2, expected hit) for k^2 on the first root at or above x_min of
    `kind` (see checks.root_at_or_above), for a degree drawn by u from
    1..l_max; a neumann root is squared and scaled by theta, any other is
    squared."""
    l = _pick(u, 1, max(1, min(l_max, int(x_min) - 1)))
    root = checks.root_at_or_above(kind, l, theta, x_min)
    return float(theta * root**2 if kind == "neumann" else root**2), {"kind": kind, "l": l}


def _roots_call(spread: _Spread, function: str, stratum: int, level: int, round_index: int) -> dict:
    """One root-API call: degree stratum `stratum` (0..3), and `level`
    (0..3) picks the count, theta or k^2 stratum.  A planted hit carries
    what it must find under `expect`."""
    def u(what):
        return spread(function, stratum, level, what)

    op = {"kind": "call", "function": function}
    l = _pick(u("l"), *DEGREE_STRATA[stratum])
    if function in ("bessel_zeros", "neumann_zeros", "magnetic_zeros"):
        return dict(op, args=[l, _pick(u("count"), *COUNT_STRATA[level])])
    if function == "family1_resonances":
        theta = _log_pick(u("theta"), *F1_THETA_STRATA[level])
        return dict(op, args=[l, theta, _pick(u("count"), *COUNT_STRATA[(level + 1) % 4])])
    theta = _log_pick(u("theta"), *CHECK_THETA_STRATA[(level + 2) % 4])
    if function == "exclusion_check":
        # |k^2| <= 400: the check's cost grows fast with k^2.
        k2 = _sig(_log_pick(u("k2"), *K2_STRATA[level]) * 400.0 / 600.0, 6) * (-1.0 if level % 2 else 1.0)
        if level == EXCLUSION_HIT_LEVEL:
            # l_max is the planted degree: with a larger l_max the seed
            # commit scans family-1 roots of low degree too coarsely and
            # can miss the planted one (see KNOWN_DEFECTS).
            kind = EXCLUSION_HIT_KINDS[round_index % 2]
            k2, expect = _planted(kind, theta, l, math.sqrt(k2), u("hit"))
            return dict(op, args=[k2, theta, expect["l"]], expect=expect)
        return dict(op, args=[k2, theta, l])
    k2 = _log_pick(u("k2"), *K2_STRATA[level])
    if level in SPECTRUM_HITS:
        kind = SPECTRUM_HITS[level]
        k2, expect = _planted(kind, theta, l, math.sqrt(k2 / theta if kind == "neumann" else k2), u("hit"))
        return dict(op, args=[k2, theta, l], expect=expect)
    return dict(op, args=[k2, theta, l])


def _roots_round(rng: random.Random, spread: _Spread, round_index: int) -> list[dict]:
    ops = []
    for f, function in enumerate(ROOT_FUNCTIONS):
        for stratum in range(len(DEGREE_STRATA)):
            level = (stratum + f + round_index) % 4
            ops.append(_roots_call(spread, function, stratum, level, round_index))
    rng.shuffle(ops)
    return ops


def _verify_round(rng: random.Random, spread: _Spread, round_index: int) -> list[dict]:
    suites = list(VERIFY_SUITES)
    rng.shuffle(suites)
    argv = ["verify", "--format", "json"]
    for name in suites:
        argv += ["--suite", name]
    return [{"kind": "verify", "argv": argv}]


# Inputs inside the accepted domain on which the seed commit fails, kept
# out of the timed workloads so that every timed op succeeds and a fix
# does not change the timed mix.  `run.py --defects` runs them through the
# same checks and reports which still fail.
KNOWN_DEFECTS = {
    "sweep": [
        # |Im k| = 964 > 700: OverflowError traceback.
        _sweep_argv(1, 0.5, "json", 1, 10, (-929400.0, 977100.0)),
        # i_l products overflow at k^2 = -4.8e5 and print NaN as OK.
        _sweep_argv(2, 1.0, "csv", 1, 20, (-480000.0, -1000.0)),
        # |k^2| = 1e-300: NaN printed as OK.
        _sweep_argv(1, 1.0, "csv", 2, 5, (1e-300, 1e-292)),
        # Degree 200 needs order 201 and is refused.
        _sweep_argv(2, 1.0, "csv", 1, 191, (1e4, 4e4)),
        # j_191 underflows near k^2 = 0 and the sweep exits 2.
        _sweep_argv(2, 0.5, "csv", 2, 191, (-5.095, 15.93)),
    ],
    "roots": [
        # Degrees from 13 up: the scan window runs out (ScanExhausted).
        {"function": "bessel_zeros", "args": [15, 10]},
        {"function": "neumann_zeros", "args": [15, 50]},
        {"function": "magnetic_zeros", "args": [15, 26]},
        {"function": "family1_resonances", "args": [20, 1.0, 1]},
        {"function": "zero_in_spectrum", "args": [125.19338030968427, 0.263108, 30]},
        # k^2 on the family-1 resonance square of l = 1; with l_max = 5 the
        # scan step is too coarse for l = 1 and the call answers clear.
        {"function": "exclusion_check", "args": [154.5374829241101, 0.447459, 5],
         "expect": {"kind": "family1", "l": 1}},
    ],
    "verify": [],
}


def known_defects(workload: str) -> list[dict]:
    """The KNOWN_DEFECTS inputs of a workload as ops."""
    ops = []
    for index, item in enumerate(KNOWN_DEFECTS[workload]):
        if workload == "roots":
            op = dict(item, kind="call")
        else:
            op = {"kind": "sweep", "edge": None, "argv": item}
        ops.append(dict(op, index=index, round=0))
    return ops


_ROUNDS = {"sweep": _sweep_round, "roots": _roots_round, "verify": _verify_round}


def rounds(workload: str, seed: int):
    """Endless rounds of ops; each op carries its global index and round."""
    rng = random.Random(f"steklov-ball/{workload}/{seed}")
    spread = _Spread(rng)
    make = _ROUNDS[workload]
    index = 0
    for round_index in count():
        ops = make(rng, spread, round_index)
        for op in ops:
            op["index"] = index
            op["round"] = round_index
            index += 1
        yield ops


def op_by_index(workload: str, seed: int, index: int) -> dict:
    """The op with a given index, regenerated from the seed (for replay)."""
    for ops in rounds(workload, seed):
        for op in ops:
            if op["index"] == index:
                return op
