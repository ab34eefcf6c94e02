"""Spans around the calls into each steklov_ball module, recorded from
the benchmark's own files.

The tracer replaces, from outside the package, each public function of
every module (the names in its ``__all__``) and every module attribute
bound to the same object, which catches ``from .specfun import
sph_bessel_j_all`` in spectrum, radial and resonances.  It also wraps
the entries of ``verify.SUITES`` and ``RadialFunction.__call__`` /
``deriv``.  A name the metrics expect but the package no longer has is
listed in ``missing`` and read as zero; it does not stop the run.

Span stacks and counters are thread-local, because sweep evaluates cells
in pool threads; they are merged when the tracer is uninstalled.  A pool
thread's outermost span is a child of the main thread's innermost open
span.  Durations are thread CPU time, so a pool thread waiting for the
interpreter lock, or the main thread waiting for the pool, does not count
as busy; a span's self time is its duration minus its direct children's.
Spans of an op and of its direct children are kept one by one, with wall
clock start and end; deeper spans, which include every hot leaf, are
aggregated per parent as count, total and self time.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from collections import defaultdict

MODULES = ("specfun", "spectrum", "radial", "resonances", "harmonics", "fd", "classical", "verify", "cli")

# Names the per-layer metrics read.
EXPECTED = (
    "specfun.sph_bessel_j_all",
    "specfun.assoc_legendre_tower",
    "specfun.gauss_legendre",
    "spectrum.lambda1",
    "spectrum.lambda2",
    "spectrum.steklov_mode",
    "spectrum.residual_system",
    "spectrum.verify_weak_identity",
    "spectrum.zero_in_spectrum",
    "resonances.bessel_zeros",
    "resonances.neumann_zeros",
    "resonances.magnetic_zeros",
    "resonances.family1_resonances",
    "resonances.exclusion_check",
    "radial.radial_profiles",
    "radial.RadialFunction.call",
    "radial.RadialFunction.deriv",
    "harmonics.vector_A",
    "verify.SUITES",
    "cli.main",
)
ROOT_LISTS = {f"resonances.{n}" for n in ("bessel_zeros", "neumann_zeros", "magnetic_zeros", "family1_resonances")}
RESONANCE_SPANS = ROOT_LISTS | {"resonances.exclusion_check"}
BESSEL = "specfun.sph_bessel_j_all"


def bessel_class(l, z) -> str:
    """Argument class of a sph_bessel_j_all call, from the argument alone."""
    z = complex(z)
    if z.imag != 0.0:
        return "imag"
    return "real_ge_l" if abs(z.real) >= l else "real_lt_l"


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child = 0.0


class Stat:
    __slots__ = ("calls", "total", "self", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.errors: dict[str, int] = defaultdict(int)

    def merge(self, other: "Stat") -> None:
        self.calls += other.calls
        self.total += other.total
        self.self += other.self
        for kind, n in other.errors.items():
            self.errors[kind] += n


class _ThreadState:
    """What one thread records; only that thread writes to it."""

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.by_parent: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self.bessel_order_sum = 0
        self.bessel_self: dict[str, float] = defaultdict(float)
        self.resonance_depth = 0
        self.resonance_evals = 0
        self.roots_returned = 0
        self.scan_exhausted = 0


class Tracer:
    def __init__(self) -> None:
        # Every thread's records merged, filled by uninstall(); stats is
        # by_parent summed over parents.
        self.merged = _ThreadState()
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.wrapped: set[str] = set()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._op = None
        self._main_state: _ThreadState | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._suites: dict | None = None

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("steklov_ball")
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(f"steklov_ball.{name}")
            except ModuleNotFoundError:
                continue  # its names show up in `missing`
        wrappers: dict[int, object] = {}
        for short, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for owner in (package, *modules.values()):
            for attr, value in list(vars(owner).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patch(owner, attr, wrappers[id(value)])
        radial_function = getattr(modules.get("radial"), "RadialFunction", None)
        for method, name in (("__call__", "call"), ("deriv", "deriv")):
            fn = getattr(radial_function, method, None) if radial_function else None
            if inspect.isfunction(fn):
                self._patch(radial_function, method, self._wrap(f"radial.RadialFunction.{name}", fn))
        suites = getattr(modules.get("verify"), "SUITES", None)
        if isinstance(suites, dict):
            for suite, fn in list(suites.items()):
                suites[suite] = self._wrap(f"verify.suite.{suite}", fn)
            self._suites = suites
            self.wrapped.add("verify.SUITES")
        self.missing = [name for name in EXPECTED if name not in self.wrapped]

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._suites is not None:
            for suite, fn in list(self._suites.items()):
                self._suites[suite] = fn.__wrapped__
            self._suites = None
        self._merge()

    def _merge(self) -> None:
        merged = self.merged
        for state in self._states:
            for (parent, name), stat in state.by_parent.items():
                merged.by_parent[(parent, name)].merge(stat)
                self.stats[name].merge(stat)
            merged.bessel_order_sum += state.bessel_order_sum
            for arg_class, t in state.bessel_self.items():
                merged.bessel_self[arg_class] += t
            merged.resonance_evals += state.resonance_evals
            merged.roots_returned += state.roots_returned
            merged.scan_exhausted += state.scan_exhausted
        self._states.clear()
        self._local = threading.local()  # a later install() starts fresh states

    # -- spans ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def op(self, index: int) -> "_OpSpan":
        return _OpSpan(self, index)

    def _main_parent(self) -> str:
        main = self._main_state
        return main.stack[-1].name if main and main.stack else "-"

    def _wrap(self, name: str, fn):
        self.wrapped.add(name)
        tracer = self
        is_bessel = name == BESSEL
        is_resonance = name in RESONANCE_SPANS
        is_root_list = name in ROOT_LISTS
        clock = time.thread_time

        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent = stack[-1].name if stack else tracer._main_parent()
            keep = len(stack) <= 1 and tracer._op is not None and threading.current_thread() is tracer._main
            wall_start = time.perf_counter() if keep else 0.0
            if is_resonance:
                state.resonance_depth += 1
            frame = _Frame(name, clock())
            stack.append(frame)
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                duration = clock() - frame.start
                stack.pop()
                self_time = duration - frame.child
                if stack:
                    stack[-1].child += duration
                stat = state.by_parent[(parent, name)]
                stat.calls += 1
                stat.total += duration
                stat.self += self_time
                if is_resonance:
                    state.resonance_depth -= 1
                if is_bessel:
                    l, z = (args + tuple(kwargs.values()))[:2]
                    state.bessel_order_sum += l
                    state.bessel_self[bessel_class(l, z)] += self_time
                    if state.resonance_depth:
                        state.resonance_evals += 1
                if error is not None:
                    kind = type(error).__name__
                    stat.errors[kind] += 1
                    if is_resonance and kind == "ScanExhausted" and not getattr(error, "_bench_counted", False):
                        state.scan_exhausted += 1
                        error._bench_counted = True
                elif is_root_list:
                    state.roots_returned += len(result.roots)
                if keep:
                    tracer.spans.append({"op": tracer._op, "name": name, "parent": parent, "start": wall_start,
                                         "end": time.perf_counter(), "self_cpu": self_time})
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper


class _OpSpan:
    """The root span of one op; every wrapped call inside it belongs to it."""

    def __init__(self, tracer: Tracer, index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        tracer = self.tracer
        tracer._main_state = tracer._state()
        tracer._op = self.index
        self.start = time.perf_counter()
        self.frame = _Frame("op", time.thread_time())
        tracer._main_state.stack.append(self.frame)
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer._main_state.stack.pop()
        tracer.spans.append({"op": self.index, "name": "op", "parent": None, "start": self.start,
                             "end": time.perf_counter(),
                             "self_cpu": time.thread_time() - self.frame.start - self.frame.child})
        tracer._op = None
        return False
