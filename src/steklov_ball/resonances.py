"""Root finding for the resonance sets of the ball Steklov problem.

Four families of positive roots matter:

* zeros of j_l           -- poles of the family-2 eigenvalue,
* zeros of j_l'          -- zeros of the family-1 numerator,
* zeros of j_l + x j_l'  -- zeros of the family-2 eigenvalue,
* zeros of the family-1 denominator D(k) -- its poles.

The squared roots of the first and last sets are Dirichlet eigenvalues
of the interior operator, where the Steklov eigenvalue formulas break
down (`exclusion_check`); the middle two certify 0 as a Steklov
eigenvalue (`zero_in_spectrum`).

Everything goes through one scan-and-bisect loop, `_scan`, over a
window (lo, hi] whose ends are proven (DLMF 10.21):

* lo is a lower bound for the first positive root: l for j_l, since
  j_{l+1/2,1} > l + 1/2; sqrt(l(l+1)) for j_l' and for (x j_l)' =
  j_l + x j_l', since neither j_l nor x j_l can have a maximum before
  its turning point; (l-1) min(1, sqrt(theta)) for D.  Below its first
  root j_l may underflow to 0.0, so starting there also keeps
  underflow from passing as a root.
* hi, for the first `count` roots, is (count + l + 1) pi + 20: by
  interlacing j_{l+1/2,k} < j_{1/2,k+l} = (k+l) pi, the k-th zeros of
  j_l' and of j_l + x j_l' lie below the k-th zero of j_l, and the
  roots of D tend to zeros of j_{l-1} and j_{l+1}.  ScanExhausted
  stays as the guard.

A scan step of pi/8 cannot jump over two consecutive zeros of the
single-Bessel functions (their spacing exceeds pi/2 beyond the turning
point).  D mixes periods pi and pi sqrt(theta) in k, and its roots pair
up with a gap near (2l+1)/k (below pi/8 from k = 9 at l = 1, theta =
1), so its step at scan point k is min(pi/8, pi sqrt(theta)/8,
(2l+1)/(2k)) and no pair can hide in one bracket.  Bisection needs no
derivatives.  Only simple zeros are found; an even-order zero would be
invisible to sign changes, but the targeted functions have none.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import _K2_MAX, _L_MAX, DomainError, InvalidMode, ScanExhausted, _integer, _k2_within, _positive, _real
from .specfun import _j_pair

__all__ = [
    "RootList",
    "bessel_zeros",
    "neumann_zeros",
    "magnetic_zeros",
    "family1_resonances",
    "exclusion_check",
    "SpectrumWitness",
    "zero_in_spectrum",
]

_STEP = math.pi / 8.0


@dataclass(frozen=True)
class RootList:
    """Sorted positive roots of one tagged function, with the residual
    |f(root)| recorded for each root.  Each lies more than 1e-6 (relative
    below 1, as small-theta family-1 roots do) above the one before or 0."""

    tag: str
    l: int
    theta: float | None
    roots: tuple[float, ...]
    residuals: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.roots) != len(self.residuals):
            raise DomainError("roots and residuals must have equal length")
        previous = 0.0
        for root in self.roots:
            if not (root > previous):
                raise DomainError("roots must be positive and strictly increasing")
            if root - previous <= 1e-6 * min(1.0, root):
                raise DomainError(f"roots {previous} and {root} are too close")
            previous = root


def _bisect(f: Callable[[float], float], lo: float, hi: float, flo: float, fhi: float) -> tuple[float, float]:
    """Bisection of a bracketed sign change down to adjacent floats;
    returns the endpoint with the smaller |f|, and that |f|."""
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        fmid = f(mid)
        if fmid == 0.0:
            return mid, 0.0
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        mid = 0.5 * (lo + hi)
    return (lo, abs(flo)) if abs(flo) <= abs(fhi) else (hi, abs(fhi))


def _scan(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    count: int | None = None,
    step: float | Callable[[float], float] = _STEP,
    noise_floor: float = 0.0,
    keep: Callable[[float], bool] | None = None,
) -> tuple[list[float], list[float]]:
    """The first `count` roots of f in (lo, hi], or all of them when
    `count` is None, with their residuals |f(root)|.

    Sign-change scan from lo (from the first step when lo is 0, where
    the scanned functions are 0/0 or trivially zero), with a fixed step
    or a step given as a function of the scan point.  Brackets where
    both endpoint values are below `noise_floor` in magnitude are
    skipped (guards scaled functions whose leading order cancels as
    x -> 0).  Roots rejected by `keep` are discarded without counting.
    Raises ScanExhausted when fewer than `count` roots lie in the window.
    """
    advance = step if callable(step) else (lambda x: step)
    roots: list[float] = []
    residuals: list[float] = []
    a = lo if lo > 0.0 else advance(0.0)
    fa = f(a) if a < hi else 0.0
    while a < hi and (count is None or len(roots) < count):
        b = a + advance(a)
        fb = f(b)
        skip = noise_floor > 0.0 and abs(fa) < noise_floor and abs(fb) < noise_floor
        if not skip and (fa == 0.0 or (fa < 0.0) != (fb < 0.0)):
            root, residual = (a, 0.0) if fa == 0.0 else _bisect(f, a, b, fa, fb)
            if root <= hi and (keep is None or keep(root)):
                roots.append(root)
                residuals.append(residual)
        a, fa = b, fb
    if count is not None and len(roots) < count:
        raise ScanExhausted(f"found {len(roots)} of {count} roots below {hi:.3f}")
    return roots, residuals


def _jl_pair(l: int, x: float) -> tuple[float, float]:
    jl, jlp = _j_pair(l, complex(x))
    return jl.real, jlp.real


def _family1(
    l: int, theta: float
) -> tuple[Callable[[float], float], float, Callable[[float], float], Callable[[float], bool]]:
    """Scan arguments for the family-1 denominator

        D(k) = j_l(q) j_l(k) l(l+1) - j_l'(q) j_l'(k) k^2/sqrt(theta)
                                    - j_l'(q) j_l(k) k/sqrt(theta),

    q = k/sqrt(theta): the term-scaled form D/(|t1|+|t2|+|t3|), the
    lower bound of its first root, the local step and the filter that
    drops roots at zeros of j_l(k) itself, where the eigenfield
    combination is undefined (and the eigenvalue has a removable zero,
    not a pole).  The filter is the rule of `radial_profiles`: the
    relative Newton-step test |j_l(k)| >= 1e-12 |k j_l'(k)|, which keeps
    the poles below k = l where j_l(k) and k j_l'(k) are both tiny, and a
    normal j_l(k), without which D's terms are subnormal noise."""
    sq = math.sqrt(theta)
    big_l = l * (l + 1)
    cap = min(_STEP, _STEP * sq)

    def scaled_den(k: float) -> float:
        jk, jkp = _jl_pair(l, k)
        jq, jqp = (jk, jkp) if theta == 1.0 else _jl_pair(l, k / sq)
        t1 = jq * jk * big_l
        t2 = -jqp * jkp * k * k / sq
        t3 = -jqp * jk * k / sq
        scale = abs(t1) + abs(t2) + abs(t3)
        return (t1 + t2 + t3) / scale if scale else 0.0

    def step(k: float) -> float:
        return min(cap, (2 * l + 1) / (2.0 * k)) if k > 0.0 else cap

    def off_bessel_zero(k: float) -> bool:
        jk, jkp = _jl_pair(l, k)
        return abs(jk) >= max(sys.float_info.min, 1e-12 * abs(k * jkp))

    return scaled_den, (l - 1) * min(1.0, sq), step, off_bessel_zero


def _roots(
    kind: str, l: int, hi: float, count: int | None = None, theta: float = 1.0, above: float = 0.0
) -> tuple[list[float], list[float]]:
    """`_scan` of one tagged function over (max(lo, above), hi], lo the
    lower bound of its first positive root."""
    if kind == "family1":
        den, lo, step, keep = _family1(l, theta)
        return _scan(den, max(lo, above), hi, count, step=step, noise_floor=1e-9, keep=keep)
    if kind == "bessel":
        return _scan(lambda x: _jl_pair(l, x)[0], max(l, above), hi, count)
    turning = max(math.sqrt(l * (l + 1)), above)
    if kind == "neumann":
        return _scan(lambda x: _jl_pair(l, x)[1], turning, hi, count)

    def magnetic(x: float) -> float:
        jl, jlp = _jl_pair(l, x)
        return jl + x * jlp

    return _scan(magnetic, turning, hi, count)


def _check_query(k2: float, theta: float, l_max: int) -> tuple[float, float, int]:
    """The arguments of exclusion_check and zero_in_spectrum: an integer
    l_max in 0..200, a positive finite theta and a real k^2 with |k^2|
    and |k^2/theta| at most 1e10, the eigenvalue kernel's bound, tested
    by the same predicate (beyond about 1e31 a scan step would no longer
    advance the scan point)."""
    l_max = _integer(l_max, "l_max", 0, _L_MAX)
    theta = _positive(theta, "theta")
    number = _real(k2)
    if not _k2_within(number, theta):
        raise DomainError(f"k2 must be real with |k2| and |k2/theta| at most {_K2_MAX:g}, got {k2!r}")
    return number, theta, l_max


def _counted(kind: str, l: int, count: int, theta: float | None = None, l_min: int = 1) -> RootList:
    """The first `count` roots of one kind at degree l, after the degree
    in [l_min, 200], the count in [1, 100] and theta are checked."""
    l = _integer(l, "degree l", l_min, _L_MAX)
    count = _integer(count, "count", 1, 100, DomainError)
    if theta is not None:
        theta = _positive(theta, "theta")
    hi = (count + l + 1) * math.pi + 20.0
    roots, residuals = _roots(kind, l, hi, count, 1.0 if theta is None else theta)
    return RootList(kind, l, theta, tuple(roots), tuple(residuals))


def bessel_zeros(l: int, count: int) -> RootList:
    """First `count` positive zeros of j_l."""
    return _counted("bessel", l, count, l_min=0)


def neumann_zeros(l: int, count: int) -> RootList:
    """First `count` positive zeros of j_l'.  Their squares are Neumann
    eigenvalues of the ball Laplacian at this degree."""
    return _counted("neumann", l, count)


def magnetic_zeros(l: int, count: int) -> RootList:
    """First `count` positive zeros of x -> j_l(x) + x j_l'(x), the
    boundary combination whose vanishing makes the family-2 eigenvalue
    zero."""
    return _counted("magnetic", l, count)


def family1_resonances(l: int, theta: float, count: int) -> RootList:
    """First `count` positive zeros in k of the family-1 denominator D
    (see `_family1`), scanned on its term-scaled form.  The leading
    orders of the three terms cancel exactly as k -> 0, so brackets
    where the scaled value sits below 1e-9 at both ends are treated as
    noise, not sign changes.  Roots at which j_l(k) itself vanishes are
    deflated away.
    """
    return _counted("family1", l, count, theta)


def exclusion_check(k2: float, theta: float, l_max: int) -> tuple[bool, float]:
    """Whether k^2 stays clear of every resonance square (both families,
    degrees 1..l_max) by more than 1e-6; also returns the nearest
    resonance square.

    Roots are gathered only up to sqrt(max(k2, 0)) + pi + 1: any root
    beyond that ceiling has its square further from k2 than (pi + 1)^2,
    so it can neither spoil clearance nor beat a root below it; degrees
    whose first root provably exceeds the ceiling scan nothing.  Both
    vector families start at l = 1, so l_max = 0 means there is nothing
    to collide with and the result is (True, inf).
    """
    k2, theta, l_max = _check_query(k2, theta, l_max)
    if k2 == 0.0:
        raise InvalidMode("k2 must be nonzero")
    ceiling = math.sqrt(max(k2, 0.0)) + math.pi + 1.0
    squares = [
        root * root
        for l in range(1, l_max + 1)
        for kind in ("family1", "bessel")
        for root in _roots(kind, l, ceiling, theta=theta)[0]
    ]
    nearest = min(squares, key=lambda square: abs(k2 - square), default=math.inf)
    return abs(k2 - nearest) > 1e-6, nearest


@dataclass(frozen=True)
class SpectrumWitness:
    """Auxiliary eigenvalue certifying that 0 is a Steklov eigenvalue:
    kind 'neumann' means k^2 = theta * root^2 with j_l'(root) = 0,
    kind 'magnetic' means k^2 = root^2 with j_l(root) + root j_l'(root) = 0.
    """

    kind: str
    l: int
    root: float


def zero_in_spectrum(
    k2: float, theta: float, l_max: int
) -> tuple[bool, list[SpectrumWitness]]:
    """Whether 0 belongs to the Steklov spectrum at these parameters.

    This happens exactly when k^2 matches theta times a Neumann
    eigenvalue of the ball Laplacian (squared zero of j_l') or a
    magnetic-type eigenvalue (squared zero of j_l(x) + x j_l'(x)), for
    some degree l <= l_max.  Matching tolerance: 1e-8 on k^2.  For
    k^2 <= 0 the answer is False (both auxiliary spectra are positive).
    """
    k2, theta, l_max = _check_query(k2, theta, l_max)
    witnesses: list[SpectrumWitness] = []
    if k2 <= 0.0:
        return False, witnesses
    # A witness's scaled square matches k2 to 1e-8, so its root lies
    # deep inside (target - 1, target + 1]; each degree scans only that
    # window above its first-root bound, and nothing once the bound
    # exceeds it.
    for l in range(1, l_max + 1):
        for kind, scale in (("neumann", theta), ("magnetic", 1.0)):
            target = math.sqrt(k2 / scale)
            for root in _roots(kind, l, target + 1.0, above=target - 1.0)[0]:
                if abs(scale * root * root - k2) <= 1e-8:
                    witnesses.append(SpectrumWitness(kind, l, root))
    return bool(witnesses), witnesses
