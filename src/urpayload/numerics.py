"""Generic numerical routines: a monotone root finder and a log-grid integration rule.

The root finder works on scalars. It returns exactly what bisection of its
bracket returns, for monotone f, from far fewer evaluations: interpolation
picks the points, and monotonicity supplies the signs of the midpoints it
passes over. A caller's estimate of the root, where it has one, is the first
point evaluated: it changes how many calls are made, never the result. The
integration rule takes an array-valued integrand on a fixed log-spaced grid,
which `log_grid` builds once per step size and shares read-only (up to a
node count that `grid_is_kept` decides), so callers can evaluate what does
not change between integrals on the same nodes once. Its arithmetic, from
the sums of the integrand over all nodes and over the even ones, is
`trapezoid_from_sums`, so a caller that knows the integrand on most nodes
ahead (say, as prefix sums) can form those sums itself. The common
requirement across callers is left-tail fidelity: probabilities down to
~1e-12 must keep relative precision, so complements are never formed by
subtracting from 1.

`special` and `np` stand in for `scipy.special` and `numpy`, which the
package's modules take from here instead of importing them when they load:
the CLI's parser, its refusals and the SC asymptotic solvers use only
`math`, and the two imports would be most of their start. `special_scalar`
stands in for `scipy.special.cython_special`, whose functions run the same C
kernels as the `special` ufuncs on one Python float each, without the
ufunc's dispatch, and return a Python float: every `gammainc` and
`gammaincinv` call (the MRC solves and fig3's CDF column) uses it, and
only the finite-blocklength `erfc`, an array call, keeps `special`. A
handle's first attribute lookup imports its module and keeps the attribute
on the handle, so later lookups of that name read it without calling
`__getattr__`; either way they return the module's own objects.
`importlib.import_module` holds the module's import lock, so a first lookup
from two threads at once is safe: both see the finished module.
"""
from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Bracket",
    "BracketError",
    "find_root_monotone",
    "grid_is_kept",
    "integrate_semi_infinite",
    "log_grid",
    "trapezoid_from_sums",
]


class _Lazy:
    """The module `name`, imported at the first attribute lookup."""

    def __init__(self, name: str) -> None:
        self._name = name

    def __getattr__(self, attr: str):
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)  # found without __getattr__ from now on
        return value


special = _Lazy("scipy.special")
special_scalar = _Lazy("scipy.special.cython_special")
np = _Lazy("numpy")


class BracketError(ValueError):
    """The supplied bracket does not straddle the requested target level."""


@dataclass(frozen=True)
class Bracket:
    """Interval [lo, hi] known to contain the sought crossing."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


# f is called at most this many times more than bisection would call it.
_SPARE_EVALUATIONS = 4
# A sign measured at a point is not carried to midpoints closer to it than
# this, relative to the bracket ends: lomax_sum_cdf is monotone only to
# within a few ulps near its crossings, and a midpoint that close must be
# evaluated, as bisection evaluates it.
_SIGN_MARGIN = 2.0**-40


def _interpolate(
    a: float,
    fa: float,
    b: float,
    fb: float,
    c: float | None,
    fc: float | None,
) -> float:
    """Estimate of the crossing in [a, b] from f - target at a, b and c.

    Inverse quadratic interpolation through the three points when it lands
    inside (a, b); else regula falsi through a and b, whose values have
    opposite signs.
    """
    if c is not None:
        d_ab, d_ac, d_bc = fa - fb, fa - fc, fb - fc
        den_a, den_b, den_c = d_ab * d_ac, d_ab * d_bc, d_ac * d_bc
        if den_a != 0.0 and den_b != 0.0 and den_c != 0.0:
            x = a * fb * fc / den_a - b * fa * fc / den_b + c * fa * fb / den_c
            if a < x < b:
                return x
    return a + (b - a) * (fa / (fa - fb))


def find_root_monotone(
    f: Callable[[float], float],
    target: float,
    bracket: Bracket,
    tol: float = 1e-12,
    guess: float | None = None,
) -> float:
    """Solve f(x) = target for monotone f; return what bisection returns.

    Requires f(lo) and f(hi) to straddle the target (either orientation);
    raises BracketError otherwise. For monotone f the result is the double
    that bisection of [lo, hi] down to width tol returns: the final bracket
    midpoint, so within tol / 2 of the crossing, or a midpoint where f
    equals the target. The bisection is replayed with the same arithmetic,
    but a midpoint's sign comes from an evaluated point beyond it wherever
    monotonicity fixes it, and interpolation picks the points to evaluate.
    A sign is never carried to a midpoint within 2^-40 of the bracket ends'
    magnitude from where it was measured, so f whose sign wobbles only that
    close to the crossing, as lomax_sum_cdf's does, also gets bisection's
    answer. f is called at most four times more than bisection calls it, and
    on smooth f a handful of times in all.

    `guess`, an estimate of the crossing, is the first point evaluated in
    place of the interpolation's pick, clamped into the bracket and rounded
    like it. It saves calls when it is close and never changes the returned
    double, which depends only on signs; a NaN, infinite or outside one
    costs at most one call.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    lo, hi = bracket.lo, bracket.hi
    flo = f(lo) - target
    fhi = f(hi) - target
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    lo_sign = math.copysign(1.0, flo)
    if lo_sign == math.copysign(1.0, fhi):
        raise BracketError(
            f"f does not straddle target {target} on [{lo}, {hi}]: "
            f"f(lo)-target={flo:.6g}, f(hi)-target={fhi:.6g}"
        )
    # Interpolation points are rounded to multiples of the bisection's last
    # interval width, (hi - lo) / 2^levels <= tol, from lo, so an accurate
    # one is a midpoint that bisection evaluates too.
    mantissa, levels = math.frexp((hi - lo) / tol)
    if mantissa == 0.5:  # the ratio is a power of two
        levels -= 1
    spacing = math.ldexp(hi - lo, -max(levels, 0)) or tol
    origin = lo
    # the tightest bracket with strict signs evaluated, the end it replaced
    # last, and how far from a and b their signs are carried
    a, fa, b, fb = lo, flo, hi, fhi
    c = fc = None
    known_lo, known_hi = lo, hi
    # Brent's safeguard: an interpolation point must move less than half the
    # step before last, else the bisection midpoint is evaluated instead
    last, step, step_before = hi, math.inf, math.inf
    values: dict[float, float] = {}  # f - target at every point evaluated
    spare = _SPARE_EVALUATIONS  # calls left beyond one per bisection level
    while True:
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:  # interval at floating-point resolution
                return 0.5 * (lo + hi)
            if mid <= known_lo:
                lo = mid
            elif mid >= known_hi:
                hi = mid
            else:
                fmid = values.get(mid)
                if fmid is None:
                    break
                if fmid == 0.0:
                    return mid
                if math.copysign(1.0, fmid) == lo_sign:
                    lo = mid
                else:
                    hi = mid
            spare += 1
        else:
            return 0.5 * (lo + hi)
        x = mid
        if spare > 0 and b - a > 2.0 * spacing:
            # at least one lattice step inside, so that a crossing hugging
            # one end is bracketed from the other side next
            pick = _interpolate(a, fa, b, fb, c, fc) if guess is None else guess
            guess = None
            pick = min(max(pick, a + spacing), b - spacing)
            pick -= math.remainder(pick - origin, spacing)
            converging = abs(pick - last) <= 0.5 * step_before
            if a < pick < b and converging and pick not in values:
                x = pick
        values[x] = fx = f(x) - target
        spare -= 1
        step_before, step, last = step, abs(x - last), x
        if fx < 0.0 or fx > 0.0:  # a zero or NaN gives no strict sign
            if (fx < 0.0) == (lo_sign < 0.0):
                if x > a:
                    c, fc, a, fa = a, fa, x, fx
            elif x < b:
                c, fc, b, fb = b, fb, x, fx
            margin = _SIGN_MARGIN * max(abs(a), abs(b))
            known_lo, known_hi = a - margin, b + margin


# integration range in u = ln x; what lies outside is the callers' to check
_LOG_X_RANGE = (math.log(1e-25), math.log(1e12))
# Grids of up to this many nodes are kept: the finite-blocklength grid's
# node count at n = 10^5 (0.4 MB). Larger ones, up to 1.7 M nodes at
# n = 10^8, are built on each call.
_MAX_KEPT_NODES = 53_885


def _intervals(step: float) -> int:
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    lo, hi = _LOG_X_RANGE
    return 2 * math.ceil((hi - lo) / (2.0 * step))


def grid_is_kept(step: float) -> bool:
    """Whether `log_grid` keeps the grid of `step`: at most _MAX_KEPT_NODES nodes.

    Callers that cache arrays on a grid keep them under the same rule.
    """
    return _intervals(step) + 1 <= _MAX_KEPT_NODES


def log_grid(step: float) -> tuple[np.ndarray, float]:
    """Nodes x and spacing h in u = ln x of the rule `integrate_semi_infinite` uses.

    The nodes are equally spaced in u over x in [1e-25, 1e12], on an even
    number of intervals no wider than `step`. A grid that `grid_is_kept` is
    built once and shared, so the node array is read-only; a larger one is
    built on each call.
    """
    build = _build_grid if grid_is_kept(step) else _build_grid.__wrapped__
    return build(step)


@functools.lru_cache(maxsize=8)
def _build_grid(step: float) -> tuple[np.ndarray, float]:
    lo, hi = _LOG_X_RANGE
    u, h = np.linspace(lo, hi, _intervals(step) + 1, retstep=True)
    x = np.exp(u)
    x.flags.writeable = False
    return x, h


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray], step: float
) -> tuple[float, float]:
    """Integrate array-valued f over x in [1e-25, 1e12]; return (value, error_estimate).

    The trapezoid rule runs in u = ln x on the nodes of `log_grid(step)`, so
    that f(x)*x is integrated over a smooth, bounded range. The error
    estimate is |T_h - T_2h|, where T_2h is the same rule on every other node.
    """
    x, h = log_grid(step)
    g = f(x) * x
    return trapezoid_from_sums(h, g.sum(), g[::2].sum(), g[0], g[-1])


def trapezoid_from_sums(
    h: float, total: float, even_total: float, first: float, last: float
) -> tuple[float, float]:
    """The rule of `integrate_semi_infinite` from the sums of g = f(x)*x on its grid.

    `total` sums g over all nodes of the grid with spacing h, `even_total`
    over the even-indexed ones (the grid of T_2h), and `first` and `last` are
    g at the two ends. Returns (T_h, |T_h - T_2h|).
    """
    ends = 0.5 * (first + last)
    fine = h * (total - ends)
    coarse = 2.0 * h * (even_total - ends)
    return float(fine), float(abs(fine - coarse))
