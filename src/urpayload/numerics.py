"""Shared special functions and generic numerical routines.

The special functions and the root finder work on scalars; the integration
rule takes an array-valued integrand. The common requirement across callers
is left-tail fidelity: probabilities down to ~1e-12 must keep relative
precision, so complements are never formed by subtracting from 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _special

__all__ = [
    "Bracket",
    "BracketError",
    "find_root_monotone",
    "integrate_semi_infinite",
    "q_function",
    "regularized_gamma_lower",
    "regularized_gamma_upper",
]

_SQRT2 = math.sqrt(2.0)


class BracketError(ValueError):
    """The supplied bracket does not straddle the requested target level."""


def q_function(x: float) -> float:
    """Gaussian upper-tail probability Q(x) = P(N(0,1) > x).

    Evaluated as erfc(x/sqrt(2))/2, which stays accurate for large positive x
    where 1 - Phi(x) would cancel totally.
    """
    return 0.5 * math.erfc(x / _SQRT2)


def _check_gamma_args(p: float, x: float) -> None:
    if not p > 0.0:
        raise ValueError(f"shape parameter must be positive, got p={p!r}")
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got x={x!r}")


def regularized_gamma_lower(p: float, x: float) -> float:
    """Regularized lower incomplete gamma P(p, x) = gamma(p, x) / Gamma(p).

    Evaluated directly (series / continued-fraction split around x = p + 1,
    via scipy's gammainc), never as 1 - Q(p, x), so tiny left-tail values keep
    full relative precision.
    """
    _check_gamma_args(p, x)
    return float(_special.gammainc(p, x))


def regularized_gamma_upper(p: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(p, x) = Gamma(p, x) / Gamma(p)."""
    _check_gamma_args(p, x)
    return float(_special.gammaincc(p, x))


@dataclass(frozen=True)
class Bracket:
    """Interval [lo, hi] known to contain the sought crossing."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


def find_root_monotone(
    f: Callable[[float], float],
    target: float,
    bracket: Bracket,
    tol: float = 1e-12,
) -> float:
    """Solve f(x) = target for monotone f by bisection.

    Requires f(lo) and f(hi) to straddle the target (either orientation);
    raises BracketError otherwise. Convergence is guaranteed in at most
    ceil(log2((hi - lo) / tol)) iterations; the returned point is the final
    bracket midpoint, so its distance to the true crossing is <= tol / 2.
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
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketError(
            f"f does not straddle target {target} on [{lo}, {hi}]: "
            f"f(lo)-target={flo:.6g}, f(hi)-target={fhi:.6g}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at floating-point resolution
            break
        fmid = f(mid) - target
        if fmid == 0.0:
            return mid
        if math.copysign(1.0, fmid) == math.copysign(1.0, flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# integration range in u = ln x; what lies outside is the callers' to check
_LOG_X_RANGE = (math.log(1e-25), math.log(1e12))


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray], step: float
) -> tuple[float, float]:
    """Integrate array-valued f over x in [1e-25, 1e12]; return (value, error_estimate).

    The trapezoid rule runs in u = ln x on an even number of intervals no
    wider than `step`, so that f(x)*x is integrated over a smooth, bounded
    range. The error estimate is |T_h - T_2h|, where T_2h is the same rule
    on every other node.
    """
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    lo, hi = _LOG_X_RANGE
    intervals = 2 * math.ceil((hi - lo) / (2.0 * step))
    u, h = np.linspace(lo, hi, intervals + 1, retstep=True)
    x = np.exp(u)
    g = f(x) * x
    ends = 0.5 * (g[0] + g[-1])
    fine = h * (g.sum() - ends)
    coarse = 2.0 * h * (g[::2].sum() - ends)
    return float(fine), float(abs(fine - coarse))
