"""Non-asymptotic error evaluation and the payload search under it.

At short blocklengths the sharp SIR-threshold picture breaks down: even
above threshold a block can fail, and the normal approximation gives the
conditional error of k bits over n channel uses at a given SIR. Averaging
that over the post-combining SIR density yields the average error, and the
payload search walks integer k from the asymptotic solution until the
average error meets the target. The average is a fixed trapezoid rule on
a log-SIR grid. Its conditional error is exactly 1.0 below a narrow window
of nodes and exactly 0.0 above it, so one average evaluates the error only
on that window and takes the part below it from prefix sums of the density.
The capacity, the spread and the window edges depend only on the
blocklength and are cached per blocklength. The density times x, its prefix
sums and its mass depend only on the law, the antennas, the scheme and the
grid, and are evaluated once per law: a bounded cache keeps those of the
_LAW_CACHE_SIZE laws used last, so the solves of one curve, which share a
law across targets, reuse them.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _special

from .numerics import (
    Bracket,
    find_root_monotone,
    integrate_semi_infinite,
    log_grid,
    trapezoid_from_sums,
)
from .rate_control import (
    LinkConfig,
    Method,
    RateSolution,
    Scheme,
    _finish,
    _max_feasible_k,
    _closed_form_k_real,
    combined_sir_pdf,
)
from .sir_model import SirDistribution

__all__ = [
    "FbEvaluation",
    "channel_dispersion",
    "fb_error_average",
    "fb_error_conditional",
    "fb_kstar",
    "shannon_capacity",
]

_LOG2E = math.log2(math.e)
_LOG2E_SQ = _LOG2E * _LOG2E
_SQRT2 = math.sqrt(2.0)

# The normal approximation is validated for n >= 100 channel uses.
_MIN_VALIDATED_BLOCKLENGTH = 100
# How far the density's mass on the integration grid may sit from 1.
_MASS_TOLERANCE = 1e-6
# 0.5*erfc(z/sqrt(2)) is exactly 1.0 below z = -8.5 (erfc(6.01) ~ 2e-17 is
# under half an ulp of 2) and exactly 0.0 above z = 40 (e^-800 underflows).
_Q_ONE_BELOW = -8.5
_Q_ZERO_ABOVE = 40.0
# The k-independent arrays are cached for blocklengths up to this one, whose
# grids have at most about 54,000 nodes (1.7 MB of arrays per blocklength),
# and so are the per-law arrays (0.9 MB per law, 28 MB for a full cache).
_MAX_CACHED_BLOCKLENGTH = 10**5
# Laws whose per-law arrays are kept: the 21 betas of the fig4 preset's
# curves with room to spare, 3.8 MB at the presets' grid of 7,411 nodes.
_LAW_CACHE_SIZE = 32


@dataclass(frozen=True)
class FbEvaluation:
    """One evaluation of the average finite-blocklength error probability."""

    k: float
    n: int
    epsilon_fb: float
    quadrature_error_estimate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon_fb <= 1.0:
            raise ValueError(f"epsilon_fb out of [0, 1]: {self.epsilon_fb}")


def shannon_capacity(sir):
    """Capacity log2(1 + SIR) in bits per channel use, elementwise."""
    return np.log1p(sir) * _LOG2E


def channel_dispersion(sir):
    """Dispersion (1 - (1+SIR)^-2) * (log2 e)^2, elementwise."""
    return (1.0 - 1.0 / np.square(1.0 + np.asarray(sir, dtype=float))) * _LOG2E_SQ


def _q_of_margin(capacity, spread, rate: float) -> np.ndarray:
    """Q((capacity - rate) / spread) as 0.5*erfc(z/sqrt(2)), elementwise.

    erfc runs only where the result is neither exactly 1.0 nor exactly 0.0
    in double precision; a NaN ratio gives NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.asarray((capacity - rate) / spread)
        below = z < _Q_ONE_BELOW
        q = np.array(below, dtype=float)
        rest = ~(below | (z > _Q_ZERO_ABOVE))
        q[rest] = 0.5 * _special.erfc(z[rest] / _SQRT2)
    return q


def fb_error_conditional(sir, k: float, n: int):
    """Error probability of k bits over n uses at a known SIR, elementwise.

    Q((C(SIR) - k/n) / sqrt(V(SIR)/n)). At SIR=0 the dispersion vanishes and
    the limit is 1 for any positive payload.
    """
    sir_arr = np.asarray(sir, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = np.sqrt(channel_dispersion(sir_arr) / n)
        prob = _q_of_margin(shannon_capacity(sir_arr), spread, k / n)
    return np.where(sir_arr > 0.0, prob, 1.0 if k > 0 else 0.5)


def _grid_step(n: int) -> float:
    # Q falls from 1 to 0 over about 1/sqrt(n) in ln SIR, so the log-SIR grid
    # puts a dozen nodes across that drop; 0.0115 already resolves the
    # densities themselves at short blocklengths.
    return min(0.0115, 0.5 / math.sqrt(n))


@functools.lru_cache(maxsize=16)
def _margins(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Capacity, spread and the window edges on the nodes of blocklength n's grid.

    Q((C - r)/s) is exactly 1.0 where C + 8.5*s < r and exactly 0.0 where
    C - 40*s > r. `rise` is the running maximum of C + 8.5*s, which is C +
    8.5*s itself, as C and s increase along the grid; `fall` is the suffix
    minimum of C - 40*s. Both are nondecreasing, so `searchsorted` of the
    rate r on them bounds the nodes where Q is neither. The last item counts
    the nodes at the bottom of the grid where s is 0. The arrays are shared,
    so they are read-only. The cache holds the nine blocklengths of the fig6
    preset's sweep with room to spare; above _MAX_CACHED_BLOCKLENGTH,
    `_ErrorAverage` calls the uncached `__wrapped__`, so larger grids are
    not kept.
    """
    x, _ = log_grid(_grid_step(n))
    capacity = shannon_capacity(x)
    spread = np.sqrt(channel_dispersion(x) / n)
    rise = np.maximum.accumulate(capacity - _Q_ONE_BELOW * spread)
    fall = np.minimum.accumulate((capacity - _Q_ZERO_ABOVE * spread)[::-1])[::-1]
    for array in (capacity, spread, rise, fall):
        array.flags.writeable = False
    return capacity, spread, rise, fall, int(np.count_nonzero(spread == 0.0))


def _prefix_sums(g: np.ndarray) -> np.ndarray:
    """Sums of g over its first i even and its first i odd nodes, in row i.

    The first i nodes sum to below[(i+1)//2, 0] + below[i//2, 1]. The grid
    has an odd node count, and its last node is never below a window.
    """
    below = np.zeros(((len(g) + 1) // 2, 2))
    np.cumsum(g[:-1].reshape(-1, 2), axis=0, out=below[1:])
    return below


@functools.lru_cache(maxsize=_LAW_CACHE_SIZE)
def _law_sums(
    dist: SirDistribution, antennas: int, scheme: Scheme, step: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """g = density * x on the nodes of `log_grid(step)`, its prefix sums and its mass.

    The density is the post-combining one of `combined_sir_pdf`, and the
    mass is `integrate_semi_infinite`'s value of it. The key is the whole
    law, so laws with equal (eta, beta) but other weights are apart. The
    arrays are shared, so they are read-only, and the density itself is not
    kept; `fb_kstar` calls the uncached `__wrapped__` above
    _MAX_CACHED_BLOCKLENGTH.
    """
    x, _ = log_grid(step)
    density = combined_sir_pdf(dist, antennas, scheme)(x)
    mass, _ = integrate_semi_infinite(lambda _: density, step)
    g = density * x
    below = _prefix_sums(g)
    for array in (g, below):
        array.flags.writeable = False
    return g, below, mass


class _ErrorAverage:
    """The average error for one density and blocklength, as a function of k.

    The average is the trapezoid rule of `integrate_semi_infinite` on
    g = density * Q * x. Q is evaluated only on the window of nodes where it
    is neither exactly 1.0 nor exactly 0.0 (`_window`); below the window g is
    density * x, whose prefix sums over the even and over the odd nodes
    (`_prefix_sums`) are formed ahead, and above it g is 0. An average
    therefore costs time in proportion to the window, not to the grid.
    """

    def __init__(self, g: np.ndarray, below: np.ndarray, n: int) -> None:
        if n < _MIN_VALIDATED_BLOCKLENGTH:
            warnings.warn(
                f"normal approximation validated for n >= {_MIN_VALIDATED_BLOCKLENGTH}; "
                f"got n={n}",
                stacklevel=3,
            )
        self.n = n
        _, self._h = log_grid(_grid_step(n))
        margins = _margins if n <= _MAX_CACHED_BLOCKLENGTH else _margins.__wrapped__
        self._capacity, self._spread, self._rise, self._fall, self._flat = margins(n)
        self._g = g
        self._below = below

    def _window(self, k: float) -> tuple[int, int, np.ndarray]:
        """(lo, hi, Q on nodes lo..hi-1): Q is exactly 1.0 below lo and 0.0 from hi.

        The window is padded by one node on each side. Q is 0.5*erfc(z/sqrt(2))
        with z = (C - k/n)/s, as in `_q_of_margin`, whose saturated values
        erfc returns exactly too. A NaN rate sorts above every edge, so the
        window is the last node, and Q there is NaN.
        """
        rate = k / self.n
        lo = max(int(self._rise.searchsorted(rate, "left")) - 1, 0)
        hi = min(int(self._fall.searchsorted(rate, "right")) + 1, len(self._rise))
        q = self._capacity[lo:hi] - rate
        if lo < self._flat:  # z is +-inf where s is 0, or NaN where C is the rate
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(q, self._spread[lo:hi], out=q)
        else:
            np.divide(q, self._spread[lo:hi], out=q)
        np.divide(q, _SQRT2, out=q)
        _special.erfc(q, out=q)
        np.multiply(q, 0.5, out=q)
        return lo, hi, q

    def __call__(self, k: float) -> FbEvaluation:
        lo, hi, q = self._window(k)
        g = np.multiply(q, self._g[lo:hi], out=q)
        even_below = self._below[(lo + 1) // 2, 0]
        value, err_estimate = trapezoid_from_sums(
            self._h,
            even_below + self._below[lo // 2, 1] + g.sum(),
            even_below + g[lo % 2 :: 2].sum(),
            self._g[0] if lo > 0 else g[0],
            g[-1] if hi == len(self._g) else 0.0,
        )
        return FbEvaluation(
            k=k,
            n=self.n,
            epsilon_fb=min(max(value, 0.0), 1.0),
            quadrature_error_estimate=err_estimate,
        )


def fb_error_average(
    density: Callable[[np.ndarray], np.ndarray], k: float, n: int
) -> FbEvaluation:
    """Average the conditional error over a post-combining SIR density.

    `density` must be array-valued and smooth on the scale of the grid step
    in ln SIR (min(0.0115, 0.5/sqrt(n))), as the combined SIR densities are;
    the average is a fixed trapezoid rule on that grid, with the conditional
    error evaluated only where it is neither exactly 1 nor exactly 0. This
    is the path `fb_kstar` takes for each k, which takes the density's
    arrays from a per-law cache instead of evaluating them per call.
    """
    x, _ = log_grid(_grid_step(n))
    g = density(x) * x
    return _ErrorAverage(g, _prefix_sums(g), n)(k)


def fb_kstar(dist: SirDistribution, cfg: LinkConfig) -> RateSolution:
    """Maximum payload under the finite-blocklength error constraint.

    Seeds the search with the closed-form asymptotic real payload for the
    configured combining scheme, then walks integer k (down while violating,
    up while slack remains) to the largest k whose average error stays
    within the target. The guess lands within a few bits, which keeps the
    number of averages small; the answer depends only on the average error,
    not on the guess. k_real refines the boundary where the average error
    equals the target, for smooth sweeps: the bisection's answer to 2^-30,
    from about four averages beyond err(k) and err(k+1). The density's
    arrays come from a cache of the _LAW_CACHE_SIZE laws used last.

    Raises ValueError when the density's mass on the integration grid is not
    1, i.e. when the SIR law lies outside the range the average covers.
    """
    n, eps = cfg.blocklength, cfg.epsilon_th
    law_sums = _law_sums if n <= _MAX_CACHED_BLOCKLENGTH else _law_sums.__wrapped__
    g, below, mass = law_sums(dist, cfg.antennas, cfg.scheme, _grid_step(n))
    average = _ErrorAverage(g, below, n)
    if not abs(mass - 1.0) <= _MASS_TOLERANCE:
        raise ValueError(
            f"SIR density has mass {mass:.6g} on the integration range, not 1; "
            "the finite-blocklength average cannot cover this law"
        )

    # memoized, so the root search starts from the err(k) and err(k+1) the
    # walk has computed; a dict, because k and float(k) are one key there but
    # not in functools.cache
    errors: dict[float, float] = {}

    def err(k: float) -> float:
        if k not in errors:
            errors[k] = average(k).epsilon_fb
        return errors[k]

    k, e = _max_feasible_k(err, eps, _closed_form_k_real(dist, cfg))
    if k < 1:
        return _finish(k, 0.0, e, n, Method.FB)
    # real-valued boundary: err(k) <= eps < err(k+1)
    k_real = find_root_monotone(err, eps, Bracket(float(k), float(k + 1)), tol=2**-30)
    return _finish(k, k_real, e, n, Method.FB)
