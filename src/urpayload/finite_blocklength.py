"""Non-asymptotic error evaluation and the payload search under it.

At short blocklengths the sharp SIR-threshold picture breaks down: even
above threshold a block can fail, and the normal approximation gives the
conditional error of k bits over n channel uses at a given SIR. Averaging
that over the post-combining SIR density yields the average error, and the
payload search walks integer k from the asymptotic solution until the
average error meets the target. The density, capacity and dispersion do not
depend on k, so one search evaluates them on the integration grid once.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _special

from .numerics import Bracket, find_root_monotone, integrate_semi_infinite, log_grid
from .rate_control import (
    LinkConfig,
    Method,
    RateSolution,
    Scheme,
    _finish,
    _max_feasible_k,
    combined_sir_pdf,
    mrc_kstar,
    sc_kstar_approx,
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


class _ErrorAverage:
    """The average error for one density and blocklength, as a function of k.

    Everything that does not depend on k (the density, the capacity and the
    spread sqrt(V/n)) is evaluated once, on the nodes of the grid the
    average integrates over.
    """

    def __init__(self, density: Callable[[np.ndarray], np.ndarray], n: int) -> None:
        if n < _MIN_VALIDATED_BLOCKLENGTH:
            warnings.warn(
                f"normal approximation validated for n >= {_MIN_VALIDATED_BLOCKLENGTH}; "
                f"got n={n}",
                stacklevel=3,
            )
        self.n = n
        self.step = _grid_step(n)
        x, _ = log_grid(self.step)
        self.density = density(x)
        self._capacity = shannon_capacity(x)
        self._spread = np.sqrt(channel_dispersion(x) / n)

    def __call__(self, k: float) -> FbEvaluation:
        # the rule calls the integrand on log_grid(self.step)'s nodes, the
        # ones the arrays above were evaluated on
        value, err_estimate = integrate_semi_infinite(
            lambda x: self.density * _q_of_margin(self._capacity, self._spread, k / self.n),
            self.step,
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
    the average is a fixed trapezoid rule on that grid. This is the path
    `fb_kstar` takes for each k, with the k-independent arrays evaluated once
    per search instead of once per call.
    """
    return _ErrorAverage(density, n)(k)


def fb_kstar(dist: SirDistribution, cfg: LinkConfig) -> RateSolution:
    """Maximum payload under the finite-blocklength error constraint.

    Seeds the search with the asymptotic payload for the configured combining
    scheme, then walks integer k (down while violating, up while slack
    remains) to the largest k whose average error stays within the target.
    The asymptotic guess lands within a few bits, which keeps the number of
    average-error integrations small. k_real refines the boundary where the
    average error equals the target, for smooth sweeps: the bisection's
    answer to 2^-30, from about four averages beyond err(k) and err(k+1).

    Raises ValueError when the density's mass on the integration grid is not
    1, i.e. when the SIR law lies outside the range the average covers.
    """
    n, eps = cfg.blocklength, cfg.epsilon_th
    average = _ErrorAverage(combined_sir_pdf(dist, cfg.antennas, cfg.scheme), n)
    mass, _ = integrate_semi_infinite(lambda x: average.density, average.step)
    if not abs(mass - 1.0) <= _MASS_TOLERANCE:
        raise ValueError(
            f"SIR density has mass {mass:.6g} on the integration range, not 1; "
            "the finite-blocklength average cannot cover this law"
        )
    if cfg.scheme is Scheme.SC:
        seed = sc_kstar_approx(dist, cfg)
    else:
        seed = mrc_kstar(dist, cfg)

    # memoized, so the root search starts from the err(k) and err(k+1) the
    # walk has computed; a dict, because k and float(k) are one key there but
    # not in functools.cache
    errors: dict[float, float] = {}

    def err(k: float) -> float:
        if k not in errors:
            errors[k] = average(k).epsilon_fb
        return errors[k]

    k, e = _max_feasible_k(err, eps, seed.k_real)
    if k < 1:
        return _finish(k, 0.0, e, n, Method.FB)
    # real-valued boundary: err(k) <= eps < err(k+1)
    k_real = find_root_monotone(err, eps, Bracket(float(k), float(k + 1)), tol=2**-30)
    return _finish(k, k_real, e, n, Method.FB)
