"""Non-asymptotic error evaluation and the payload search under it.

At short blocklengths the sharp SIR-threshold picture breaks down: even
above threshold a block can fail, and the normal approximation gives the
conditional error of k bits over n channel uses at a given SIR. Averaging
that over the post-combining SIR density yields the average error, and the
payload search walks integer k from the asymptotic solution until the
average error meets the target.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _special

from .numerics import Bracket, find_root_monotone, integrate_semi_infinite
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


def fb_error_conditional(sir, k: float, n: int):
    """Error probability of k bits over n uses at a known SIR, elementwise.

    Q((C(SIR) - k/n) / sqrt(V(SIR)/n)). At SIR=0 the dispersion vanishes and
    the limit is 1 for any positive payload.
    """
    rate = k / n
    sir_arr = np.asarray(sir, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (shannon_capacity(sir_arr) - rate) / np.sqrt(channel_dispersion(sir_arr) / n)
        prob = 0.5 * _special.erfc(z / _SQRT2)
    return np.where(sir_arr > 0.0, prob, 1.0 if k > 0 else 0.5)


def _grid_step(n: int) -> float:
    # Q falls from 1 to 0 over about 1/sqrt(n) in ln SIR, so the log-SIR grid
    # puts a dozen nodes across that drop; 0.0115 already resolves the
    # densities themselves at short blocklengths.
    return min(0.0115, 0.5 / math.sqrt(n))


def fb_error_average(
    density: Callable[[np.ndarray], np.ndarray], k: float, n: int
) -> FbEvaluation:
    """Average the conditional error over a post-combining SIR density.

    `density` must be array-valued and smooth on the scale of the grid step
    in ln SIR (min(0.0115, 0.5/sqrt(n))), as the combined SIR densities are;
    the average is a fixed trapezoid rule on that grid.
    """
    if n < _MIN_VALIDATED_BLOCKLENGTH:
        warnings.warn(
            f"normal approximation validated for n >= {_MIN_VALIDATED_BLOCKLENGTH}; "
            f"got n={n}",
            stacklevel=2,
        )
    value, err_estimate = integrate_semi_infinite(
        lambda x: density(x) * fb_error_conditional(x, k, n), _grid_step(n)
    )
    return FbEvaluation(
        k=k,
        n=n,
        epsilon_fb=min(max(value, 0.0), 1.0),
        quadrature_error_estimate=err_estimate,
    )


def fb_kstar(dist: SirDistribution, cfg: LinkConfig) -> RateSolution:
    """Maximum payload under the finite-blocklength error constraint.

    Seeds the search with the asymptotic payload for the configured combining
    scheme, then walks integer k (down while violating, up while slack
    remains) to the largest k whose average error stays within the target.
    The asymptotic guess lands within a few bits, which keeps the number of
    average-error integrations small. k_real refines the boundary where the
    average error equals the target, for smooth sweeps.

    Raises ValueError when the density's mass on the integration grid is not
    1, i.e. when the SIR law lies outside the range the average covers.
    """
    density = combined_sir_pdf(dist, cfg.antennas, cfg.scheme)
    n, eps = cfg.blocklength, cfg.epsilon_th
    mass, _ = integrate_semi_infinite(density, _grid_step(n))
    if not abs(mass - 1.0) <= _MASS_TOLERANCE:
        raise ValueError(
            f"SIR density has mass {mass:.6g} on the integration range, not 1; "
            "the finite-blocklength average cannot cover this law"
        )
    if cfg.scheme is Scheme.SC:
        seed = sc_kstar_approx(dist, cfg)
    else:
        seed = mrc_kstar(dist, cfg)

    def err(k: float) -> float:
        return fb_error_average(density, k, n).epsilon_fb

    k, e = _max_feasible_k(err, eps, math.floor(seed.k_real + 1e-9))
    if k < 1:
        return _finish(k, 0.0, e, n, Method.FB)
    # real-valued boundary: err(k) <= eps < err(k+1)
    k_real = find_root_monotone(err, eps, Bracket(float(k), float(k + 1)), tol=2**-30)
    return _finish(k, k_real, e, n, Method.FB)
