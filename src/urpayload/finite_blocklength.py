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

from .numerics import QuadratureSpec, integrate_semi_infinite, q_function
from .rate_control import (
    LinkConfig,
    Method,
    RateSolution,
    Scheme,
    _max_feasible_k,
    combined_sir_pdf,
    mrc_kstar,
    sc_kstar_approx,
    theta_for_rate,
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
    """Capacity log2(1 + SIR) in bits per channel use (scalar or ndarray)."""
    if isinstance(sir, (float, int)):
        return math.log1p(sir) * _LOG2E
    return np.log1p(sir) * _LOG2E


def channel_dispersion(sir):
    """Dispersion (1 - (1+SIR)^-2) * (log2 e)^2 (scalar or ndarray)."""
    if isinstance(sir, (float, int)):
        return (1.0 - (1.0 + sir) ** -2) * _LOG2E_SQ
    return (1.0 - 1.0 / np.square(1.0 + np.asarray(sir, dtype=float))) * _LOG2E_SQ


def fb_error_conditional(sir, k: float, n: int):
    """Error probability of k bits over n uses at a known SIR.

    Q((C(SIR) - k/n) / sqrt(V(SIR)/n)). At SIR=0 the dispersion vanishes and
    the limit is 1 for any positive payload. Accepts scalars or ndarrays.
    """
    rate = k / n
    if isinstance(sir, (float, int)):
        if sir <= 0.0:
            return 1.0 if k > 0 else 0.5
        z = (shannon_capacity(sir) - rate) / math.sqrt(channel_dispersion(sir) / n)
        return q_function(z)
    sir_arr = np.asarray(sir, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (shannon_capacity(sir_arr) - rate) / np.sqrt(channel_dispersion(sir_arr) / n)
        prob = 0.5 * _special.erfc(z / _SQRT2)
    return np.where(sir_arr > 0.0, prob, 1.0 if k > 0 else 0.5)


def fb_error_average(
    density: Callable[[float], float],
    k: float,
    n: int,
    spec: QuadratureSpec = QuadratureSpec(),
) -> FbEvaluation:
    """Average the conditional error over a post-combining SIR density.

    The integrand transitions around the SIR where the capacity equals the
    attempted rate, so that point is handed to the quadrature as a forced
    break point.
    """
    if n < _MIN_VALIDATED_BLOCKLENGTH:
        warnings.warn(
            f"normal approximation validated for n >= {_MIN_VALIDATED_BLOCKLENGTH}; "
            f"got n={n}",
            stacklevel=2,
        )

    def integrand(x: float) -> float:
        f = density(x)
        if f == 0.0:
            return 0.0
        return fb_error_conditional(x, k, n) * f

    midpoint = theta_for_rate(k, n)
    value, err_estimate = integrate_semi_infinite(
        integrand, spec, split_points=(midpoint,)
    )
    return FbEvaluation(
        k=k,
        n=n,
        epsilon_fb=min(max(value, 0.0), 1.0),
        quadrature_error_estimate=err_estimate,
    )


def fb_kstar(
    dist: SirDistribution,
    cfg: LinkConfig,
    spec: QuadratureSpec = QuadratureSpec(),
) -> RateSolution:
    """Maximum payload under the finite-blocklength error constraint.

    Seeds the search with the asymptotic payload for the configured combining
    scheme, then walks integer k (down while violating, up while slack
    remains) to the largest k whose average error stays within the target.
    The asymptotic guess lands within a few bits, which keeps the number of
    average-error integrations small. k_real refines the boundary where the
    average error equals the target, for smooth sweeps.
    """
    if cfg.scheme is Scheme.SC:
        seed = sc_kstar_approx(dist, cfg)
    else:
        seed = mrc_kstar(dist, cfg)
    density = combined_sir_pdf(dist, cfg.antennas, cfg.scheme)
    n, eps = cfg.blocklength, cfg.epsilon_th

    def err(k: float) -> float:
        return fb_error_average(density, k, n, spec).epsilon_fb

    k, e = _max_feasible_k(err, eps, math.floor(seed.k_real + 1e-9))

    if k < 1:
        return RateSolution(
            k_star=0,
            k_real=0.0,
            rate=0.0,
            theta=0.0,
            predicted_epsilon=0.0,
            method=Method.FB,
            infeasible=True,
        )

    # real-valued boundary: err(k) <= eps < err(k+1), bisect inside the unit gap
    lo, hi = float(k), float(k + 1)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if err(mid) <= eps:
            lo = mid
        else:
            hi = mid
    k_real = lo

    return RateSolution(
        k_star=k,
        k_real=k_real,
        rate=k / n,
        theta=theta_for_rate(k, n),
        predicted_epsilon=e,
        method=Method.FB,
        infeasible=False,
    )
