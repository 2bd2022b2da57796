"""Asymptotic (infinite-blocklength) maximum-payload allocation.

Given the per-antenna SIR law and a reliability target, these routines size
the largest payload k (bits per block of n channel uses) whose decoding
error probability stays below the target. Selection combining admits both an
exact product-form solve and a closed form; maximum-ratio combining goes
through the distribution of a sum of i.i.d. Lomax variables, for which a
gamma-based approximation and a closed-form quantile bound are provided.
All left-tail arithmetic is done in log domain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .numerics import (
    Bracket,
    find_root_monotone,
    regularized_gamma_lower,
)
from .sir_model import (
    SirDistribution,
    sir_cdf_approx,
    sir_cdf_exact,
)

__all__ = [
    "LinkConfig",
    "Method",
    "RateSolution",
    "Scheme",
    "combined_sir_pdf",
    "k_for_threshold",
    "lomax_sum_cdf",
    "lomax_sum_cdf_lower_bound",
    "lomax_sum_pdf",
    "mrc_error",
    "mrc_kstar",
    "mrc_quantile_closed",
    "mrc_quantile_numeric",
    "sc_error",
    "sc_kstar_approx",
    "sc_kstar_exact",
    "sc_pdf",
    "theta_for_rate",
]

_LN2 = math.log(2.0)


class Scheme(str, Enum):
    SC = "sc"
    MRC = "mrc"


class Method(str, Enum):
    SC_EXACT = "sc_exact"
    SC_APPROX = "sc_approx"
    MRC_NUMERIC = "mrc_numeric"
    MRC_CLOSED = "mrc_closed"
    FB = "fb"


@dataclass(frozen=True)
class LinkConfig:
    """Receiver and reliability parameters for one allocation problem."""

    antennas: int
    blocklength: int
    epsilon_th: float
    scheme: Scheme = Scheme.SC

    def __post_init__(self) -> None:
        if not (isinstance(self.antennas, int) and self.antennas >= 1):
            raise ValueError(f"antennas must be a positive integer, got {self.antennas!r}")
        if not (isinstance(self.blocklength, int) and self.blocklength >= 1):
            raise ValueError(
                f"blocklength must be a positive integer, got {self.blocklength!r}"
            )
        if not 0.0 < self.epsilon_th < 1.0:
            raise ValueError(f"epsilon_th must lie in (0, 1), got {self.epsilon_th}")
        object.__setattr__(self, "scheme", Scheme(self.scheme))


@dataclass(frozen=True)
class RateSolution:
    """Result of a maximum-payload search.

    k_star is the integer payload; k_real the unfloored solution of the
    underlying equation (kept for smooth sweeps). theta is the SIR decoding
    threshold implied by k_star. predicted_epsilon re-evaluates the solving
    method's own error measure at k_star and is guaranteed <= the target.
    infeasible marks configurations where not even one bit fits (k_star=0).
    """

    k_star: int
    k_real: float
    rate: float
    theta: float
    predicted_epsilon: float
    method: Method
    infeasible: bool = False


def theta_for_rate(k: float, n: int) -> float:
    """SIR decoding threshold 2^(k/n) - 1 for payload k over n channel uses."""
    return math.expm1(_LN2 * k / n)


def k_for_threshold(theta: float, n: int) -> float:
    """Inverse of theta_for_rate: payload whose threshold equals theta."""
    return n * math.log1p(theta) / _LN2


def _log1p_theta_weight(t: float, w: float) -> float:
    # log(1 + (e^t - 1)*w), safe for t beyond expm1's overflow point
    if t > 690.0:
        return t + math.log(w) + math.log1p((1.0 - w) * math.exp(-t) / w)
    return math.log1p(math.expm1(t) * w)


def sc_error(
    theta: float, dist: SirDistribution, antennas: int = 1, exact: bool = False
) -> float:
    """Selection-combining error probability F_SIR(theta)^M.

    With exact=True the product-form CDF of `dist` is used; otherwise its
    scaled-Lomax CDF. The M-th power is taken as exp(M*log F) once F drops
    below 1e-3 so deep-tail results keep relative precision.
    """
    cdf = sir_cdf_exact(theta, dist) if exact else sir_cdf_approx(theta, dist)
    if cdf <= 0.0:
        return 0.0
    if cdf < 1e-3:
        return math.exp(antennas * math.log(cdf))
    return cdf**antennas


def _max_feasible_k(
    error_at_k: Callable[[int], float], epsilon_th: float, k_start: int
) -> tuple[int, float]:
    """Largest integer k >= 0 with error_at_k(k) <= epsilon_th.

    error_at_k must be nondecreasing in k. The walk starts at k_start (an
    already-close guess), steps down while the constraint is violated, then
    probes upward so a floor that landed one short is corrected; equality
    with the target counts as feasible.
    """
    k = max(int(k_start), 0)
    err = error_at_k(k) if k >= 1 else 0.0
    while k >= 1 and err > epsilon_th:
        k -= 1
        err = error_at_k(k) if k >= 1 else 0.0
    while True:
        err_next = error_at_k(k + 1)
        if err_next <= epsilon_th:
            k += 1
            err = err_next
        else:
            break
    return k, err


def _finish(
    k: int, k_real: float, err: float, n: int, method: Method
) -> RateSolution:
    infeasible = k < 1
    return RateSolution(
        k_star=k,
        k_real=max(k_real, 0.0),
        rate=k / n,
        theta=theta_for_rate(k, n),
        predicted_epsilon=err,
        method=method,
        infeasible=infeasible,
    )


def sc_kstar_exact(dist: SirDistribution, cfg: LinkConfig) -> RateSolution:
    """Maximum payload under SC from the exact product-form constraint.

    Solves prod_j(1 + theta(k)*w_j) = 1/(1 - eps^(1/M)) for real k by
    bisection on the log product (strictly increasing in k), then settles the
    integer payload against the exact error itself.
    """
    if cfg.scheme is not Scheme.SC:
        raise ValueError("sc_kstar_exact requires an SC-scheme config")
    n, m, eps = cfg.blocklength, cfg.antennas, cfg.epsilon_th
    weights = dist.path_losses
    target = -math.log1p(-eps ** (1.0 / m))

    def log_product(k: float) -> float:
        t = _LN2 * k / n
        return math.fsum(_log1p_theta_weight(t, w) for w in weights)

    hi = float(n)
    while log_product(hi) < target:
        hi *= 2.0
    k_real = find_root_monotone(log_product, target, Bracket(0.0, hi), tol=1e-9)

    def err(k: int) -> float:
        return sc_error(theta_for_rate(k, n), dist, m, exact=True)

    k, e = _max_feasible_k(err, eps, math.floor(k_real + 1e-9))
    return _finish(k, k_real, e, n, Method.SC_EXACT)


def sc_kstar_approx(dist: SirDistribution, cfg: LinkConfig) -> RateSolution:
    """Closed-form SC payload n*log2((eta/beta)*((1-eps^(1/M))^(-1/eta) - 1) + 1).

    (1-eps^(1/M))^(-1/eta) - 1 is formed as expm1(-log1p(-eps^(1/M))/eta) so
    stringent targets keep precision. The integer payload is settled against
    the scaled-Lomax error measure.
    """
    if cfg.scheme is not Scheme.SC:
        raise ValueError("sc_kstar_approx requires an SC-scheme config")
    n, m, eps = cfg.blocklength, cfg.antennas, cfg.epsilon_th
    growth = math.expm1(-math.log1p(-eps ** (1.0 / m)) / dist.eta)
    k_real = n * math.log1p((dist.eta / dist.beta) * growth) / _LN2

    def err(k: int) -> float:
        return sc_error(theta_for_rate(k, n), dist=dist, antennas=m)

    k, e = _max_feasible_k(err, eps, math.floor(k_real + 1e-9))
    return _finish(k, k_real, e, n, Method.SC_APPROX)


def sc_pdf(x, dist: SirDistribution, antennas: int):
    """Density of the SC-combined SIR (max over antennas), scaled-Lomax model.

    M * F(x)^(M-1) * f(x), elementwise over an array of SIR values.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError(f"SIR must be nonnegative, got {x}")
    log_arg = np.log1p(x * dist.beta / dist.eta)
    pdf = dist.beta * np.exp(-(dist.eta + 1) * log_arg)
    if antennas == 1:
        return pdf
    cdf = -np.expm1(-dist.eta * log_arg)
    return antennas * cdf ** (antennas - 1) * pdf


def _check_count_shape(count: int, shape: int) -> None:
    if not (isinstance(count, int) and count >= 1):
        raise ValueError(f"count must be a positive integer, got {count!r}")
    if not (isinstance(shape, int) and shape >= 1):
        raise ValueError(f"shape must be a positive integer, got {shape!r}")


def lomax_sum_pdf(x, count: int, shape: int):
    """Density approximation for a sum of `count` i.i.d. Lomax(shape, 1) variables.

    (shape^M M^(M-1)/(M-1)!) (1+x/M)^(-1-M*shape) ln^(M-1)(1+x/M) with M=count,
    elementwise over an array and assembled in log domain. The log-power
    factor vanishes at x=0 for M>1.
    """
    _check_count_shape(count, shape)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError(f"argument must be nonnegative, got {x}")
    log_arg = np.log1p(x / count)
    if count == 1:
        return shape * np.exp((-1.0 - shape) * log_arg)
    with np.errstate(divide="ignore"):  # log(0) = -inf makes the density 0 at x=0
        log_power = (count - 1) * np.log(log_arg)
    log_pdf = (
        count * math.log(shape)
        + (count - 1) * math.log(count)
        - math.lgamma(count)
        + (-1.0 - count * shape) * log_arg
        + log_power
    )
    return np.exp(log_pdf)


def lomax_sum_cdf(x: float, count: int, shape: int) -> float:
    """CDF approximation for a sum of Lomax(shape, 1) variables.

    P(M, shape*M*log1p(x/M)) through the lower regularized gamma directly,
    so 1e-9-level left-tail values are exact to relative precision.
    """
    _check_count_shape(count, shape)
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    return regularized_gamma_lower(count, shape * count * math.log1p(x / count))


def lomax_sum_cdf_lower_bound(
    x: float, count: int, shape: int, linearize: bool = False
) -> float:
    """Lower bound (1 - e^(-(M!)^(-1/M) * shape*M*ln(1+x/M)))^M on lomax_sum_cdf.

    Equality holds at count=1. linearize=True substitutes x/M for ln(1+x/M),
    the variant some left-tail comparisons plot; the default keeps the exact
    logarithm.
    """
    _check_count_shape(count, shape)
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    arg = x / count if linearize else math.log1p(x / count)
    t = math.exp(-math.lgamma(count + 1) / count) * shape * count * arg
    if t <= 0.0:
        return 0.0
    inner = -math.expm1(-t)
    return math.exp(count * math.log(inner))


def _check_probability(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {epsilon}")


def mrc_quantile_numeric(epsilon: float, antennas: int, eta: int) -> float:
    """Invert lomax_sum_cdf at epsilon by bisection (bracket doubled from M)."""
    _check_probability(epsilon)
    hi = float(antennas)
    while lomax_sum_cdf(hi, antennas, eta) < epsilon:
        hi *= 2.0
    return find_root_monotone(
        lambda x: lomax_sum_cdf(x, antennas, eta),
        epsilon,
        Bracket(0.0, hi),
        tol=1e-15 * hi,
    )


def mrc_quantile_closed(epsilon: float, antennas: int, eta: int) -> float:
    """Closed-form quantile (M!)^(1/M)/eta * |ln(1 - eps^(1/M))|.

    Tight for stringent epsilon and small-to-moderate M; drifts slowly as M
    grows.
    """
    _check_probability(epsilon)
    _check_count_shape(antennas, eta)
    return (
        math.exp(math.lgamma(antennas + 1) / antennas)
        / eta
        * abs(math.log1p(-epsilon ** (1.0 / antennas)))
    )


def mrc_error(theta: float, dist: SirDistribution, antennas: int) -> float:
    """MRC error probability: P(sum of per-antenna SIRs < theta).

    Uses the Lomax-sum model of the normalized sum, evaluated at
    beta*theta/eta.
    """
    if theta < 0.0:
        raise ValueError(f"SIR threshold must be nonnegative, got {theta}")
    return lomax_sum_cdf(dist.beta * theta / dist.eta, antennas, dist.eta)


def mrc_kstar(
    dist: SirDistribution, cfg: LinkConfig, method: Method = Method.MRC_NUMERIC
) -> RateSolution:
    """Maximum payload under MRC: n*log2((eta/beta)*quantile(eps) + 1).

    `method` picks the numeric or the closed-form quantile. The closed
    quantile can overshoot slightly, so for either method the integer
    payload is settled against the Lomax-sum error measure, keeping
    predicted_epsilon <= the target; k_real retains the raw quantile-based
    value.
    """
    if cfg.scheme is not Scheme.MRC:
        raise ValueError("mrc_kstar requires an MRC-scheme config")
    n, m, eps = cfg.blocklength, cfg.antennas, cfg.epsilon_th
    method = Method(method)
    if method is Method.MRC_NUMERIC:
        quantile = mrc_quantile_numeric(eps, m, dist.eta)
    elif method is Method.MRC_CLOSED:
        quantile = mrc_quantile_closed(eps, m, dist.eta)
    else:
        raise ValueError(f"mrc_kstar requires an MRC method, got {method.value}")
    k_real = n * math.log1p((dist.eta / dist.beta) * quantile) / _LN2

    def err(k: int) -> float:
        return mrc_error(theta_for_rate(k, n), dist, m)

    k, e = _max_feasible_k(err, eps, math.floor(k_real + 1e-9))
    return _finish(k, k_real, e, n, method)


def combined_sir_pdf(
    dist: SirDistribution, antennas: int, scheme: Scheme
) -> Callable[[np.ndarray], np.ndarray]:
    """Density of the post-combining SIR as an array-valued callable.

    SC: max of the per-antenna values. MRC: the combined SIR Psi relates to
    the normalized Lomax sum v through Psi = (eta/beta)*v, so
    f_Psi(x) = (beta/eta) * f_v(x*beta/eta).
    """
    scheme = Scheme(scheme)
    if scheme is Scheme.SC:
        return lambda x: sc_pdf(x, dist, antennas)
    scale = dist.beta / dist.eta
    return lambda x: scale * lomax_sum_pdf(x * scale, antennas, dist.eta)
