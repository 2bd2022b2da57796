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
from typing import Callable, Sequence

import numpy as np
from scipy import special as _special

from .numerics import (
    Bracket,
    find_root_monotone,
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
    "lomax_sum_cdf",
    "lomax_sum_cdf_curve",
    "lomax_sum_cdf_lower_bound_curve",
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
# The FB grid has about 170*sqrt(n) nodes, 1.7 M at this cap, and payloads
# stay far below 2^52; past 2^53, (k + 1)/n rounds to k/n and the payload
# search never stops. The figures use n <= 2000.
_MAX_BLOCKLENGTH = 10**8


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
        if self.blocklength > _MAX_BLOCKLENGTH:
            raise ValueError(
                f"blocklength must be at most {_MAX_BLOCKLENGTH}, got {self.blocklength}"
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
    """SIR decoding threshold 2^(k/n) - 1 for payload k over n channel uses.

    Raises ValueError when k/n is so large (above about 1024) that the
    threshold exceeds the largest double.
    """
    try:
        return math.expm1(_LN2 * k / n)
    except OverflowError:
        raise ValueError(
            f"rate k/n = {k / n!r} bits per channel use puts the SIR threshold "
            "2^(k/n) - 1 beyond the largest double"
        ) from None


def _log1p_theta_weight(t: float, w: float) -> float:
    # log(1 + (e^t - 1)*w), safe for t beyond expm1's overflow point
    if t > 690.0:
        return t + math.log(w) + math.log1p((1.0 - w) * math.exp(-t) / w)
    return math.log1p(math.expm1(t) * w)


def _log_tail_complement(epsilon: float, antennas: int) -> float:
    """-log(1 - eps^(1/M)), shared by the SC solves and the closed MRC quantile.

    Raises ValueError when eps^(1/M) rounds to 1.0, where the term is
    infinite: eps is then too close to 1 for M antennas in double precision.
    """
    root = epsilon ** (1.0 / antennas)
    if not root < 1.0:
        raise ValueError(
            f"epsilon_th={epsilon!r} is too close to 1 for M={antennas} antennas: "
            "epsilon_th^(1/M) rounds to 1.0"
        )
    return -math.log1p(-root)


def sc_error(
    theta: float, dist: SirDistribution, antennas: int = 1, exact: bool = False
) -> float:
    """Selection-combining error probability F_SIR(theta)^M.

    With exact=True the product-form CDF of `dist` is used; otherwise its
    scaled-Lomax CDF. F**M keeps deep-tail results within about an ulp of
    the true power, where exp(M*log F) loses up to hundreds of ulps.
    """
    cdf = sir_cdf_exact(theta, dist) if exact else sir_cdf_approx(theta, dist)
    return cdf**antennas


def _max_feasible_k(
    error_at_k: Callable[[int], float], epsilon_th: float, k_guess: float
) -> tuple[int, float]:
    """Largest integer k >= 0 with error_at_k(k) <= epsilon_th.

    error_at_k must be nondecreasing in k. The search starts at the floor of
    k_guess (an already-close real-valued payload), gallops away from it in
    steps of 1, 2, 4, ... until k and k + step straddle the target, then
    bisects that bracket, so a guess off by d costs O(log d) evaluations and
    no k is evaluated twice. k* + 1 is always among the evaluated points;
    equality with the target counts as feasible. Raises ValueError when
    k_guess is not finite, as for an SIR law so strong that the payload
    formula overflows.
    """
    if not math.isfinite(k_guess):
        raise ValueError(
            f"payload guess {k_guess} is not finite; the SIR law is outside "
            "the range the payload search covers"
        )
    errors = {0: 0.0}

    def feasible(k: int) -> bool:
        if k not in errors:
            errors[k] = error_at_k(k)
        return errors[k] <= epsilon_th

    lo = hi = max(math.floor(k_guess + 1e-9), 0)
    step = 1
    if feasible(lo):
        hi = lo + step
        while feasible(hi):
            lo, hi, step = hi, hi + 2 * step, 2 * step
    else:
        lo = max(hi - step, 0)
        while not feasible(lo):
            hi, lo, step = lo, max(lo - 2 * step, 0), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, errors[lo]


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

    Solves prod_j(1 + theta(k)*w_j) = 1/(1 - eps^(1/M)) for real k with
    find_root_monotone on the log product (strictly increasing in k) to 1e-9,
    the bisection's answer from about 8 log products, then settles the
    integer payload against the exact error itself.
    """
    if cfg.scheme is not Scheme.SC:
        raise ValueError("sc_kstar_exact requires an SC-scheme config")
    n, m, eps = cfg.blocklength, cfg.antennas, cfg.epsilon_th
    weights = dist.path_losses
    target = _log_tail_complement(eps, m)

    def log_product(k: float) -> float:
        t = _LN2 * k / n
        return math.fsum(_log1p_theta_weight(t, w) for w in weights)

    hi = float(n)
    while log_product(hi) < target:
        hi *= 2.0
    k_real = find_root_monotone(log_product, target, Bracket(0.0, hi), tol=1e-9)

    def err(k: int) -> float:
        return sc_error(theta_for_rate(k, n), dist, m, exact=True)

    k, e = _max_feasible_k(err, eps, k_real)
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
    k_real = _closed_form_k_real(dist, cfg)

    def err(k: int) -> float:
        return sc_error(theta_for_rate(k, n), dist=dist, antennas=m)

    k, e = _max_feasible_k(err, eps, k_real)
    return _finish(k, k_real, e, n, Method.SC_APPROX)


def sc_pdf(x, dist: SirDistribution, antennas: int):
    """Density of the SC-combined SIR (max over antennas), scaled-Lomax model.

    M * F(x)^(M-1) * f(x), elementwise over an array of SIR values. Where
    x*beta overflows, the argument is infinite and the density 0.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError(f"SIR must be nonnegative, got {x}")
    with np.errstate(over="ignore"):
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
    factor vanishes at x=0 for M>1, and the density is 0 at x=inf.
    """
    _check_count_shape(count, shape)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError(f"argument must be nonnegative, got {x}")
    log_arg = np.log1p(x / count)
    if count == 1:
        return shape * np.exp((-1.0 - shape) * log_arg)
    # log(0) = -inf makes the density 0 at x=0; at x=inf the sum is
    # -inf + inf, so the limit 0 is set there
    with np.errstate(divide="ignore", invalid="ignore"):
        log_power = (count - 1) * np.log(log_arg)
        log_pdf = (
            count * math.log(shape)
            + (count - 1) * math.log(count)
            - math.lgamma(count)
            + (-1.0 - count * shape) * log_arg
            + log_power
        )
    return np.where(np.isposinf(log_arg), 0.0, np.exp(log_pdf))


def _gamma_argument(x: float, count: int, shape: int) -> float:
    # shape*M*log1p(x/M): P(M, .) of it is the Lomax-sum CDF at x
    return shape * count * math.log1p(x / count)


def _check_arguments(xs: Sequence[float], count: int, shape: int) -> None:
    _check_count_shape(count, shape)
    for x in xs:
        if x < 0.0:
            raise ValueError(f"argument must be nonnegative, got {x}")


def lomax_sum_cdf(x: float, count: int, shape: int) -> float:
    """CDF approximation for a sum of Lomax(shape, 1) variables.

    P(M, shape*M*log1p(x/M)) through the lower regularized gamma directly,
    so 1e-9-level left-tail values are exact to relative precision.
    """
    _check_count_shape(count, shape)
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    return float(_special.gammainc(count, _gamma_argument(x, count, shape)))


def lomax_sum_cdf_curve(xs: Sequence[float], count: int, shape: int) -> list[float]:
    """lomax_sum_cdf at each of xs, bit for bit, from one gammainc call."""
    _check_arguments(xs, count, shape)
    args = [_gamma_argument(x, count, shape) for x in xs]
    return _special.gammainc(count, args).tolist()


def lomax_sum_cdf_lower_bound_curve(
    xs: Sequence[float], count: int, shape: int, linearize: bool = False
) -> list[float]:
    """The lower bound (1 - e^(-c*shape*M*ln(1+x/M)))^M on lomax_sum_cdf at each of xs.

    M is count and c = (M!)^(-1/M). Equality holds at count=1, and the bound
    is 0 at x=0. linearize=True substitutes x/M for ln(1+x/M), the variant
    some left-tail comparisons plot; the default keeps the exact logarithm.
    Each value is formed with scalar math calls, c*shape*M first.
    """
    _check_arguments(xs, count, shape)
    factor = math.exp(-math.lgamma(count + 1) / count) * shape * count
    bounds = []
    for x in xs:
        t = factor * (x / count if linearize else math.log1p(x / count))
        bounds.append(math.exp(count * math.log(-math.expm1(-t))) if t > 0.0 else 0.0)
    return bounds


def _check_probability(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {epsilon}")


# The seeded cell must hold x0*(1 +- _SEED_GUARD). gammaincinv puts x0 far
# closer to the root than this, so the root lies in the cell, and the cell's
# ends lie far outside the few ulps where lomax_sum_cdf's sign wobbles.
_SEED_GUARD = 2.0**-30


def mrc_quantile_numeric(epsilon: float, antennas: int, eta: int) -> float:
    """Invert lomax_sum_cdf at epsilon to within 1e-15*hi absolute: bisection's double.

    The answer is what bisection of [0, hi] down to tol = 1e-15*hi returns,
    where hi is the first M*2^j whose CDF reaches epsilon. hi >= M, so for a
    root far below M the relative error can be far above 1e-15 (2.4e-6 at a
    root of 1.4e-10*M). lomax_sum_cdf is P(M, eta*M*log1p(x/M)), so
    gammaincinv gives an estimate x0 = M*expm1(gammaincinv(M, epsilon)/(eta*M))
    of the root. The bisection's first levels are replayed without CDF
    calls, down to the cell (one of its intervals) that still holds all of
    x0*(1 +- 2^-30): it stops where the next midpoint would fall inside that
    band, or where the cell is 8*tol wide, so it holds at least four of the
    bisection's last intervals. If the CDF is strictly below epsilon at the cell's low end
    and strictly above it at its high end, a monotone CDF sends bisection of
    [0, hi] into this cell through the same midpoints, so bisection of the
    cell alone returns the same double.

    Where the estimate settles nothing (x0 zero, infinite or NaN, or a cell
    end where the CDF is not strictly on its side, as on the plateau where
    it rounds to epsilon near 1), the search runs on all of [0, hi].
    find_root_monotone returns the bisection's double from a handful of CDF
    calls, and no point's CDF is evaluated twice.
    """
    _check_probability(epsilon)
    _check_count_shape(antennas, eta)
    values: dict[float, float] = {}

    def cdf(x: float) -> float:
        value = values.get(x)
        if value is None:
            value = values[x] = lomax_sum_cdf(x, antennas, eta)
        return value

    gamma_root = _special.gammaincinv(antennas, epsilon)
    seed = antennas * math.expm1(gamma_root / (eta * antennas))
    seeded = 0.0 < seed < math.inf
    hi = float(antennas)
    while cdf(hi) < epsilon:
        hi *= 2.0
    tol = 1e-15 * hi
    if seeded:
        low, high = seed * (1.0 - _SEED_GUARD), seed * (1.0 + _SEED_GUARD)
        lo, top = 0.0, hi
        while top - lo > 8.0 * tol:
            mid = 0.5 * (lo + top)
            if mid <= low:
                lo = mid
            elif mid >= high:
                top = mid
            else:
                break
        if cdf(lo) < epsilon < cdf(top):
            return find_root_monotone(cdf, epsilon, Bracket(lo, top), tol=tol)
    return find_root_monotone(cdf, epsilon, Bracket(0.0, hi), tol=tol)


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
        * _log_tail_complement(epsilon, antennas)
    )


def _k_real(n: int, dist: SirDistribution, growth: float) -> float:
    """n*log2(1 + (eta/beta)*growth): the real payload at SIR threshold (eta/beta)*growth."""
    return n * math.log1p((dist.eta / dist.beta) * growth) / _LN2


def _closed_form_k_real(dist: SirDistribution, cfg: LinkConfig) -> float:
    """The asymptotic real payload in closed form, for either scheme.

    growth is expm1(L/eta) under SC, as `sc_kstar_approx` solves it, and the
    closed quantile (M!)^(1/M)/eta * L under MRC, as `mrc_kstar` with
    MRC_CLOSED does, with L = -log(1 - eps^(1/M)); no integer payload is
    settled.
    """
    if cfg.scheme is Scheme.SC:
        growth = math.expm1(_log_tail_complement(cfg.epsilon_th, cfg.antennas) / dist.eta)
    else:
        growth = mrc_quantile_closed(cfg.epsilon_th, cfg.antennas, dist.eta)
    return _k_real(cfg.blocklength, dist, growth)


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
    k_real = _k_real(n, dist, quantile)

    def err(k: int) -> float:
        return mrc_error(theta_for_rate(k, n), dist, m)

    k, e = _max_feasible_k(err, eps, k_real)
    return _finish(k, k_real, e, n, method)


def combined_sir_pdf(x, dist: SirDistribution, antennas: int, scheme: Scheme):
    """Density of the post-combining SIR at x, elementwise.

    SC: max of the per-antenna values. MRC: the combined SIR Psi relates to
    the normalized Lomax sum v through Psi = (eta/beta)*v, so
    f_Psi(x) = (beta/eta) * f_v(x*beta/eta). Where x*beta/eta overflows, the
    density is 0.
    """
    if Scheme(scheme) is Scheme.SC:
        return sc_pdf(x, dist, antennas)
    scale = dist.beta / dist.eta
    with np.errstate(over="ignore"):
        v = np.multiply(x, scale)
    return scale * lomax_sum_pdf(v, antennas, dist.eta)
