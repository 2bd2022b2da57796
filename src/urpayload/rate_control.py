"""Asymptotic (infinite-blocklength) maximum-payload allocation.

Given the per-antenna SIR law and a reliability target, these routines size
the largest payload k (bits per block of n channel uses) whose decoding
error probability stays below the target. Each asymptotic method is one row
of a table: the scheme it solves, its real payload (a closed form or a
root), and the error measure that `asymptotic_kstar` settles the integer
payload against. Selection combining has an exact product-form root and a
closed form; maximum-ratio combining goes through the distribution of a sum
of i.i.d. Lomax variables, with a numeric and a closed-form quantile. The
finite-blocklength search seeds from its scheme's closed-form row, which
`_CLOSED_FORM` names: that row's payload and error measure.
`combined_sir_pdf` is the one density of the combined SIR, for either
scheme, that the finite-blocklength average integrates. All left-tail
arithmetic is done in log domain, and the special functions are scalar
`cython_special` calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .names import Method, Scheme
from .numerics import (
    Bracket,
    find_root_monotone,
    np,
    special_scalar as _scalar,
)
from .sir_model import (
    SirDistribution,
    sir_cdf_approx,
    sir_cdf_exact,
    sir_log_survival_exact,
)

__all__ = [
    "LinkConfig",
    "Method",
    "RateSolution",
    "Scheme",
    "asymptotic_kstar",
    "combined_sir_pdf",
    "lomax_sum_cdf",
    "lomax_sum_cdf_lower_bound_curve",
    "mrc_error",
    "mrc_quantile_closed",
    "mrc_quantile_numeric",
    "sc_error",
    "theta_for_rate",
]

_LN2 = math.log(2.0)
# The FB grid has about 170*sqrt(n) nodes, 1.7 M at this cap, and payloads
# stay far below 2^52; past 2^53, (k + 1)/n rounds to k/n and the payload
# search never stops. The figures use n <= 2000.
_MAX_BLOCKLENGTH = 10**8


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


class RateSolution(NamedTuple):
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
) -> tuple[int, float, float]:
    """Largest k >= 0 with error_at_k(k) <= epsilon_th, and the errors at k and k + 1.

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
    return lo, errors[lo], errors[hi]


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


def _k_real(n: int, dist: SirDistribution, growth: float) -> float:
    """n*log2(1 + (eta/beta)*growth): the real payload at SIR threshold (eta/beta)*growth."""
    return n * math.log1p((dist.eta / dist.beta) * growth) / _LN2


def _sc_approx_k_real(dist: SirDistribution, cfg: LinkConfig) -> float:
    """The real SC payload in closed form: `_k_real` at growth expm1(L/eta).

    L = -log(1 - eps^(1/M)), so growth = (1-eps^(1/M))^(-1/eta) - 1, formed
    so that stringent targets keep precision.
    """
    growth = math.expm1(_log_tail_complement(cfg.epsilon_th, cfg.antennas) / dist.eta)
    return _k_real(cfg.blocklength, dist, growth)


def _sc_exact_k_real(dist: SirDistribution, cfg: LinkConfig) -> float:
    """The real SC payload from the exact product-form constraint.

    Solves prod_j(1 + theta(k)*w_j) = 1/(1 - eps^(1/M)) for real k with
    find_root_monotone on the log product (strictly increasing in k) to 1e-9,
    started from SC approx's `_sc_approx_k_real`: the bisection's answer
    from a handful of log products.
    """
    n = cfg.blocklength
    target = _log_tail_complement(cfg.epsilon_th, cfg.antennas)

    def log_product(k: float) -> float:
        try:
            theta = theta_for_rate(k, n)
        except ValueError:  # theta overflows; bisection needs only the sign
            return math.inf
        return -sir_log_survival_exact(theta, dist)

    bracket = Bracket.by_doubling(log_product, target, float(n))
    estimate = _sc_approx_k_real(dist, cfg)
    return find_root_monotone(log_product, target, bracket, tol=1e-9, guess=estimate)


def _check_count_shape(count: int, shape: int) -> None:
    if not (isinstance(count, int) and count >= 1):
        raise ValueError(f"count must be a positive integer, got {count!r}")
    if not (isinstance(shape, int) and shape >= 1):
        raise ValueError(f"shape must be a positive integer, got {shape!r}")


def lomax_sum_cdf(x: float, count: int, shape: int) -> float:
    """CDF approximation for a sum of Lomax(shape, 1) variables.

    P(M, shape*M*log1p(x/M)) through the lower regularized gamma directly,
    so 1e-9-level left-tail values are exact to relative precision. The
    scalar kernel gives the double that the `gammainc` ufunc gives.
    """
    _check_count_shape(count, shape)
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    return _scalar.gammainc(count, shape * count * math.log1p(x / count))


def lomax_sum_cdf_lower_bound_curve(
    xs: Sequence[float], count: int, shape: int, linearize: bool = False
) -> list[float]:
    """The lower bound (1 - e^(-c*shape*M*ln(1+x/M)))^M on lomax_sum_cdf at each of xs.

    M is count and c = (M!)^(-1/M). Equality holds at count=1, and the bound
    is 0 at x=0. linearize=True substitutes x/M for ln(1+x/M), the variant
    some left-tail comparisons plot; the default keeps the exact logarithm.
    Each value is formed with scalar math calls, c*shape*M first.
    """
    _check_count_shape(count, shape)
    factor = math.exp(-math.lgamma(count + 1) / count) * shape * count
    bounds = []
    for x in xs:
        if x < 0.0:
            raise ValueError(f"argument must be nonnegative, got {x}")
        t = factor * (x / count if linearize else math.log1p(x / count))
        bounds.append(math.exp(count * math.log(-math.expm1(-t))) if t > 0.0 else 0.0)
    return bounds


def _check_probability(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {epsilon}")


def mrc_quantile_numeric(epsilon: float, antennas: int, eta: int) -> float:
    """Invert lomax_sum_cdf at epsilon to within 1e-15*hi absolute: bisection's double.

    The answer is what bisection of [0, hi] down to tol = 1e-15*hi returns,
    where hi is the first M*2^j whose CDF reaches epsilon. hi >= M, so for a
    root far below M the relative error can be far above 1e-15 (2.4e-6 at a
    root of 1.4e-10*M). lomax_sum_cdf is P(M, eta*M*log1p(x/M)), so
    M*expm1(gammaincinv(M, epsilon)/(eta*M)) estimates the root, and
    find_root_monotone starts from it.
    """
    _check_probability(epsilon)
    _check_count_shape(antennas, eta)

    def cdf(x: float) -> float:
        return lomax_sum_cdf(x, antennas, eta)

    bracket = Bracket.by_doubling(cdf, epsilon, float(antennas))
    estimate = antennas * math.expm1(_scalar.gammaincinv(antennas, epsilon) / (eta * antennas))
    return find_root_monotone(cdf, epsilon, bracket, tol=1e-15 * bracket.hi, guess=estimate)


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


def mrc_error(theta: float, dist: SirDistribution, antennas: int) -> float:
    """MRC error probability: P(sum of per-antenna SIRs < theta).

    Uses the Lomax-sum model of the normalized sum, evaluated at
    beta*theta/eta.
    """
    if theta < 0.0:
        raise ValueError(f"SIR threshold must be nonnegative, got {theta}")
    return lomax_sum_cdf(dist.beta * theta / dist.eta, antennas, dist.eta)


class _Asymptotic(NamedTuple):
    """One asymptotic method: the scheme it solves, its real payload, and its error measure."""

    scheme: Scheme
    k_real: Callable[[SirDistribution, LinkConfig], float]
    error: Callable[[float, SirDistribution, int], float]


# The error measures are lambdas, so that `sc_error` and `mrc_error` are
# looked up in this module's globals at each call: a wrapper put on those
# names (a benchmark's call counter, a test's spy) sees every evaluation,
# which a function object captured here would bypass.
_ASYMPTOTIC: dict[Method, _Asymptotic] = {
    Method.SC_EXACT: _Asymptotic(
        Scheme.SC, _sc_exact_k_real, lambda t, dist, m: sc_error(t, dist, m, exact=True)
    ),
    Method.SC_APPROX: _Asymptotic(
        Scheme.SC, _sc_approx_k_real, lambda t, dist, m: sc_error(t, dist, m)
    ),
    Method.MRC_NUMERIC: _Asymptotic(
        Scheme.MRC,
        lambda dist, cfg: _k_real(
            cfg.blocklength, dist, mrc_quantile_numeric(cfg.epsilon_th, cfg.antennas, dist.eta)
        ),
        lambda t, dist, m: mrc_error(t, dist, m),
    ),
    Method.MRC_CLOSED: _Asymptotic(
        Scheme.MRC,
        lambda dist, cfg: _k_real(
            cfg.blocklength, dist, mrc_quantile_closed(cfg.epsilon_th, cfg.antennas, dist.eta)
        ),
        lambda t, dist, m: mrc_error(t, dist, m),
    ),
}
# The closed-form row of each scheme, which seeds the finite-blocklength search
_CLOSED_FORM: dict[Scheme, Method] = {Scheme.SC: Method.SC_APPROX, Scheme.MRC: Method.MRC_CLOSED}


def asymptotic_kstar(method: Method, dist: SirDistribution, cfg: LinkConfig) -> RateSolution:
    """Maximum payload under `method`, one of the asymptotic SC or MRC methods.

    The method's real payload k_real (a closed form or a root) is settled to
    the largest integer payload whose error, under the method's own measure,
    meets the target, so predicted_epsilon <= the target even where the
    closed MRC quantile overshoots. Raises ValueError for FB, which
    `fb_kstar` solves, and for a method whose scheme is not cfg's. The FB
    seed reads the same table: the closed-form row of its scheme.
    """
    method = Method(method)
    row = _ASYMPTOTIC.get(method)
    if row is None:
        raise ValueError(f"{method.value} is not an asymptotic method; fb_kstar solves it")
    if row.scheme is not cfg.scheme:
        raise ValueError(f"{method.value} requires an {row.scheme.name}-scheme config")
    n, m, eps, error = cfg.blocklength, cfg.antennas, cfg.epsilon_th, row.error
    k_real = row.k_real(dist, cfg)
    k, e, _ = _max_feasible_k(lambda j: error(theta_for_rate(j, n), dist, m), eps, k_real)
    return _finish(k, k_real, e, n, method)


def combined_sir_pdf(x, dist: SirDistribution, antennas: int, scheme: Scheme):
    """Density of the post-combining SIR at x under the scaled-Lomax model, elementwise.

    SC, the max over antennas: M * F(x)^(M-1) * f(x) with the per-antenna
    scaled-Lomax F and f. MRC: the combined SIR Psi relates to the normalized
    Lomax sum v through Psi = (eta/beta)*v, so f_Psi(x) = (beta/eta) * f_v(v)
    at v = x*beta/eta, where f_v(v) = (eta^M M^(M-1)/(M-1)!)
    (1+v/M)^(-1-M*eta) ln^(M-1)(1+v/M) is assembled in log domain; its
    log-power factor vanishes at v=0 for M>1. Where x*beta overflows, or x
    is infinite, the density is 0. Raises ValueError unless M is a positive
    integer and every x is nonnegative.
    """
    _check_count_shape(antennas, dist.eta)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError(f"SIR must be nonnegative, got {x}")
    eta, beta = dist.eta, dist.beta
    if Scheme(scheme) is Scheme.SC:
        with np.errstate(over="ignore"):
            log_arg = np.log1p(x * beta / eta)
        pdf = beta * np.exp(-(eta + 1) * log_arg)
        cdf = -np.expm1(-eta * log_arg)
        return antennas * cdf ** (antennas - 1) * pdf
    scale = beta / eta
    with np.errstate(over="ignore"):
        log_arg = np.log1p(x * scale / antennas)
    if antennas == 1:
        return scale * (eta * np.exp((-1.0 - eta) * log_arg))
    # log(0) = -inf makes the density 0 at x=0; at x=inf the sum is
    # -inf + inf, so the limit 0 is set there
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pdf = (
            antennas * math.log(eta)
            + (antennas - 1) * math.log(antennas)
            - math.lgamma(antennas)
            + (-1.0 - antennas * eta) * log_arg
            + (antennas - 1) * np.log(log_arg)
        )
    return scale * np.where(np.isposinf(log_arg), 0.0, np.exp(log_pdf))
