"""Non-asymptotic error evaluation and the payload search under it.

At short blocklengths the sharp SIR-threshold picture breaks down: even
above threshold a block can fail, and the normal approximation gives the
conditional error of k bits over n channel uses at a given SIR. Averaging
that over the post-combining SIR density yields the average error, and the
payload search walks integer k from a seed until the average error meets the
target. The seed is the payload of the scheme's closed-form row of
`rate_control._ASYMPTOTIC` less the dispersion penalty of the normal
approximation (Polyanskiy, Poor and Verdu, IEEE T-IT 2010): where the log of
that row's error is linear in the rate, the Gaussian margin multiplies the
error by a constant, which costs n*lam*V/2 bits (`_seed_k`). The average is
a fixed trapezoid rule on a log-SIR grid. Its conditional error is exactly
1.0 below a narrow window of nodes, so one average evaluates the error only
on that window and takes the part below it from prefix sums of the density.
The window stops where the rate margin is _Z_TOP = 12 spreads, where the
error is below Q(12) ~ 1.8e-33, and a certificate decides per call whether
the nodes above may be dropped: they hold at most Q(12) times the law's
mass, and the cut stands where that is at most 2^-60 of the average, i.e.
for averages above about 2e-15. Below that, the average is summed again on
the window that runs to z = 40, above which the error is exactly 0.0. The
capacity, the spread and the window edges depend only on the blocklength and
are cached per blocklength. The density times x, its prefix sums and its
mass depend only on the law, the antennas, the scheme and the grid, and are
evaluated once per law: a bounded cache keeps those of the _LAW_CACHE_SIZE
laws used last, so solves that follow each other on one law reuse them, as
the figure presets' solves of one law's targets do.
`fb_error_average(dist, antennas, scheme, k, n)` and `fb_kstar(dist, cfg)`
are both keyed by the law and share it.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

from .numerics import (
    Bracket,
    find_root_monotone,
    grid_is_kept,
    integrate_semi_infinite,
    log_grid,
    np,
    special as _special,
    trapezoid_from_sums,
)
from .rate_control import (
    _ASYMPTOTIC,
    _CLOSED_FORM,
    LinkConfig,
    Method,
    RateSolution,
    Scheme,
    _finish,
    _max_feasible_k,
    combined_sir_pdf,
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
# The seed's SIR threshold 2^rate - 1 is squared in `channel_dispersion`,
# which overflows past 2^512; above this rate (bits per use) V is (log2 e)^2
# to the last digit and the seed is the closed form.
_MAX_SEED_RATE = 500.0

# The normal approximation is validated for n >= 100 channel uses.
_MIN_VALIDATED_BLOCKLENGTH = 100
# How far the density's mass on the integration grid may sit from 1.
_MASS_TOLERANCE = 1e-6
# 0.5*erfc(z/sqrt(2)) is exactly 1.0 below z = -8.5 (erfc(6.01) ~ 2e-17 is
# under half an ulp of 2) and exactly 0.0 above z = 40 (e^-800 underflows).
# The window runs to z = 40 only where the certificate below fails.
_Q_ONE_BELOW = -8.5
_Q_ZERO_ABOVE = 40.0
# The window's tight top edge. Every node above it has z > _Z_TOP, so Q <
# _Q_AT_TOP there (rounding the edge moves z by a few ulps and Q by under
# 1e-13 of itself), and each node adds Q times its term of the mass's
# trapezoid sum: the nodes above add at most _Q_AT_TOP * mass. They are
# dropped where that is at most _CUT_TOLERANCE = 2^-60 of the average, 1/128
# of the 2^-53 that rounding one sum already allows, which holds for averages
# above _Q_AT_TOP * 2^60 ~ 2.0e-15 at mass 1. Twelve spreads keep that floor
# far below the smallest average the figure presets take (5.6e-10) and
# evaluate Q on about a third fewer nodes than z = 40 does (z = 9 would lift
# the floor to 0.13); a 0 or NaN average, or a smaller one, is summed again
# up to z = 40, which gives the bits of the uncut window.
_Z_TOP = 12.0
_Q_AT_TOP = 0.5 * math.erfc(_Z_TOP / _SQRT2)
_CUT_TOLERANCE = 2.0**-60
# Laws whose per-law arrays are kept: the law in use and the one before it,
# 0.24 MB at the presets' grid of 7,411 nodes. The figure presets solve all
# the targets of one law back to back (`sweeps._KstarFigure`), so no law is
# needed again once the next has been built. The per-blocklength and per-law
# arrays are cached only on grids that `grid_is_kept` (n up to about 10^5):
# 2.2 MB per blocklength and 0.9 MB per law there, 1.8 MB for a full law
# cache.
_LAW_CACHE_SIZE = 2


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

    Q((C(SIR) - k/n) / sqrt(V(SIR)/n)) as 0.5*erfc(z/sqrt(2)), which is
    exactly 1.0 below z = -8.5 and exactly 0.0 above z = 40; a NaN SIR or
    payload gives NaN. At SIR=0 the dispersion vanishes and the limit is 1
    for any positive payload. The result is a new float64 array of the SIR's
    shape. The spread and the probability are each formed in one buffer, by
    the ufuncs of `channel_dispersion` and `shannon_capacity` in their order,
    so they hold those functions' doubles without a temporary per ufunc.
    """
    sir_arr = np.asarray(sir, dtype=float)
    spread, prob = np.empty_like(sir_arr), np.empty_like(sir_arr)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.square(np.add(1.0, sir_arr, out=spread), out=spread)
        np.subtract(1.0, np.divide(1.0, spread, out=spread), out=spread)
        np.multiply(spread, _LOG2E_SQ, out=spread)
        np.sqrt(np.divide(spread, n, out=spread), out=spread)
        np.multiply(np.log1p(sir_arr, out=prob), _LOG2E, out=prob)
        np.subtract(prob, k / n, out=prob)
        np.divide(np.divide(prob, spread, out=prob), _SQRT2, out=prob)
        np.multiply(0.5, _special.erfc(prob, out=prob), out=prob)
    np.copyto(prob, 1.0 if k > 0 else 0.5, where=sir_arr == 0.0)
    return prob


def _grid_step(n: int) -> float:
    # Q falls from 1 to 0 over about 1/sqrt(n) in ln SIR, so the log-SIR grid
    # puts a dozen nodes across that drop; 0.0115 already resolves the
    # densities themselves at short blocklengths.
    return min(0.0115, 0.5 / math.sqrt(n))


@functools.lru_cache(maxsize=16)
def _margins(n: int) -> tuple:
    """Grid spacing, capacity, spread and the window edges on blocklength n's grid.

    Q((C - r)/s) is exactly 1.0 where C + 8.5*s < r, below Q(_Z_TOP) where
    C - _Z_TOP*s > r and exactly 0.0 where C - 40*s > r. `rise` is the
    running maximum of C + 8.5*s, which is C + 8.5*s itself, as C and s
    increase along the grid; `tight` and `fall` are the suffix minima of
    C - _Z_TOP*s and C - 40*s. All three are nondecreasing, so `searchsorted`
    of the rate r on `rise` and on `tight` or `fall` bounds the nodes where
    Q is neither 1.0 nor below Q(_Z_TOP), or neither 1.0 nor 0.0. The last
    item counts the nodes at the bottom of the grid where s is 0. The arrays
    are shared, so they are read-only. The cache holds the nine blocklengths
    of the fig6 preset's sweep with room to spare; where the grid is not
    kept, `_law_average` calls the uncached `__wrapped__`.
    """
    x, h = log_grid(_grid_step(n))
    capacity = shannon_capacity(x)
    spread = np.sqrt(channel_dispersion(x) / n)
    rise = np.maximum.accumulate(capacity - _Q_ONE_BELOW * spread)
    tight, fall = (
        np.minimum.accumulate((capacity - z * spread)[::-1])[::-1]
        for z in (_Z_TOP, _Q_ZERO_ABOVE)
    )
    for array in (capacity, spread, rise, tight, fall):
        array.flags.writeable = False
    return h, capacity, spread, rise, tight, fall, int(np.count_nonzero(spread == 0.0))


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
    """g/2 for g = density * x on `log_grid(step)`'s nodes, g's prefix sums and mass.

    The density is the post-combining one of `combined_sir_pdf`, and the
    mass is `integrate_semi_infinite`'s value of it. g/2 is what
    `_ErrorAverage` multiplies by erfc on its window. The key is the whole
    law, so laws with equal (eta, beta) but other weights are apart. The
    arrays are shared, so they are read-only, and the density itself is not
    kept; where the grid is not kept, `_law_average` calls the uncached
    `__wrapped__`.
    """
    x, _ = log_grid(step)
    density = combined_sir_pdf(x, dist, antennas, scheme)
    mass, _ = integrate_semi_infinite(lambda _: density, step)
    g = density * x
    half, below = 0.5 * g, _prefix_sums(g)
    for array in (half, below):
        array.flags.writeable = False
    return half, below, mass


class _ErrorAverage:
    """The average error for one law and blocklength, as a function of k.

    The average is the trapezoid rule of `integrate_semi_infinite` on
    g = density * Q * x. Q is evaluated only on a window of nodes
    (`_window`): below it Q is exactly 1.0 and g is density * x, whose
    prefix sums over the even and over the odd nodes (`_prefix_sums`) are
    formed ahead, and above it g is taken as 0. An average therefore costs
    time in proportion to the window, not to the grid. The window first
    ends at the tight edge z = _Z_TOP, above which Q < Q(_Z_TOP); the nodes
    it skips add at most Q(_Z_TOP) times the law's mass, and where that
    bound is not at most _CUT_TOLERANCE of the value (or the value is 0 or
    NaN), the average is summed again on the window that ends at z = 40,
    above which Q is exactly 0.0. On the window, Q * g = (0.5*erfc) * g is
    formed as erfc * (g/2) from the law's halved g. Halving a normal double
    is exact, so each product is the unhalved form's, except where erfc is
    subnormal (Q < 2^-1022) and the product is rounded once instead of
    twice; the sums come out the same doubles. The window's values go into
    one buffer per evaluator.
    """

    def __init__(
        self, half_g: np.ndarray, below: np.ndarray, mass: float, margins: tuple, n: int
    ) -> None:
        self.n = n
        self.mass = mass
        self._h, self._capacity, self._spread, self._rise, self._tight, self._fall, self._flat = (
            margins
        )
        self._half_g = half_g
        self._below = below
        self._first = below.item(1, 0)  # g at node 0
        self._buffer = np.empty(len(half_g))

    def _window(self, k: float, top: np.ndarray) -> tuple[int, int, np.ndarray]:
        """(lo, hi, 2Q on nodes lo..hi-1) for the top edge `top`, `_tight` or `_fall`.

        Q is exactly 1.0 below lo; from hi it is below Q(_Z_TOP) for the
        tight edge and exactly 0.0 for `_fall`. The window is padded by one
        node on each side. 2Q is erfc(z/sqrt(2)) with z = (C - k/n)/s, as in
        `fb_error_conditional`, whose saturated values erfc returns exactly
        too. A NaN rate sorts above every edge, so the window is the last
        node, and 2Q there is NaN. The values live in the evaluator's buffer
        until its next call.
        """
        rate = k / self.n
        lo = max(int(self._rise.searchsorted(rate, "left")) - 1, 0)
        hi = min(int(top.searchsorted(rate, "right")) + 1, len(self._rise))
        q = np.subtract(self._capacity[lo:hi], rate, out=self._buffer[: hi - lo])
        if lo < self._flat:  # z is +-inf where s is 0, or NaN where C is the rate
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(q, self._spread[lo:hi], out=q)
        else:
            np.divide(q, self._spread[lo:hi], out=q)
        np.divide(q, _SQRT2, out=q)
        _special.erfc(q, out=q)
        return lo, hi, q

    def _sum(self, k: float, top: np.ndarray) -> tuple[float, float]:
        """The trapezoid rule and its error estimate with Q taken as 0 above `top`."""
        lo, hi, q = self._window(k, top)
        g = np.multiply(q, self._half_g[lo:hi], out=q)
        # Python floats: the same IEEE sums as numpy scalars', at a fraction
        # of the overhead
        even_below = self._below.item((lo + 1) // 2, 0)
        return trapezoid_from_sums(
            self._h,
            even_below + self._below.item(lo // 2, 1) + float(g.sum()),
            even_below + float(g[lo % 2 :: 2].sum()),
            self._first if lo > 0 else g[0],
            g[-1] if hi == len(self._half_g) else 0.0,
        )

    def __call__(self, k: float) -> tuple[float, float]:
        """(average error clamped to [0, 1], quadrature error estimate) at payload k."""
        value, err_estimate = self._sum(k, self._tight)
        if not _Q_AT_TOP * self.mass <= _CUT_TOLERANCE * value:
            value, err_estimate = self._sum(k, self._fall)
        return min(max(value, 0.0), 1.0), err_estimate


def _law_average(
    dist: SirDistribution, antennas: int, scheme: Scheme, n: int
) -> _ErrorAverage:
    """The law's average error at blocklength n, as a function of k.

    `_law_sums` and `_margins` are cached where `grid_is_kept` keeps the
    grid, so larger grids are not held; "sc" and Scheme.SC share an entry.
    """
    if n < _MIN_VALIDATED_BLOCKLENGTH:
        warnings.warn(
            f"normal approximation validated for n >= {_MIN_VALIDATED_BLOCKLENGTH}; "
            f"got n={n}",
            stacklevel=3,
        )
    step = _grid_step(n)
    law_sums, margins = _law_sums, _margins
    if not grid_is_kept(step):
        law_sums, margins = _law_sums.__wrapped__, _margins.__wrapped__
    return _ErrorAverage(*law_sums(dist, antennas, Scheme(scheme), step), margins(n), n)


def fb_error_average(
    dist: SirDistribution, antennas: int, scheme: Scheme, k: float, n: int
) -> FbEvaluation:
    """Average the conditional error over `combined_sir_pdf`'s density.

    A fixed trapezoid rule on the log-SIR grid of step min(0.0115,
    0.5/sqrt(n)); `fb_kstar` takes the same average from the same per-law
    cache, so at k* it is the predicted_epsilon. The mass is not checked.
    """
    epsilon, err_estimate = _law_average(dist, antennas, scheme, n)(k)
    return FbEvaluation(k=k, n=n, epsilon_fb=epsilon, quadrature_error_estimate=err_estimate)


def _seed_k(dist: SirDistribution, cfg: LinkConfig) -> float:
    """The closed-form payload k_cf less the dispersion penalty n*lam*V/2.

    k_cf and the error are those of the scheme's closed-form row (`_CLOSED_FORM`).
    lam is d ln(eps_asym)/dk at k_cf, a central difference over +-1/2 bit
    of that error, and V the dispersion at theta(k_cf).
    Where ln F_C is linear in the rate with slope n*lam, averaging over the
    Gaussian margin of spread s = sqrt(V/n) multiplies F_C by
    exp((n*lam*s)^2/2), which the rate pays back by n*lam*s^2/2. Falls back
    to k_cf where the slope or its logarithms are undefined.
    """
    row = _ASYMPTOTIC[_CLOSED_FORM[cfg.scheme]]
    k_cf = row.k_real(dist, cfg)
    n, antennas = cfg.blocklength, cfg.antennas
    if not (0.5 < k_cf and (k_cf + 0.5) / n < _MAX_SEED_RATE):
        return k_cf
    lower = row.error(theta_for_rate(k_cf - 0.5, n), dist, antennas)
    upper = row.error(theta_for_rate(k_cf + 0.5, n), dist, antennas)
    if not 0.0 < lower <= upper:
        return k_cf
    slope = math.log(upper) - math.log(lower)
    dispersion = float(channel_dispersion(theta_for_rate(k_cf, n)))
    seed = k_cf - 0.5 * n * slope * dispersion
    return seed if math.isfinite(seed) else k_cf


def fb_kstar(dist: SirDistribution, cfg: LinkConfig) -> RateSolution:
    """Maximum payload under the finite-blocklength error constraint.

    Seeds the search with the real payload k_cf of the configured scheme's
    closed-form row of `rate_control._ASYMPTOTIC` less its dispersion
    penalty n*lam*V/2 (`_seed_k`), then walks integer k (down while
    violating, up while slack remains) to the largest k whose average error
    stays within the target. The penalty is what a Gaussian rate margin of
    variance V/n costs an error whose log rises by lam per bit; the seed
    starts on k* in 471 of the figure presets' 648 solves, where k_cf did in
    157. The answer depends only on the average error, not on the seed.
    k_real refines the boundary where the average error equals the target,
    for smooth sweeps: the bisection's answer to 2^-30, from about three
    averages beyond err(k) and err(k+1), which the walk hands to the root
    finder as its bracket's ends. The root finder sees err(k) - eps in sign
    but |ln err(k) - ln eps| in size, which is close to linear over one bit,
    so its interpolation lands closer; bisection's answer depends only on
    the signs, so the double is the same. The density's arrays come from a
    cache of the _LAW_CACHE_SIZE laws used last, so a caller that solves
    one law's targets back to back builds them once.

    Raises ValueError when the density's mass on the integration grid is not
    1, i.e. when the SIR law lies outside the range the average covers, and
    when the target is not below the saturated average, the error with Q = 1
    on every node, which every payload meets.
    """
    n, eps = cfg.blocklength, cfg.epsilon_th
    average = _law_average(dist, cfg.antennas, cfg.scheme, n)
    if not abs(average.mass - 1.0) <= _MASS_TOLERANCE:
        raise ValueError(
            f"SIR density has mass {average.mass:.6g} on the integration range, not 1; "
            "the finite-blocklength average cannot cover this law"
        )
    # err(k) rises to the saturated average, which is within rounding of the
    # mass and so above any target below 1 - 2*_MASS_TOLERANCE; a target at
    # or above it leaves no infeasible k, and the walk would gallop until k/n
    # overflows
    if eps > 1.0 - 2 * _MASS_TOLERANCE:
        saturated, _ = average(math.inf)
        if not eps < saturated:
            raise ValueError(
                f"epsilon_th={eps!r} is not below the saturated finite-blocklength "
                f"error {saturated!r} of this law; every payload meets it"
            )

    log_eps = math.log(eps)

    def log_gap(e: float) -> float:
        # the sign of e - eps, the size of |ln e - ln eps|, kept above 0
        # where the logs round equal; 0, NaN and eps itself as is
        if e > 0.0 and e != eps:
            return math.copysign(max(abs(math.log(e) - log_eps), 5e-324), e - eps)
        return e - eps

    k, e, e_next = _max_feasible_k(lambda j: average(j)[0], eps, _seed_k(dist, cfg))
    k_real = 0.0
    if k >= 1:  # real-valued boundary: err(k) <= eps < err(k+1)
        bracket = Bracket(float(k), float(k + 1), log_gap(e), log_gap(e_next))
        k_real = find_root_monotone(lambda x: log_gap(average(x)[0]), 0.0, bracket, tol=2**-30)
    return _finish(k, k_real, e, n, Method.FB)
