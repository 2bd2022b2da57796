"""Named self-checks: bound ordering, left-tail regression, Monte Carlo agreement.

Each check returns a CheckResult with a stable name and enough detail to
diagnose a failure. Thresholds marked FROZEN were measured once against the
reference setups and pinned; they are regression guards, not theory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .finite_blocklength import fb_error_average
from .names import SCOPES
from .numerics import Bracket, find_root_monotone, np
from .rate_control import _ASYMPTOTIC, LinkConfig, Method, Scheme, theta_for_rate
from .simulator import Semantics, SimSpec, run_sim
from .sir_model import SirDistribution, sir_cdf_approx, sir_cdf_exact
from .sweeps import CDF_SETUPS, preset_rows, solve

__all__ = [
    "CheckResult",
    "LEFT_TAIL_MAX_REL_ERROR",
    "MONTECARLO_POINTS",
    "SCOPES",
    "check_bound_ordering",
    "check_left_tail",
    "check_montecarlo",
    "check_upper_bound_random",
    "run_checks",
]

# FROZEN: the largest relative error of the scaled-Lomax CDF against the exact
# product CDF over setups A/B/C, restricted to the region where the exact CDF
# is <= 1e-2, measured at 2.8e-3 and pinned with headroom.
LEFT_TAIL_MAX_REL_ERROR = 3.5e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


def check_bound_ordering() -> list[CheckResult]:
    """Closed-form lower bound must never exceed the Lomax-sum CDF.

    Grid: the fig3 preset (x log-spaced over [1e-4, 5], antennas in
    {1,2,4,8,10}, eta in {2,4,8,12,20}); at a single antenna the two
    coincide to <= 1e-12.
    """
    worst_violation = 0.0
    worst_m1_gap = 0.0
    for row in preset_rows("fig3"):
        gap = row.lower_bound_exact_log - row.cdf
        worst_violation = max(worst_violation, gap)
        if row.antennas == 1:
            worst_m1_gap = max(worst_m1_gap, abs(gap))
    # at one antenna the two expressions coincide and only float rounding
    # separates them, so the ordering shares the 1e-12 equality tolerance
    ordering_ok = worst_violation <= 1e-12
    equality_ok = worst_m1_gap <= 1e-12
    return [
        CheckResult(
            "bounds.lower_bound_below_cdf",
            ordering_ok,
            {"worst_violation": worst_violation},
        ),
        CheckResult(
            "bounds.single_antenna_equality",
            equality_ok,
            {"worst_gap": worst_m1_gap, "tolerance": 1e-12},
        ),
    ]


def _left_tail_gamma_grid(topology: SirDistribution) -> np.ndarray:
    # upper edge: gamma where the exact CDF reaches 1e-2, then nine decades down
    def cdf(g: float) -> float:
        return sir_cdf_exact(g, topology)

    edge = find_root_monotone(cdf, 1e-2, Bracket.by_doubling(cdf, 1e-2, 1.0))
    top = math.log10(edge)
    return np.logspace(top - 9.0, top, 400)


def check_left_tail() -> list[CheckResult]:
    """Scaled-Lomax CDF relative error regression on the reference setups."""
    results = []
    for name, topology in CDF_SETUPS.items():
        worst = 0.0
        for gamma in _left_tail_gamma_grid(topology):
            exact = sir_cdf_exact(float(gamma), topology)
            if exact > 1e-2 or exact == 0.0:
                continue
            approx = sir_cdf_approx(float(gamma), topology)
            worst = max(worst, abs(approx - exact) / exact)
        results.append(
            CheckResult(
                f"tails.left_tail_relative_error.setup_{name}",
                worst <= LEFT_TAIL_MAX_REL_ERROR,
                {"worst_rel_error": worst, "threshold": LEFT_TAIL_MAX_REL_ERROR},
            )
        )
    return results


def check_upper_bound_random(draws: int = 1000, seed: int = 20260808) -> CheckResult:
    """The scaled-Lomax CDF upper-bounds the exact CDF on random topologies."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    for _ in range(draws):
        eta = int(rng.integers(1, 25))
        r0 = float(rng.uniform(5.0, 50.0))
        distances = tuple(float(d) for d in rng.uniform(r0, 40.0 * r0, size=eta))
        alpha = float(rng.uniform(2.1, 6.0))
        topology = SirDistribution.from_geometry(r0, distances, alpha)
        gamma = float(10.0 ** rng.uniform(-6.0, 2.0))
        exact = sir_cdf_exact(gamma, topology)
        approx = sir_cdf_approx(gamma, topology)
        gap = exact - approx  # positive would violate the bound
        if gap > 1e-15 * max(exact, 1e-300):
            violations += 1
            worst = max(worst, gap)
    return CheckResult(
        "tails.upper_bound_randomized",
        violations == 0,
        {"draws": draws, "violations": violations, "worst_gap": worst, "seed": seed},
    )


@dataclass(frozen=True)
class MonteCarloPoint:
    """One analytic-vs-empirical comparison point."""

    label: str
    scheme: Scheme
    antennas: int
    epsilon_target: float
    semantics: Semantics


# Operating points sit where each analytic form is inside its validated
# envelope, so a 1e7-trial Wilson interval brackets it. The SC prediction is
# exact at any depth; the sum-combining and averaged-error predictions carry
# the per-antenna model error at depth ~eps^(1/M), which was measured at
# +0.4% for the two-antenna points here but ~+9% at four antennas, so wider
# arrays are exercised through the exact SC prediction only. Deeper targets
# are out of Monte Carlo reach and are covered by property tests.
MONTECARLO_POINTS: tuple[MonteCarloPoint, ...] = (
    MonteCarloPoint("sc_m1", Scheme.SC, 1, 1e-3, Semantics.ASYMPTOTIC),
    MonteCarloPoint("sc_m2", Scheme.SC, 2, 1e-3, Semantics.ASYMPTOTIC),
    MonteCarloPoint("sc_m4", Scheme.SC, 4, 3e-3, Semantics.ASYMPTOTIC),
    MonteCarloPoint("mrc_m1", Scheme.MRC, 1, 1e-3, Semantics.ASYMPTOTIC),
    MonteCarloPoint("mrc_m2", Scheme.MRC, 2, 2e-4, Semantics.ASYMPTOTIC),
    MonteCarloPoint("fb_sc_m1", Scheme.SC, 1, 2e-4, Semantics.FINITE_BLOCKLENGTH),
    MonteCarloPoint("fb_sc_m2", Scheme.SC, 2, 2e-4, Semantics.FINITE_BLOCKLENGTH),
    MonteCarloPoint("fb_mrc_m1", Scheme.MRC, 1, 2e-4, Semantics.FINITE_BLOCKLENGTH),
    MonteCarloPoint("fb_mrc_m2", Scheme.MRC, 2, 2e-4, Semantics.FINITE_BLOCKLENGTH),
)


def _analytic_point(
    point: MonteCarloPoint, dist: SirDistribution, n: int
) -> tuple[int, float]:
    """Payload and analytic error prediction at one operating point."""
    cfg = LinkConfig(point.antennas, n, point.epsilon_target, point.scheme)
    method = Method.SC_EXACT if point.scheme is Scheme.SC else Method.MRC_NUMERIC
    k = max(solve(method, dist, cfg).k_star, 1)
    if point.semantics is Semantics.FINITE_BLOCKLENGTH:
        prediction = fb_error_average(dist, point.antennas, point.scheme, k, n).epsilon_fb
    else:
        prediction = _ASYMPTOTIC[method].error(theta_for_rate(k, n), dist, point.antennas)
    return k, prediction


def check_montecarlo(
    trials: int = 10**6,
    seed: int = 7,
    workers: int = 1,
    points: Optional[tuple[MonteCarloPoint, ...]] = None,
) -> list[CheckResult]:
    """Analytic predictions must land inside the simulator's 95% interval.

    SC predictions use the exact product CDF (no modeling error, pure
    sampling noise); MRC and finite-blocklength predictions carry the
    scaled-Lomax approximation, so their points sit deep enough that the
    modeling bias is well below the interval width. rel_gap and the binomial
    z-score of the prediction are None where their denominator is 0.
    """
    topology = CDF_SETUPS["B"]
    n = 200
    results = []
    for point in points if points is not None else MONTECARLO_POINTS:
        k, prediction = _analytic_point(point, topology, n)
        spec = SimSpec(
            topology=topology,
            antennas=point.antennas,
            scheme=point.scheme,
            threshold_bits=k,
            blocklength=n,
            semantics=point.semantics,
            trials=trials,
            seed=seed,
            workers=workers,
        )
        report = run_sim(spec)
        lo, hi = report.ci95
        empirical = report.epsilon_hat
        sigma = math.sqrt(prediction * (1.0 - prediction) / trials)
        results.append(
            CheckResult(
                f"montecarlo.{point.label}",
                lo <= prediction <= hi,
                {
                    "k": k,
                    "prediction": prediction,
                    "empirical": empirical,
                    "ci95": [lo, hi],
                    "rel_gap": prediction / empirical - 1.0 if empirical > 0.0 else None,
                    "z": (prediction - empirical) / sigma if sigma > 0.0 else None,
                    "trials": trials,
                    "seed": seed,
                },
            )
        )
    return results


def run_checks(
    scope: str, trials: int = 10**6, seed: int = 7, workers: int = 1
) -> list[CheckResult]:
    """Run the named validation scope and return every check's result."""
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected one of {SCOPES}")
    results: list[CheckResult] = []
    if scope in ("bounds", "all"):
        results.extend(check_bound_ordering())
    if scope in ("tails", "all"):
        results.extend(check_left_tail())
        results.append(check_upper_bound_random())
    if scope in ("montecarlo", "all"):
        results.extend(check_montecarlo(trials=trials, seed=seed, workers=workers))
    return results
