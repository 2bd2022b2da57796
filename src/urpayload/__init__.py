"""Payload sizing for ultra-reliable multi-antenna downlink links.

Closed-form and numeric maximum-payload allocation under a strict error
probability target, a finite-blocklength refinement, and a Monte Carlo link
simulator that serves as ground truth for all of it.
"""
from .finite_blocklength import (
    FbEvaluation,
    channel_dispersion,
    fb_error_average,
    fb_error_conditional,
    fb_kstar,
    shannon_capacity,
)
from .numerics import (
    Bracket,
    BracketError,
    find_root_monotone,
    integrate_semi_infinite,
)
from .rate_control import (
    LinkConfig,
    Method,
    RateSolution,
    Scheme,
    combined_sir_pdf,
    lomax_sum_cdf,
    lomax_sum_cdf_lower_bound_curve,
    lomax_sum_pdf,
    mrc_error,
    mrc_kstar,
    mrc_quantile_closed,
    mrc_quantile_numeric,
    sc_error,
    sc_kstar_approx,
    sc_kstar_exact,
    sc_pdf,
    theta_for_rate,
)
from .simulator import (
    Semantics,
    SimReport,
    SimSpec,
    UndersampledError,
    run_sim,
    sample_sir_block,
    wilson_interval,
)
from .sir_model import (
    SirDistribution,
    Topology,
    load_topology,
    sir_cdf_approx,
    sir_cdf_exact,
    sir_pdf_approx,
    sir_pdf_exact,
)

__version__ = "0.1.0"
