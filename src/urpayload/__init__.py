"""Payload sizing for ultra-reliable multi-antenna downlink links.

Closed-form and numeric maximum-payload allocation under a strict error
probability target, a finite-blocklength refinement, and a Monte Carlo link
simulator that serves as ground truth for all of it.

`import urpayload` loads none of the modules below. Each exported name loads
its module on the first lookup (PEP 562), so `urp --help` pays for none of
them; `from urpayload import sweeps` imports a submodule as usual.
"""
import importlib

_MODULE_NAMES = {
    "finite_blocklength": (
        "FbEvaluation",
        "channel_dispersion",
        "fb_error_average",
        "fb_error_conditional",
        "fb_kstar",
        "shannon_capacity",
    ),
    "numerics": (
        "Bracket",
        "BracketError",
        "find_root_monotone",
        "integrate_semi_infinite",
    ),
    "rate_control": (
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
    ),
    "simulator": (
        "Semantics",
        "SimReport",
        "SimSpec",
        "UndersampledError",
        "run_sim",
        "sample_sir_block",
        "wilson_interval",
    ),
    "sir_model": (
        "SirDistribution",
        "load_topology",
        "sir_cdf_approx",
        "sir_cdf_exact",
        "sir_pdf_approx",
        "sir_pdf_exact",
    ),
}
_MODULE_OF = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        # a submodule, for `from urpayload import sweeps`, or no such name
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
