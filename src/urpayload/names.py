"""The vocabulary that the `urp` parser offers: schemes, methods, sweep axes,
simulation semantics, preset and check-scope names, and the count parser.

The solver modules import these names from here and re-export them, so
`rate_control.Scheme is names.Scheme`. This module imports nothing from the
package, so building the CLI parser loads no solver module.
"""
from __future__ import annotations

import math
from enum import Enum

__all__ = [
    "Axis",
    "Method",
    "PRESET_NAMES",
    "SCOPES",
    "Scheme",
    "Semantics",
    "whole_number",
]


class Scheme(str, Enum):
    SC = "sc"
    MRC = "mrc"


class Method(str, Enum):
    SC_EXACT = "sc_exact"
    SC_APPROX = "sc_approx"
    MRC_NUMERIC = "mrc_numeric"
    MRC_CLOSED = "mrc_closed"
    FB = "fb"


class Axis(str, Enum):
    EPSILON_TH = "eps"
    BETA = "beta"
    ANTENNAS = "M"
    BLOCKLENGTH = "n"


class Semantics(str, Enum):
    ASYMPTOTIC = "asymptotic"
    FINITE_BLOCKLENGTH = "fb"


# the figure presets of `sweeps`, in the order of its table
PRESET_NAMES = ("fig2", "fig2pp", "fig3", "fig4", "fig5", "fig6")

# the self-check groups of `validation`
SCOPES = ("tails", "bounds", "montecarlo", "all")


def whole_number(raw, name: str = "count") -> int:
    """A count from the CLI or a spec: an int as is, 1e4 or "1e4" as 10000; 2.7 or inf fails."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    try:
        value = float(raw) if isinstance(raw, (float, str)) else math.nan
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value.is_integer()):
        raise ValueError(f"{name} must be a whole number, got {raw!r}")
    return int(value)
