"""Parameter sweeps producing the reference figure datasets as CSV.

Each preset encodes one reference figure's parameters; generic sweeps move
one axis (target epsilon, beta, antenna count, or blocklength) while holding
the rest of the link fixed. Output rows are NamedTuples, one tuple
allocation each, whose fields are the CSV header, so the CSV writer, the CLI
and the tests all share one schema; files are byte-stable for fixed inputs:
metadata goes into '#' header comments and never includes timestamps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .finite_blocklength import fb_kstar
from .names import PRESET_NAMES, Axis
from .numerics import np
from .rate_control import (
    LinkConfig,
    Method,
    RateSolution,
    Scheme,
    asymptotic_kstar,
    lomax_sum_cdf,
    lomax_sum_cdf_lower_bound_curve,
)
from .sir_model import (
    SirDistribution,
    sir_cdf_approx,
    sir_cdf_exact,
    sir_pdf_approx,
    sir_pdf_exact,
)

__all__ = [
    "Axis",
    "BoundCurveRow",
    "CdfCurveRow",
    "PRESET_NAMES",
    "SweepRow",
    "SweepSpec",
    "preset_rows",
    "run_sweep",
    "solve",
    "write_csv",
]


def _axis_values(axis: Axis, values: Sequence[float]) -> tuple[float, ...]:
    """`values` as floats, refused unless there are some, none is NaN, those of
    an M or n axis are integers, and they are strictly ordered."""
    values = tuple(float(v) for v in values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    if any(math.isnan(v) for v in values):
        raise ValueError(f"{axis.value} values must not be NaN, got {values}")
    integral = all(v.is_integer() for v in values)  # False for inf
    if axis in (Axis.ANTENNAS, Axis.BLOCKLENGTH) and not integral:
        raise ValueError(f"{axis.value} values must be integers, got {values}")
    diffs = [b - a for a, b in zip(values, values[1:])]
    if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise ValueError("axis values must be strictly ordered")
    return values


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a moving axis, a fixed link, and the methods to evaluate."""

    axis: Axis
    values: tuple[float, ...]
    config: LinkConfig
    dist: SirDistribution
    methods: tuple[Method, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", Axis(self.axis))
        object.__setattr__(self, "values", _axis_values(self.axis, self.values))
        object.__setattr__(self, "methods", tuple(Method(m) for m in self.methods))
        if self.axis is Axis.BETA and len(set(self.dist.path_losses)) > 1:
            # each beta value is solved on from_beta's equal-weight law
            raise ValueError(
                "a beta sweep solves equal-weight laws; this law's path losses differ, "
                "so its own exact law would never be solved"
            )
        if not self.methods:
            raise ValueError("sweep needs at least one method")


class SweepRow(NamedTuple):
    """One (axis value, method) result with its full fixed-parameter context."""

    axis: str
    axis_value: float
    method: str
    scheme: str
    antennas: int
    blocklength: int
    eta: int
    beta: float
    epsilon_th: float
    k_star: int
    k_real: float
    rate: float
    theta: float
    predicted_epsilon: float
    infeasible: bool


def solve(
    method: Method, dist: SirDistribution, config: LinkConfig, topology=None
) -> RateSolution:
    """Solve one link with one method: FB by `fb_kstar`, the others by `asymptotic_kstar`.

    A method whose scheme is not config's raises ValueError.
    """
    del topology  # unused: bench/workloads.py passes `dist` again; ROADMAP item 7 drops it
    if Method(method) is Method.FB:
        return fb_kstar(dist, config)
    return asymptotic_kstar(method, dist, config)


def _at_axis_value(spec: SweepSpec, value: float) -> tuple[LinkConfig, SirDistribution]:
    cfg, dist = spec.config, spec.dist
    m, n, eps, scheme = cfg.antennas, cfg.blocklength, cfg.epsilon_th, cfg.scheme
    if spec.axis is Axis.EPSILON_TH:
        cfg = LinkConfig(m, n, value, scheme)
    elif spec.axis is Axis.BETA:
        dist = SirDistribution.from_beta(value, dist.eta)
    elif spec.axis is Axis.ANTENNAS:
        cfg = LinkConfig(int(value), n, eps, scheme)
    elif spec.axis is Axis.BLOCKLENGTH:
        cfg = LinkConfig(m, int(value), eps, scheme)
    return cfg, dist


def _rows_at_value(spec: SweepSpec, value: float) -> list[SweepRow]:
    cfg, dist = _at_axis_value(spec, value)
    rows = []
    for method in spec.methods:
        sol = solve(method, dist, cfg)
        rows.append(
            SweepRow(
                axis=spec.axis.value,
                axis_value=value,
                method=method.value,
                scheme=cfg.scheme.value,
                antennas=cfg.antennas,
                blocklength=cfg.blocklength,
                eta=dist.eta,
                beta=dist.beta,
                epsilon_th=cfg.epsilon_th,
                k_star=sol.k_star,
                k_real=sol.k_real,
                rate=sol.rate,
                theta=sol.theta,
                predicted_epsilon=sol.predicted_epsilon,
                infeasible=sol.infeasible,
            )
        )
    return rows


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the sweep; rows come back in axis order."""
    return [row for v in spec.values for row in _rows_at_value(spec, v)]


def _format_cell(value) -> str:
    # Python's own types first: the numpy checks below would import numpy
    kind = type(value)
    if kind is float:
        return repr(value)
    if kind is int or kind is str:
        return str(value)
    if kind is bool or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_csv(rows: Sequence, out, comments: Sequence[str] = ()) -> None:
    """Write NamedTuple rows as CSV, their fields the header, with '#' metadata comments up top."""
    if not rows:
        raise ValueError("no rows to write")
    text = "".join(
        [f"# {line}\n" for line in comments]
        + [",".join(type(rows[0])._fields) + "\n"]
        + [",".join(map(_format_cell, row)) + "\n" for row in rows]
    )
    if isinstance(out, (str, Path)):
        with open(out, "w") as handle:
            handle.write(text)
    else:
        out.write(text)


# --- figure presets ---------------------------------------------------------

# Left-tail comparison setups: (serving distance, interferer distances).
# B is also the reference topology of the epsilon sweep (beta = 0.306102...).
CDF_SETUPS: dict[str, SirDistribution] = {
    "A": SirDistribution.from_geometry(30.0, tuple(30.0 + 10.0 * j for j in range(1, 21)), 3.5),
    "B": SirDistribution.from_geometry(20.0, tuple(10.0 + 20.0 * j for j in range(1, 11)), 3.5),
    "C": SirDistribution.from_geometry(10.0, tuple(20.0 + 20.0 * j for j in range(1, 5)), 3.5),
}

_BOUND_GRID_ANTENNAS = (1, 2, 4, 8, 10)
_BOUND_GRID_ETA = (2, 4, 8, 12, 20)


class CdfCurveRow(NamedTuple):
    """Exact vs. scaled-Lomax CDF/PDF sample for one setup and SIR value."""

    setup: str
    gamma: float
    cdf_exact: float
    cdf_approx: float
    pdf_exact: float
    pdf_approx: float


class BoundCurveRow(NamedTuple):
    """Lomax-sum CDF vs. its closed-form lower bound at one grid point."""

    antennas: int
    eta: int
    x: float
    cdf: float
    lower_bound: float
    lower_bound_exact_log: float


@dataclass(frozen=True)
class _KstarFigure:
    """A payload figure: one sweep per target, antenna count and scheme.

    Rows come in that loop order. The link field that the axis moves is only
    a placeholder in `targets`, `antennas` or `blocklength`. Each antenna
    count and scheme walks the axis once and solves every target at a value
    before the next value, as the targets at one value solve the same law:
    a law's FB solves run back to back, so `fb_kstar`'s per-law cache needs
    to hold only the law in use.
    """

    axis: Axis
    values: Callable[[], tuple[float, ...]]  # called at each build: import loads no numpy
    dist: SirDistribution
    blocklength: int
    targets: tuple[float, ...]
    antennas: tuple[int, ...]
    methods: tuple[tuple[Scheme, tuple[Method, ...]], ...]  # per scheme

    def __call__(self) -> list[SweepRow]:
        values = _axis_values(self.axis, self.values())
        rows: dict[tuple[float, int, Scheme], list[SweepRow]] = {}
        for m in self.antennas:
            for scheme, methods in self.methods:
                specs = {
                    eps: SweepSpec(
                        self.axis,
                        values,
                        LinkConfig(m, self.blocklength, eps, scheme),
                        self.dist,
                        methods,
                    )
                    for eps in self.targets
                }
                for value in values:
                    for eps, spec in specs.items():
                        rows.setdefault((eps, m, scheme), []).extend(_rows_at_value(spec, value))
        return [
            row
            for eps in self.targets
            for m in self.antennas
            for scheme, _ in self.methods
            for row in rows[eps, m, scheme]
        ]


_EQUAL_WEIGHTS = SirDistribution.from_beta(0.8, 8)
_SC_FB = (Scheme.SC, (Method.SC_APPROX, Method.FB))
_MRC_FB = (Scheme.MRC, (Method.MRC_NUMERIC, Method.FB))

def _preset_cdf_curves() -> list[CdfCurveRow]:
    rows = []
    gammas = np.logspace(-4.0, 1.0, 100)
    for name, topology in CDF_SETUPS.items():
        for gamma in gammas:
            rows.append(
                CdfCurveRow(
                    setup=name,
                    gamma=float(gamma),
                    cdf_exact=sir_cdf_exact(gamma, topology),
                    cdf_approx=sir_cdf_approx(gamma, topology),
                    pdf_exact=sir_pdf_exact(gamma, topology),
                    pdf_approx=sir_pdf_approx(gamma, topology),
                )
            )
    return rows


def _preset_bound_curves() -> list[BoundCurveRow]:
    rows = []
    grid = np.logspace(-4.0, math.log10(5.0), 200).tolist()
    for antennas in _BOUND_GRID_ANTENNAS:
        for eta in _BOUND_GRID_ETA:
            curves = zip(
                grid,
                lomax_sum_cdf_lower_bound_curve(grid, antennas, eta, linearize=True),
                lomax_sum_cdf_lower_bound_curve(grid, antennas, eta, linearize=False),
            )
            rows.extend(
                BoundCurveRow(antennas, eta, x, lomax_sum_cdf(x, antennas, eta), linear, exact)
                for x, linear, exact in curves
            )
    return rows


# one builder per preset, in PRESET_NAMES order
_BUILDERS: tuple[Callable[[], list], ...] = (
    # fig2, payload vs. target epsilon: n=200, setup B, M in {1,2,4,8}, SC+MRC
    _KstarFigure(
        Axis.EPSILON_TH,
        lambda: tuple(np.logspace(-9.0, -1.0, 33)),
        CDF_SETUPS["B"],
        200,
        (1e-3,),
        (1, 2, 4, 8),
        ((Scheme.SC, (Method.SC_EXACT, Method.SC_APPROX, Method.FB)), _MRC_FB),
    ),
    _preset_cdf_curves,  # fig2pp
    _preset_bound_curves,  # fig3
    # fig4, payload vs. beta: n=200, eta=8, eps in {1e-2, 1e-6}, M in {1,2,4}
    _KstarFigure(
        Axis.BETA,
        lambda: tuple(np.logspace(math.log10(0.05), math.log10(5.0), 21)),
        _EQUAL_WEIGHTS,
        200,
        (1e-2, 1e-6),
        (1, 2, 4),
        (_SC_FB, _MRC_FB),
    ),
    # fig5, payload vs. antenna count: n=400, eta=8, beta=0.8, eps in {1e-3,1e-6,1e-9}
    _KstarFigure(
        Axis.ANTENNAS,
        lambda: tuple(float(m) for m in range(1, 17)),
        _EQUAL_WEIGHTS,
        400,
        (1e-3, 1e-6, 1e-9),
        (1,),
        (_SC_FB, (Scheme.MRC, (Method.MRC_NUMERIC, Method.MRC_CLOSED, Method.FB))),
    ),
    # fig6, rate vs. blocklength: SC, eta=8, beta=0.8, eps in {1e-3, 1e-6}; antenna
    # counts chosen so both targets stay feasible across the axis
    _KstarFigure(
        Axis.BLOCKLENGTH,
        lambda: (100.0, 200.0, 300.0, 400.0, 600.0, 800.0, 1200.0, 1600.0, 2000.0),
        _EQUAL_WEIGHTS,
        200,
        (1e-3, 1e-6),
        (4, 8),
        (_SC_FB,),
    ),
)
_PRESETS = dict(zip(PRESET_NAMES, _BUILDERS, strict=True))


def preset_rows(name: str, workers: int = 1) -> list:
    """Rows for a named figure preset; raises KeyError on unknown names."""
    del workers  # unused: bench/workloads.py passes it; ROADMAP item 7's bench change drops it
    try:
        build = _PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}") from None
    return build()
