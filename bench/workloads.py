"""The benchmark's three workloads, each a closed loop in one process.

A workload builds its inputs from the seed once, then the runner calls
`run_pass` repeatedly. A pass is a fixed amount of work, so its wall time is
comparable across passes and runs; the outputs of every pass are checked
after its timed region, and each operation that raises or fails a check
counts as failed.

- figure_presets: every figure preset, serially, as `urp sweep --preset`
  does. 648 of its solves are finite-blocklength solves, so it loads
  `finite_blocklength` and the quadrature in `numerics`.
- link_sizing: a seeded stream of single-link queries through
  `sweeps.solve` for the four asymptotic methods, as `urp rate` does. It
  loads `rate_control`, `sir_model` and the bisections in `numerics`, and
  makes no finite-blocklength solve.
- ground_truth: seeded `run_sim` on one topology with two worker threads,
  as `urp simulate` does. It loads `simulator` and the array use of
  `fb_error_conditional`.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from urpayload import simulator, sweeps
from urpayload.rate_control import LinkConfig, Method, Scheme, theta_for_rate
from urpayload.simulator import Semantics, SimSpec
from urpayload.sir_model import SirDistribution, Topology, sir_cdf_exact

from calibration import Meter
from metrics import median, tail_percentile
from tracing import ASYMPTOTIC_METHODS, Tracer

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 1


@dataclass
class PassResult:
    """What one pass did: its time in raw and nominal seconds, its operations
    and the timings its workload reports per layer."""

    wall_s: float
    nominal_s: float
    attempted: int
    failed: int
    timings: dict = field(default_factory=dict)


def _report_failure(what: str) -> None:
    sys.stderr.write(f"FAILED {what}\n{traceback.format_exc()}")


# --- figure_presets ---------------------------------------------------------

# Exact columns must match the reference digit for digit; every other float
# may drift by REL_TOL, which a change of quadrature engine is expected to do.
EXACT_COLUMNS = frozenset({"k_star", "infeasible"})
REL_TOL = 1e-6


def _parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))


def _cell_matches(column: str, got: str, want: str) -> bool:
    if got == want:
        return True
    if column in EXACT_COLUMNS:
        return False
    try:
        return math.isclose(float(got), float(want), rel_tol=REL_TOL, abs_tol=0.0)
    except ValueError:
        return False


def compare_csv(text: str, reference: str) -> list[str]:
    """Differences between a preset CSV and its stored reference; [] if none.

    Also flags any row whose predicted_epsilon exceeds its epsilon_th.
    """
    got, want = _parse_csv(text), _parse_csv(reference)
    if not got or got[0] != want[0]:
        return [f"header {got[:1]} differs from reference {want[0]}"]
    if len(got) != len(want):
        return [f"{len(got) - 1} rows, reference has {len(want) - 1}"]
    header = want[0]
    problems = []
    for i, (row, ref) in enumerate(zip(got[1:], want[1:]), start=1):
        for column, a, b in zip(header, row, ref):
            if not _cell_matches(column, a, b):
                problems.append(f"row {i} {column}: {a} != reference {b}")
        values = dict(zip(header, row))
        if "predicted_epsilon" in values and float(values["predicted_epsilon"]) > float(
            values["epsilon_th"]
        ):
            problems.append(f"row {i}: predicted_epsilon above epsilon_th")
    return problems


def run_preset(name: str) -> tuple[str, float, float]:
    """One preset as the CSV text `urp sweep --preset` writes, with the
    seconds spent building the rows and writing them."""
    clock = time.perf_counter
    start = clock()
    rows = sweeps.preset_rows(name, workers=1)
    built = clock()
    buf = io.StringIO()
    sweeps.write_csv(rows, buf, comments=[f"preset: {name}"])
    return buf.getvalue(), built - start, clock() - built


class FigurePresets:
    """All figure presets, serially; the presets have no random inputs."""

    name = "figure_presets"
    SUMMARY_METRICS = ("sweeps.write_csv_s",) + tuple(
        f"sweeps.preset_s.{p}" for p in ("fig2", "fig2pp", "fig3", "fig4", "fig5", "fig6")
    )

    def __init__(self, seed: int) -> None:
        del seed
        self.reference = {
            path.stem: path.read_text()
            for path in sorted((REFERENCE_DIR / "figure_presets").glob("*.csv"))
        }

    def warm(self) -> None:
        dist = SirDistribution.from_beta(0.8, 8)
        sweeps.solve(Method.FB, dist, LinkConfig(2, 200, 1e-3, Scheme.SC))
        sweeps.preset_rows("fig2pp")

    def run_pass(self, meter: Meter, tracer: Optional[Tracer] = None) -> PassResult:
        outputs: dict[str, Optional[str]] = {}
        timings: dict[str, float] = {"sweeps.write_csv_s": 0.0}
        wall = nominal = 0.0
        # each preset is its own sampled segment: a pass is too long for one
        for request, name in enumerate(self.reference):
            if tracer:
                tracer.request = request
            try:
                (text, build_s, write_s), raw_s, nominal_s = meter.measure(
                    run_preset, name, sampled=True
                )
            except Exception:
                _report_failure(f"preset {name}")
                outputs[name] = None
                continue
            outputs[name] = text
            wall += raw_s
            nominal += nominal_s
            timings[f"sweeps.preset_s.{name}"] = build_s
            timings["sweeps.write_csv_s"] += write_s

        failed = 0
        for name, text in outputs.items():
            problems = ["raised"] if text is None else compare_csv(text, self.reference[name])
            if problems:
                failed += 1
                sys.stderr.write(f"preset {name}: {len(problems)} problems, first: {problems[0]}\n")
        return PassResult(wall, nominal, len(outputs), failed, timings)

    def summary(self, passes: list[PassResult]) -> dict[str, float]:
        return {
            key: median([p.timings.get(key, 0.0) for p in passes])
            for key in self.SUMMARY_METRICS
        }


# --- link_sizing ------------------------------------------------------------

QUERIES_PER_PASS = 1000
SOLVE_ORDER = (Method.SC_EXACT, Method.SC_APPROX, Method.MRC_NUMERIC, Method.MRC_CLOSED)


@dataclass(frozen=True)
class Query:
    topology: Topology
    dist: SirDistribution
    sc: LinkConfig
    mrc: LinkConfig


def make_queries(seed: int, count: int = QUERIES_PER_PASS) -> list[Query]:
    """Random single-link problems: eta 1-24, alpha 2.1-6, M 1-16, n 100-2000,
    eps log-uniform in [1e-9, 1e-1]; interferers 1x-10x the serving distance."""
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        eta = rng.randint(1, 24)
        alpha = rng.uniform(2.1, 6.0)
        r0 = rng.uniform(10.0, 50.0)
        distances = tuple(r0 * 10.0 ** rng.uniform(0.0, 1.0) for _ in range(eta))
        antennas = rng.randint(1, 16)
        n = rng.randint(100, 2000)
        eps = 10.0 ** rng.uniform(-9.0, -1.0)
        topology = Topology(r0, distances, alpha)
        queries.append(
            Query(
                topology,
                SirDistribution.from_topology(topology),
                LinkConfig(antennas, n, eps, Scheme.SC),
                LinkConfig(antennas, n, eps, Scheme.MRC),
            )
        )
    return queries


def solve_query(method: Method, query: Query):
    # sweeps.solve is looked up at call time, so a traced pass sees the wrapper
    scheme_cfg = query.sc if method in (Method.SC_EXACT, Method.SC_APPROX) else query.mrc
    topology = query.topology if method is Method.SC_EXACT else None
    return sweeps.solve(method, query.dist, scheme_cfg, topology)


def query_problems(query: Query, sols: dict) -> list[str]:
    """Invariants every query's four solutions must satisfy."""
    eps = query.sc.epsilon_th
    problems = [
        f"{m}: predicted_epsilon {s.predicted_epsilon!r} > eps {eps!r}"
        for m, s in sols.items()
        if not s.predicted_epsilon <= eps
    ]
    if sols["sc_approx"].k_star > sols["sc_exact"].k_star:
        problems.append("sc_approx.k_star > sc_exact.k_star")
    if sols["mrc_numeric"].k_star != sols["mrc_closed"].k_star:
        problems.append("mrc_numeric.k_star != mrc_closed.k_star")
    return problems


class LinkSizing:
    """Four asymptotic solves per seeded single-link query."""

    name = "link_sizing"
    SUMMARY_METRICS = ("solve_us_p50", "solve_us_p99") + tuple(
        f"rate_control.{m}.{q}" for m in ASYMPTOTIC_METHODS for q in ("us_p50", "us_p99")
    )

    def __init__(self, seed: int) -> None:
        self.queries = make_queries(seed)
        self.expected: Optional[list[list[int]]] = None
        if seed == DEFAULT_SEED:
            doc = json.loads((REFERENCE_DIR / "link_sizing.json").read_text())
            self.expected = doc["k_star"]

    def warm(self) -> None:
        for method in SOLVE_ORDER:
            solve_query(method, self.queries[0])

    def _solve_all(self, tracer: Optional[Tracer]):
        clock = time.perf_counter
        latency: dict[str, list[float]] = {m.value: [] for m in SOLVE_ORDER}
        solutions: list[Optional[dict]] = []
        for request, query in enumerate(self.queries):
            if tracer:
                tracer.request = request
            sols = {}
            try:
                for m in SOLVE_ORDER:
                    t0 = clock()
                    sols[m.value] = solve_query(m, query)
                    latency[m.value].append(clock() - t0)
            except Exception:
                _report_failure(f"query {request}")
                sols = None
            solutions.append(sols)
        return solutions, latency

    def run_pass(self, meter: Meter, tracer: Optional[Tracer] = None) -> PassResult:
        (solutions, latency), wall, nominal = meter.measure(self._solve_all, tracer)

        table = [[s[m.value].k_star for m in SOLVE_ORDER] if s else None for s in solutions]
        if self.expected is None:  # no stored reference for this seed: later passes must repeat
            self.expected = table
        expected = self.expected
        failed = 0
        for i, (query, sols) in enumerate(zip(self.queries, solutions)):
            problems = ["raised"] if sols is None else query_problems(query, sols)
            if sols is not None and table[i] != expected[i]:
                problems.append(f"k_star {table[i]} != reference {expected[i]}")
            if problems:
                failed += 1
                sys.stderr.write(f"query {i}: {'; '.join(problems)}\n")
        return PassResult(wall, nominal, len(self.queries), failed, latency)

    def summary(self, passes: list[PassResult]) -> dict[str, float]:
        per_method = {m: [t for p in passes for t in p.timings[m]] for m in ASYMPTOTIC_METHODS}
        pooled = [t for values in per_method.values() for t in values]
        out = {
            "solve_us_p50": 1e6 * median(pooled),
            "solve_us_p99": 1e6 * tail_percentile(pooled, 99),
        }
        for m, values in per_method.items():
            out[f"rate_control.{m}.us_p50"] = 1e6 * median(values)
            out[f"rate_control.{m}.us_p99"] = 1e6 * tail_percentile(values, 99)
        return out


# --- ground_truth -----------------------------------------------------------

# Topology B of the paper's left-tail comparison: serving link 20 m, ten
# interferers at 10+20j m, exponent 3.5.
TOPOLOGY_B = Topology(20.0, tuple(10.0 + 20.0 * j for j in range(1, 11)), 3.5)
BLOCKLENGTH = 200
WORKERS = 2
BLOCK = 1 << 16
Z_LIMIT = 5.0

# label: antennas, scheme, threshold bits, semantics, variance_reduced, trials.
# Thresholds put every error rate near 1e-3..1e-2, where the trials resolve it.
GROUND_TRUTH_SPECS = {
    "sc_m1": (1, Scheme.SC, 8, Semantics.ASYMPTOTIC, False, 16 * BLOCK),
    "mrc_m4": (4, Scheme.MRC, 250, Semantics.ASYMPTOTIC, False, 8 * BLOCK),
    "fb_sc_m2": (2, Scheme.SC, 30, Semantics.FINITE_BLOCKLENGTH, False, 8 * BLOCK),
    "fb_vr_mrc_m2": (2, Scheme.MRC, 60, Semantics.FINITE_BLOCKLENGTH, True, 8 * BLOCK),
}


def ground_truth_specs(seed: int) -> dict[str, SimSpec]:
    return {
        label: SimSpec(
            topology=TOPOLOGY_B,
            antennas=antennas,
            scheme=scheme,
            threshold_bits=bits,
            blocklength=BLOCKLENGTH,
            semantics=semantics,
            trials=trials,
            seed=seed,
            workers=WORKERS,
            variance_reduced=vr,
        )
        for label, (antennas, scheme, bits, semantics, vr, trials) in GROUND_TRUTH_SPECS.items()
    }


def sc_m1_zscore(record: str) -> float:
    """Distance of the SC M=1 estimate from the exact product-CDF prediction, in sigmas."""
    doc = json.loads(record)
    _, _, bits, _, _, trials = GROUND_TRUTH_SPECS["sc_m1"]
    p = sir_cdf_exact(theta_for_rate(bits, BLOCKLENGTH), TOPOLOGY_B)
    return (doc["epsilon_hat"] - p) / math.sqrt(p * (1.0 - p) / trials)


def _simulate(spec: SimSpec):
    """run_sim, with the process CPU time that all its threads used."""
    cpu = time.process_time()
    report = simulator.run_sim(spec)
    return report, time.process_time() - cpu


class GroundTruth:
    """Four seeded simulations per pass, two worker threads each."""

    name = "ground_truth"
    SUMMARY_METRICS = ("trials_per_s", "simulator.parallel_efficiency") + tuple(
        f"simulator.trials_per_s.{label}" for label in GROUND_TRUTH_SPECS
    )

    def __init__(self, seed: int) -> None:
        self.specs = ground_truth_specs(seed)
        self.expected: Optional[dict[str, str]] = None
        if seed == DEFAULT_SEED:
            self.expected = json.loads((REFERENCE_DIR / "ground_truth.json").read_text())
        self.zscore: Optional[float] = None

    def warm(self) -> None:
        simulator.run_sim(dataclasses.replace(self.specs["mrc_m4"], trials=2 * BLOCK, seed=0))

    def run_pass(self, meter: Meter, tracer: Optional[Tracer] = None) -> PassResult:
        records: dict[str, Optional[str]] = {}
        timings: dict[str, float] = {"cpu_s": 0.0}
        wall = nominal = 0.0
        # each simulation is its own segment, so the calibration kernel runs
        # every ~0.1 s; sampling inside it would contend with the worker threads
        for request, (label, spec) in enumerate(self.specs.items()):
            if tracer:
                tracer.request = request
            try:
                (report, cpu_s), raw_s, nominal_s = meter.measure(_simulate, spec)
            except Exception:
                _report_failure(f"simulation {label}")
                records[label] = None
                continue
            records[label] = report.json_record()
            timings[label] = raw_s
            timings["cpu_s"] += cpu_s
            wall += raw_s
            nominal += nominal_s

        if self.expected is None:  # no stored reference for this seed: later passes must repeat
            self.expected = records
        expected = self.expected
        failed = 0
        for label, record in records.items():
            problem = None
            if record is None:
                problem = "raised"
            elif record != expected[label]:
                problem = f"record {record} != reference {expected[label]}"
            elif label == "sc_m1":
                self.zscore = sc_m1_zscore(record)
                if not abs(self.zscore) <= Z_LIMIT:
                    problem = f"estimate {self.zscore:+.2f} sigma from the exact SC CDF"
            if problem:
                failed += 1
                sys.stderr.write(f"simulation {label}: {problem}\n")
        return PassResult(wall, nominal, len(records), failed, timings)

    def summary(self, passes: list[PassResult]) -> dict[str, float]:
        trials = {label: spec.trials for label, spec in self.specs.items()}
        sim_wall = sum(p.timings.get(label, 0.0) for p in passes for label in trials)
        out = {
            "trials_per_s": sum(trials.values()) * len(passes) / sim_wall,
            "simulator.parallel_efficiency": sum(p.timings["cpu_s"] for p in passes)
            / (WORKERS * sim_wall),
        }
        for label, count in trials.items():
            out[f"simulator.trials_per_s.{label}"] = count / median(
                [p.timings[label] for p in passes]
            )
        return out


WORKLOADS = {w.name: w for w in (FigurePresets, LinkSizing, GroundTruth)}
