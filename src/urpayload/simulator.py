"""Monte Carlo ground truth for the physical link model.

Samples the per-antenna SIR directly from its definition (unit-exponential
fading on the serving and every interfering link), combines across antennas,
and counts decoding errors under either the sharp-threshold semantics or the
finite-blocklength semantics (a Bernoulli failure with the conditional
error probability, one extra uniform per trial).

Reproducibility contract: trials are pre-partitioned into fixed-size blocks
of _BLOCK_TRIALS; block b draws from PCG64 seeded with SeedSequence([seed, b]).
Within a block the draw order is serving gains, then interferer gains, then
(finite-blocklength semantics only) the Bernoulli uniforms. The `workers`
setting only chooses how many threads consume the block queue, so reports
are bit-identical for any worker count.
"""
from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import dataclass
from functools import reduce
from typing import Optional

from .finite_blocklength import fb_error_conditional
from .names import Semantics, whole_number
from .numerics import np
from .rate_control import Scheme, theta_for_rate
from .sir_model import SirDistribution, check_fields, parse_topology, read_json

__all__ = [
    "MAX_TRIALS",
    "MAX_WORKERS",
    "Semantics",
    "SimReport",
    "SimSpec",
    "UndersampledError",
    "load_sim_spec",
    "run_sim",
    "sample_sir_block",
    "whole_number",
    "wilson_interval",
]

_BLOCK_TRIALS = 1 << 16
# interferer gains held at once while sampling a block: 512 KiB of float64s, so a
# chunk's passes stay in a 2 MiB per-core L2, where 2 MiB chunks streamed from L3
# (one thread, 2-core Xeon, topology B: M=1 5.0 -> 3.8 ms a block, M=2 12.3 -> 10.6)
_CHUNK_GAINS = 1 << 16
# A block keeps one _BLOCK_TRIALS x M float64 array (serving gains, then the
# SIR) per worker, 512 KiB per antenna, 128 MiB at this cap, plus one buffer
# of interferer gains of max(512 KiB, 8*eta*M bytes): a chunk holds whole
# trials, so past eta*M = 2^16 it is one trial, 2 GiB at this cap and eta's
# 10^6 (`sample_sir_block`). Far beyond it the allocation alone outgrows
# memory and the run stalls.
_MAX_ANTENNAS = 256
# run_sim keeps at most this many blocks per worker submitted and not yet
# reduced: enough that no worker waits while the oldest result is reduced
_PENDING_PER_WORKER = 4
# a variance-reduced run keeps two floats per block of _BLOCK_TRIALS trials
# for its exact sums, some 10 MB at this cap
MAX_TRIALS = 10**10
# The thread pool starts a thread per submitted block while none is idle, up
# to `workers`; a fixed cap keeps a spec valid on one machine valid on all.
MAX_WORKERS = 256
_Z95 = 1.959963984540054  # two-sided 95% normal quantile


class UndersampledError(ValueError):
    """Too few trials to resolve the stated target error probability."""


@dataclass(frozen=True)
class SimSpec:
    """Full description of one simulation run."""

    topology: SirDistribution
    antennas: int
    scheme: Scheme
    threshold_bits: int
    blocklength: int
    semantics: Semantics
    trials: int
    seed: int
    workers: int = 1
    variance_reduced: bool = False
    epsilon_target: Optional[float] = None
    allow_undersampled: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "semantics", Semantics(self.semantics))
        if not isinstance(self.topology, SirDistribution):
            raise TypeError(f"topology must be a SirDistribution, got {type(self.topology)!r}")
        if self.antennas < 1:
            raise ValueError(f"antennas must be >= 1, got {self.antennas}")
        if self.antennas > _MAX_ANTENNAS:
            raise ValueError(
                f"antennas must be at most {_MAX_ANTENNAS} in simulation, got {self.antennas}"
            )
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must lie in [1, {MAX_TRIALS}], got {self.trials}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must lie in [1, {MAX_WORKERS}], got {self.workers}")
        if self.threshold_bits < 0:
            raise ValueError(f"threshold_bits must be >= 0, got {self.threshold_bits}")
        if self.blocklength < 1:
            raise ValueError(f"blocklength must be >= 1, got {self.blocklength}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.variance_reduced and self.semantics is not Semantics.FINITE_BLOCKLENGTH:
            raise ValueError("variance_reduced applies to finite-blocklength semantics only")
        if self.epsilon_target is not None and not 0.0 < self.epsilon_target < 1.0:
            raise ValueError(f"epsilon_target must lie in (0, 1), got {self.epsilon_target}")
        if self.epsilon_target is not None and not self.allow_undersampled:
            needed = 30.0 / self.epsilon_target
            if self.trials < needed:
                raise UndersampledError(
                    f"{self.trials} trials cannot resolve epsilon ~ {self.epsilon_target:g} "
                    f"(need >= {needed:.3g}); pass allow_undersampled (the CLI's "
                    "--allow-undersampled) to override"
                )


@dataclass(frozen=True)
class SimReport:
    """Outcome of a simulation run.

    errors is None in variance-reduced mode, where epsilon_hat is the mean of
    the conditional error probabilities and ci95 a normal interval; otherwise
    epsilon_hat = errors/trials with a Wilson 95% interval. elapsed is
    wall-clock and deliberately excluded from json_record().
    """

    trials: int
    errors: Optional[int]
    epsilon_hat: float
    ci95: tuple[float, float]
    seed: int
    elapsed: float

    @property
    def blocks(self) -> int:
        return -(-self.trials // _BLOCK_TRIALS)  # the last one may be short

    def json_record(self) -> str:
        """Single-line JSON with the deterministic fields only."""
        return json.dumps(
            {
                "trials": self.trials,
                "errors": self.errors,
                "epsilon_hat": self.epsilon_hat,
                "ci95": list(self.ci95),
                "seed": self.seed,
            },
            separators=(", ", ": "),
        )


def _whole(doc: dict, key: str, default: Optional[int] = None) -> int:
    return whole_number(doc.get(key, default), f"simulation spec field {key!r}")


def _flag(doc: dict, key: str) -> bool:
    raw = doc.get(key, False)
    if not isinstance(raw, bool):
        raise ValueError(f"simulation spec field {key!r} must be true or false, got {raw!r}")
    return raw


def _target(doc: dict) -> Optional[float]:
    # JSON reads every number in (0, 1) as a float; SimSpec checks the range
    raw = doc.get("epsilon_target")
    if raw is not None and not isinstance(raw, float):
        raise ValueError(
            f"simulation spec field 'epsilon_target' must be a number in (0, 1), got {raw!r}"
        )
    return raw


def load_sim_spec(path) -> SimSpec:
    """Load a SimSpec from a JSON document.

    Required keys: topology (inline topology document: distances or path
    losses), antennas, scheme, k, n, semantics, trials, seed. Optional:
    workers, variance_reduced, epsilon_target, allow_undersampled. Counts
    must be finite whole numbers, the two flags JSON true or false, and
    epsilon_target a JSON number; anything else, a missing key or any other
    key is a ValueError that names the field.
    """
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError("simulation spec must be a JSON object")
    check_fields(
        doc,
        "simulation spec",
        ("topology", "antennas", "scheme", "k", "n", "semantics", "trials", "seed"),
        ("workers", "variance_reduced", "epsilon_target", "allow_undersampled"),
    )
    return SimSpec(
        topology=parse_topology(doc["topology"]),
        antennas=_whole(doc, "antennas"),
        scheme=Scheme(doc["scheme"]),
        threshold_bits=_whole(doc, "k"),
        blocklength=_whole(doc, "n"),
        semantics=Semantics(doc["semantics"]),
        trials=_whole(doc, "trials"),
        seed=_whole(doc, "seed"),
        workers=_whole(doc, "workers", 1),
        variance_reduced=_flag(doc, "variance_reduced"),
        epsilon_target=_target(doc),
        allow_undersampled=_flag(doc, "allow_undersampled"),
    )


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion; robust at extreme rates.

    The interval ends exactly at 0 with no errors and at 1 with all errors,
    where center - half and center + half would miss them by rounding.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p, z = errors / trials, _Z95
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    lo = 0.0 if errors == 0 else max(center - half, 0.0)
    hi = 1.0 if errors == trials else min(center + half, 1.0)
    return lo, hi


def _exponential(rng: np.random.Generator, shape) -> np.ndarray:
    # inverse transform of U ~ [0, 1): -log(1 - U) is Exp(1), formed in place
    u = rng.random(shape)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


def sample_sir_block(
    dist: SirDistribution, antennas: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw `trials` independent per-antenna SIR vectors; shape (trials, antennas).

    SIR_i = h_i / sum_j g_ji * w_j with h, g unit exponentials and w the
    law's interference weights `path_losses` (r0^alpha * r_j^(-alpha)).
    The interferer gains are drawn in chunks of whole trials, as many as
    _CHUNK_GAINS doubles hold and at least one, so a chunk is at most
    max(_CHUNK_GAINS, eta*antennas) doubles: max(512 KiB, 8*eta*antennas
    bytes). They come in the C order of one (trials, eta, antennas) draw and
    are kept as log1p(-U) = -g. Contracted with the negated weights,
    (-g)(-w) is g*w and (-0)(-w) is +0 exactly: the same doubles as one
    whole-block draw of g contracted with w. Every chunk is drawn into one
    buffer (`random(out=...)` takes the same stream), and its interference
    divides its rows of h in place, so a block holds the (trials, antennas)
    result, that buffer and one chunk's interference.
    """
    negated_weights = -np.asarray(dist.path_losses, dtype=float)
    h = _exponential(rng, (trials, antennas))
    step = max(1, _CHUNK_GAINS // (negated_weights.size * antennas))
    interference = np.empty((min(step, trials), antennas))
    gains = np.empty((min(step, trials), negated_weights.size, antennas))
    # inf past the largest double or over an all-zero interference row, NaN
    # for 0/0; einsum and log1p(-U) for U in [0, 1) raise no FP warning
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, trials, step):
            stop = min(start + step, trials)
            g = rng.random(out=gains[: stop - start])
            np.log1p(np.negative(g, out=g), out=g)
            # einsum, because tensordot and matmul sum in another order and
            # differ from it in the last bits
            chunk = interference[: stop - start]
            np.einsum("tja,j->ta", g, negated_weights, out=chunk)
            np.divide(h[start:stop], chunk, out=h[start:stop])
    return h


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, block]))


def _run_block(spec: SimSpec, theta: float | None, block: int, trials: int):
    rng = _block_rng(spec.seed, block)
    sir = sample_sir_block(spec.topology, spec.antennas, trials, rng)
    if spec.scheme is Scheme.MRC:
        with np.errstate(over="ignore"):  # a sum past the largest double is inf, as an SIR is
            combined = sir.sum(axis=1)
    else:  # a running max over the columns: max(axis=1)'s doubles, faster up to M = 16
        combined = reduce(np.maximum, sir.T)
    if spec.semantics is Semantics.ASYMPTOTIC:
        return int(np.count_nonzero(combined < theta))
    probs = fb_error_conditional(combined, spec.threshold_bits, spec.blocklength)
    if spec.variance_reduced:
        return float(probs.sum()), float(np.square(probs).sum())
    draws = rng.random(trials)
    return int(np.count_nonzero(draws < probs))


def _block_results(spec: SimSpec, theta: float | None, pool):
    """Each block's result in block order, submitting the next block to pool
    as the oldest is taken, so at most _PENDING_PER_WORKER * workers blocks
    are submitted and not yet taken."""
    pending = deque()
    for b, first in enumerate(range(0, spec.trials, _BLOCK_TRIALS)):
        if len(pending) == _PENDING_PER_WORKER * spec.workers:
            yield pending.popleft().result()
        size = min(_BLOCK_TRIALS, spec.trials - first)
        pending.append(pool.submit(_run_block, spec, theta, b, size))
    while pending:
        yield pending.popleft().result()


def run_sim(spec: SimSpec) -> SimReport:
    """Run the simulation described by spec and summarize it.

    Per-block results are reduced in block order so floating-point sums are
    reproducible; integer error counts are order-independent anyway. The
    variance-reduced sums keep two floats per block for `math.fsum`.
    """
    from concurrent.futures import ThreadPoolExecutor  # and logging: 5 ms of each start

    start = time.perf_counter()
    theta = None  # the finite-blocklength error needs no threshold
    if spec.semantics is Semantics.ASYMPTOTIC:
        theta = theta_for_rate(spec.threshold_bits, spec.blocklength)
    with ThreadPoolExecutor(max_workers=spec.workers) as pool:
        results = _block_results(spec, theta, pool)
        if spec.variance_reduced:
            sums, squares = [], []
            for block_sum, block_squares in results:
                sums.append(block_sum)
                squares.append(block_squares)
        else:
            errors = sum(results)

    elapsed = time.perf_counter() - start
    if spec.variance_reduced:
        mean = math.fsum(sums) / spec.trials
        var = max(math.fsum(squares) / spec.trials - mean * mean, 0.0)
        half = _Z95 * math.sqrt(var / spec.trials)
        return SimReport(
            trials=spec.trials,
            errors=None,
            epsilon_hat=mean,
            ci95=(max(mean - half, 0.0), min(mean + half, 1.0)),
            seed=spec.seed,
            elapsed=elapsed,
        )
    return SimReport(
        trials=spec.trials,
        errors=errors,
        epsilon_hat=errors / spec.trials,
        ci95=wilson_interval(errors, spec.trials),
        seed=spec.seed,
        elapsed=elapsed,
    )
