"""The per-antenna SIR law of a deterministic link topology.

The whole law is the vector of interferer weights w_j = r0^alpha * r_j^(-alpha)
(or l0 * l_j for general path losses). SirDistribution carries it: the full
vector gives the exact product-form CDF, and the pair (eta, beta = sum w_j)
gives the scaled-Lomax form obtained by replacing the product with its
arithmetic-geometric-mean bound. That bound is an upper bound on the CDF
everywhere and is tight in the left tail, which is exactly where reliability
targets live. Topology is the SirDistribution built from distances.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "SirDistribution",
    "Topology",
    "beta_from_path_losses",
    "beta_from_topology",
    "load_topology",
    "parse_topology",
    "sir_cdf_approx",
    "sir_cdf_exact",
    "sir_log_survival_approx",
    "sir_log_survival_exact",
    "sir_pdf_approx",
    "sir_pdf_exact",
]


def beta_from_path_losses(l0: float, lj: list[float] | tuple[float, ...]) -> float:
    """Generalized beta = l0 * sum_j l_j for arbitrary path-loss models.

    l_j is the path loss (channel gain) of the j-th interfering link and l0
    the reciprocal gain of the serving link (r0^alpha under power-law loss).
    """
    if not l0 > 0.0:
        raise ValueError(f"serving-link factor must be positive, got {l0}")
    if len(lj) < 1 or any(l <= 0.0 for l in lj):
        raise ValueError("interferer path losses must be a nonempty positive list")
    return l0 * math.fsum(lj)


@dataclass(frozen=True)
class SirDistribution:
    """Per-antenna SIR law in scaled-Lomax form, with the exact form retained.

    `path_losses` holds the serving-gain-normalized weights l0*l_j, so that
    sum(path_losses) == beta and the exact product CDF stays evaluable; the
    (eta, beta) pair alone drives the Lomax approximation.
    """

    eta: int
    beta: float
    path_losses: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "path_losses", tuple(float(w) for w in self.path_losses))
        if not (isinstance(self.eta, int) and self.eta >= 1):
            raise ValueError(f"eta must be a positive integer, got {self.eta!r}")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if len(self.path_losses) != self.eta:
            raise ValueError("path_losses length must equal eta")
        if not all(0.0 < w < math.inf for w in self.path_losses):
            raise ValueError("path losses must all be positive and finite")
        total = math.fsum(self.path_losses)
        if not math.isclose(total, self.beta, rel_tol=1e-9):
            raise ValueError(
                f"beta={self.beta} inconsistent with sum of path losses {total}"
            )

    @classmethod
    def from_topology(cls, topology: "Topology") -> "SirDistribution":
        """The law of `topology` without its distances."""
        return cls(eta=topology.eta, beta=topology.beta, path_losses=topology.path_losses)

    @classmethod
    def from_path_losses(
        cls, l0: float, lj: list[float] | tuple[float, ...]
    ) -> "SirDistribution":
        beta = beta_from_path_losses(l0, lj)
        return cls(eta=len(lj), beta=beta, path_losses=tuple(l0 * l for l in lj))

    @classmethod
    def from_beta(cls, beta: float, eta: int) -> "SirDistribution":
        """Law parameterized by (beta, eta) alone, as used from Fig-4-style sweeps.

        Equal weights beta/eta are the case where the arithmetic-geometric
        mean step is an equality, so here the approximate CDF IS the exact one.
        """
        if not (isinstance(eta, int) and eta >= 1):
            raise ValueError(f"eta must be a positive integer, got {eta!r}")
        if not beta > 0.0:
            raise ValueError(f"beta must be positive, got {beta}")
        return cls(eta=eta, beta=beta, path_losses=(beta / eta,) * eta)


@dataclass(frozen=True, init=False)
class Topology(SirDistribution):
    """Serving distance, interferer distances and path-loss exponent.

    Distances are in meters. alpha must exceed 2 or the far-field
    interference sum in the underlying model diverges. The SIR law is fixed
    at construction: path_losses are the interferer weights
    r0^alpha * r_j^(-alpha), and beta is their sum.
    """

    r0: float
    interferer_distances: tuple[float, ...]
    alpha: float

    def __init__(
        self, r0: float, interferer_distances: tuple[float, ...], alpha: float
    ) -> None:
        r0, alpha = float(r0), float(alpha)
        distances = tuple(float(r) for r in interferer_distances)
        if not r0 > 0.0:
            raise ValueError(f"serving distance must be positive, got {r0}")
        if not alpha > 2.0:
            raise ValueError(f"path-loss exponent must exceed 2, got {alpha}")
        if len(distances) < 1:
            raise ValueError("at least one interferer is required")
        if any(r <= 0.0 for r in distances):
            raise ValueError("interferer distances must all be positive")
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "interferer_distances", distances)
        object.__setattr__(self, "alpha", alpha)
        try:
            g0 = r0**alpha
            weights = tuple(g0 * r ** (-alpha) for r in distances)
        except OverflowError as exc:
            raise ValueError(f"path-loss weights overflow: {exc}") from None
        super().__init__(len(distances), beta=math.fsum(weights), path_losses=weights)


def beta_from_topology(topology: Topology) -> float:
    """Aggregate interference coupling beta = r0^alpha * sum_j r_j^(-alpha)."""
    return topology.beta


def _check_gamma(gamma: float) -> None:
    if gamma < 0.0:
        raise ValueError(f"SIR threshold must be nonnegative, got {gamma}")


def sir_log_survival_exact(gamma: float, dist: SirDistribution) -> float:
    """log P(SIR > gamma) under the exact product form: -sum_j log1p(gamma*w_j)."""
    _check_gamma(gamma)
    return -math.fsum(math.log1p(gamma * w) for w in dist.path_losses)


def sir_log_survival_approx(gamma: float, dist: SirDistribution) -> float:
    """log P(SIR > gamma) under the scaled-Lomax form: -eta*log1p(gamma*beta/eta)."""
    _check_gamma(gamma)
    return -dist.eta * math.log1p(gamma * dist.beta / dist.eta)


def sir_cdf_exact(gamma: float, dist: SirDistribution) -> float:
    """Exact per-antenna SIR CDF 1 - prod_j 1/(1 + gamma * w_j).

    Evaluated through the log-domain survival sum so left-tail values near 0
    keep relative precision.
    """
    return -math.expm1(sir_log_survival_exact(gamma, dist))


def sir_cdf_approx(gamma: float, dist: SirDistribution) -> float:
    """Scaled-Lomax upper bound 1 - (1 + gamma*beta/eta)^(-eta) on the SIR CDF."""
    return -math.expm1(sir_log_survival_approx(gamma, dist))


def sir_pdf_approx(gamma: float, dist: SirDistribution) -> float:
    """Scaled-Lomax per-antenna SIR density beta * (1 + gamma*beta/eta)^(-eta-1)."""
    _check_gamma(gamma)
    return dist.beta * math.exp(-(dist.eta + 1) * math.log1p(gamma * dist.beta / dist.eta))


def sir_pdf_exact(gamma: float, dist: SirDistribution) -> float:
    """Derivative of the exact CDF: survival(gamma) * sum_j w_j/(1 + gamma*w_j)."""
    _check_gamma(gamma)
    weights = dist.path_losses
    survival = math.exp(-math.fsum(math.log1p(gamma * w) for w in weights))
    return survival * math.fsum(w / (1.0 + gamma * w) for w in weights)


def load_topology(path: str | Path) -> SirDistribution:
    """Load a topology JSON file; see parse_topology for the layouts."""
    return parse_topology(json.loads(Path(path).read_text()))


def parse_topology(doc: dict) -> SirDistribution:
    """Build the SIR law described by a topology JSON document.

    Two layouts are accepted, exactly one of which must be present:
      {"r0": 20, "alpha": 3.5, "interferers": [30, 50, ...]}
      {"path_losses": {"l0": 1.2e4, "lj": [1e-5, ...]}}
    Distance inputs return a Topology, which also keeps the distances;
    path-loss inputs return the plain SirDistribution they determine.
    """
    has_distances = "interferers" in doc
    has_losses = "path_losses" in doc
    if has_distances == has_losses:
        raise ValueError(
            "topology file must contain exactly one of 'interferers' or 'path_losses'"
        )
    if has_distances:
        missing = [key for key in ("r0", "alpha") if key not in doc]
        if missing:
            raise ValueError(f"topology file missing fields: {missing}")
        return Topology(
            r0=doc["r0"],
            interferer_distances=tuple(doc["interferers"]),
            alpha=doc["alpha"],
        )
    losses = doc["path_losses"]
    missing = [key for key in ("l0", "lj") if key not in losses]
    if missing:
        raise ValueError(f"path_losses object missing fields: {missing}")
    return SirDistribution.from_path_losses(losses["l0"], tuple(losses["lj"]))
