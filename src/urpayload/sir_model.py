"""The per-antenna SIR law of a deterministic link topology.

The whole law is the vector of interferer weights w_j = r0^alpha * r_j^(-alpha)
(or l0 * l_j for general path losses). SirDistribution carries it: the full
vector gives the exact product-form CDF, and the pair (eta, beta = sum w_j)
gives the scaled-Lomax form obtained by replacing the product with its
arithmetic-geometric-mean bound. That bound is an upper bound on the CDF
everywhere and is tight in the left tail, which is exactly where reliability
targets live. Factories build it from distances, path losses or (beta, eta).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "SirDistribution",
    "load_topology",
    "parse_topology",
    "sir_cdf_approx",
    "sir_cdf_exact",
    "sir_pdf_approx",
    "sir_pdf_exact",
]

# A law holds one weight per interferer, and its exact CDF and the FB solve
# take time and memory in proportion: one exact M=4 solve at eta = 10^7
# took 2 s and 208 MB on 2 cores.
_MAX_ETA = 10**6


def _check_eta(eta: int) -> None:
    if eta > _MAX_ETA:
        raise ValueError(f"eta must be at most {_MAX_ETA} interferers, got {eta}")


@dataclass(frozen=True)
class SirDistribution:
    """Per-antenna SIR law in scaled-Lomax form, with the exact form retained.

    `path_losses` holds the serving-gain-normalized weights l0*l_j, so that
    sum(path_losses) == beta and the exact product CDF stays evaluable; the
    (eta, beta) pair alone drives the Lomax approximation.
    """

    beta: float
    path_losses: tuple[float, ...]
    eta: int = field(init=False)  # len(path_losses); not a property, as every error call reads it

    def __post_init__(self) -> None:
        _check_eta(len(self.path_losses))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "path_losses", tuple(float(w) for w in self.path_losses))
        object.__setattr__(self, "eta", len(self.path_losses))
        if not self.path_losses:
            raise ValueError("at least one interferer is required")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not all(0.0 < w < math.inf for w in self.path_losses):
            raise ValueError("path losses must all be positive and finite")
        try:
            total = math.fsum(self.path_losses)
        except OverflowError:  # a partial sum passes the largest double
            raise ValueError(f"sum of path losses overflows near beta={self.beta}") from None
        if not math.isclose(total, self.beta, rel_tol=1e-9):
            raise ValueError(
                f"beta={self.beta} inconsistent with sum of path losses {total}"
            )

    @classmethod
    def from_topology(cls, law: "SirDistribution") -> "SirDistribution":
        """A copy of `law`; kept for bench/workloads.py until ROADMAP item 7."""
        return cls(law.beta, law.path_losses)

    @classmethod
    def from_geometry(
        cls, r0: float, interferer_distances: tuple[float, ...], alpha: float
    ) -> "SirDistribution":
        """Law of a serving distance, interferer distances and path-loss exponent.

        Distances are in meters. alpha must exceed 2 or the far-field
        interference sum in the underlying model diverges. path_losses are the
        interferer weights r0^alpha * r_j^(-alpha), and beta is their sum.
        """
        r0, alpha = float(r0), float(alpha)
        distances = tuple(float(r) for r in interferer_distances)
        if not r0 > 0.0:
            raise ValueError(f"serving distance must be positive, got {r0}")
        if not alpha > 2.0:
            raise ValueError(f"path-loss exponent must exceed 2, got {alpha}")
        if any(r <= 0.0 for r in distances):
            raise ValueError("interferer distances must all be positive")
        try:
            g0 = r0**alpha
            weights = tuple(g0 * r ** (-alpha) for r in distances)
            beta = math.fsum(weights)
        except OverflowError as exc:
            raise ValueError(f"path-loss weights overflow: {exc}") from None
        return cls(beta, weights)

    @classmethod
    def from_path_losses(
        cls, l0: float, lj: list[float] | tuple[float, ...]
    ) -> "SirDistribution":
        """Law with the generalized beta = l0 * sum_j l_j of any path-loss model.

        l_j is the path loss (channel gain) of the j-th interfering link and l0
        the reciprocal gain of the serving link (r0^alpha under power-law loss).
        """
        if not l0 > 0.0:
            raise ValueError(f"serving-link factor must be positive, got {l0}")
        if len(lj) < 1 or any(l <= 0.0 for l in lj):
            raise ValueError("interferer path losses must be a nonempty positive list")
        beta = l0 * math.fsum(lj)
        return cls(beta, tuple(l0 * l for l in lj))

    @classmethod
    def from_beta(cls, beta: float, eta: int) -> "SirDistribution":
        """Law parameterized by (beta, eta) alone, as used from Fig-4-style sweeps.

        Equal weights beta/eta are the case where the arithmetic-geometric
        mean step is an equality, so here the approximate CDF IS the exact one.
        """
        if not (isinstance(eta, int) and eta >= 1):
            raise ValueError(f"eta must be a positive integer, got {eta!r}")
        _check_eta(eta)  # before the tuple of eta weights is built
        weight = beta / eta
        if weight == 0.0 < beta:
            raise ValueError(f"beta/eta underflows to 0 at beta={beta!r}, eta={eta}")
        total = weight * eta  # the fsum of the eta weights, which __post_init__ checks
        if 0.0 < total < math.inf and not math.isclose(total, beta, rel_tol=1e-9):
            raise ValueError(
                f"beta/eta rounds so the weights do not sum to beta at beta={beta!r}, eta={eta}"
            )
        return cls(beta, (weight,) * eta)  # __post_init__ refuses beta <= 0


# bench/workloads.py still builds its laws by this name; ROADMAP item 7 drops it
Topology = SirDistribution.from_geometry


def _check_gamma(gamma: float) -> None:
    if gamma < 0.0:
        raise ValueError(f"SIR threshold must be nonnegative, got {gamma}")


def sir_log_survival_exact(gamma: float, dist: SirDistribution) -> float:
    """log P(SIR > gamma) under the exact product form: -sum_j log1p(gamma*w_j)."""
    _check_gamma(gamma)
    return -math.fsum(math.log1p(gamma * w) for w in dist.path_losses)


def sir_cdf_exact(gamma: float, dist: SirDistribution) -> float:
    """Exact per-antenna SIR CDF 1 - prod_j 1/(1 + gamma * w_j).

    Evaluated through the log-domain survival sum so left-tail values near 0
    keep relative precision.
    """
    return -math.expm1(sir_log_survival_exact(gamma, dist))


def sir_cdf_approx(gamma: float, dist: SirDistribution) -> float:
    """Scaled-Lomax upper bound 1 - (1 + gamma*beta/eta)^(-eta) on the SIR CDF."""
    _check_gamma(gamma)
    return -math.expm1(-dist.eta * math.log1p(gamma * dist.beta / dist.eta))


def sir_pdf_approx(gamma: float, dist: SirDistribution) -> float:
    """Scaled-Lomax per-antenna SIR density beta * (1 + gamma*beta/eta)^(-eta-1)."""
    _check_gamma(gamma)
    return dist.beta * math.exp(-(dist.eta + 1) * math.log1p(gamma * dist.beta / dist.eta))


def sir_pdf_exact(gamma: float, dist: SirDistribution) -> float:
    """Derivative of the exact CDF: survival(gamma) * sum_j w_j/(1 + gamma*w_j)."""
    survival = math.exp(sir_log_survival_exact(gamma, dist))
    return survival * math.fsum(w / (1.0 + gamma * w) for w in dist.path_losses)


def read_json(path: str | Path):
    """The JSON document in `path`; over-deep nesting is a ValueError, too."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def load_topology(path: str | Path) -> SirDistribution:
    """Load a topology JSON file; see parse_topology for the layouts."""
    return parse_topology(read_json(path))


def check_fields(
    doc: dict, name: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> None:
    """Refuse a JSON object `name` that lacks a required key or has one outside its layout."""
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"{name} missing fields: {missing}")
    unknown = sorted(set(doc).difference(required, optional))
    if unknown:
        raise ValueError(f"{name} has unknown fields: {unknown}")


def _float(value, key: str) -> float:
    # bool is an int in Python, and JSON's true is no distance
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"topology field {key!r} holds {value!r}, not a number")
    try:
        return float(value)
    except OverflowError:  # a JSON integer past 1.8e308
        raise ValueError(f"topology field {key!r} is too large for a float") from None


def _floats(value, key: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ValueError(f"topology field {key!r} must be a list of numbers, got {value!r}")
    return tuple(_float(v, key) for v in value)


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    return value


def parse_topology(doc: dict) -> SirDistribution:
    """Build the SIR law described by a topology JSON document.

    Two layouts are accepted, exactly one of which must be present:
      {"r0": 20, "alpha": 3.5, "interferers": [30, 50, ...]}
      {"path_losses": {"l0": 1.2e4, "lj": [1e-5, ...]}}
    Both layouts return the SirDistribution they determine, through
    SirDistribution.from_geometry or SirDistribution.from_path_losses. The
    document and `path_losses` must be objects, `interferers` and `lj` lists
    of numbers, and `r0`, `alpha` and `l0` numbers; anything else, a
    missing key or a key outside the layout is a ValueError that names the
    field.
    """
    _object(doc, "topology")
    has_distances = "interferers" in doc
    has_losses = "path_losses" in doc
    if has_distances == has_losses:
        raise ValueError(
            "topology file must contain exactly one of 'interferers' or 'path_losses'"
        )
    if has_distances:
        check_fields(doc, "topology file", ("r0", "alpha", "interferers"))
        return SirDistribution.from_geometry(
            _float(doc["r0"], "r0"),
            _floats(doc["interferers"], "interferers"),
            _float(doc["alpha"], "alpha"),
        )
    check_fields(doc, "topology file", ("path_losses",))
    losses = _object(doc["path_losses"], "topology field 'path_losses'")
    check_fields(losses, "path_losses object", ("l0", "lj"))
    return SirDistribution.from_path_losses(
        _float(losses["l0"], "l0"), _floats(losses["lj"], "lj")
    )
