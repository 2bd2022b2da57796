import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from urpayload.simulator import sample_sir_block
from urpayload.sir_model import (
    SirDistribution,
    load_topology,
    sir_cdf_approx,
    sir_cdf_exact,
    sir_pdf_approx,
    sir_pdf_exact,
)

# Frozen 50-digit summation oracle for the three reference setups.
BETA_SETUP_A = 0.78625970537522757
BETA_SETUP_B = 0.30610241824737902
BETA_SETUP_C = 0.010709300113796469

# (serving distance, interferer distances, path-loss exponent)
GEOMETRY_A = (30.0, tuple(30.0 + 10.0 * j for j in range(1, 21)), 3.5)
GEOMETRY_B = (20.0, tuple(10.0 + 20.0 * j for j in range(1, 11)), 3.5)
GEOMETRY_C = (10.0, tuple(20.0 + 20.0 * j for j in range(1, 5)), 3.5)
SETUP_A = SirDistribution.from_geometry(*GEOMETRY_A)
SETUP_B = SirDistribution.from_geometry(*GEOMETRY_B)
SETUP_C = SirDistribution.from_geometry(*GEOMETRY_C)


def random_topology(rng: np.random.Generator) -> SirDistribution:
    eta = int(rng.integers(1, 20))
    r0 = float(rng.uniform(5.0, 60.0))
    distances = tuple(float(d) for d in rng.uniform(0.3 * r0, 50.0 * r0, size=eta))
    alpha = float(rng.uniform(2.05, 6.0))
    return SirDistribution.from_geometry(r0, distances, alpha)


class TestTopology:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SirDistribution.from_geometry(0.0, (10.0,), 3.5)
        with pytest.raises(ValueError):
            SirDistribution.from_geometry(10.0, (), 3.5)
        with pytest.raises(ValueError):
            SirDistribution.from_geometry(10.0, (10.0, -1.0), 3.5)
        with pytest.raises(ValueError):
            SirDistribution.from_geometry(10.0, (10.0,), 2.0)  # diverging far-field sum

    def test_duplicate_distances_allowed(self):
        topology = SirDistribution.from_geometry(10.0, (15.0, 15.0, 15.0), 3.5)
        assert topology.eta == 3

    def test_exact_law_equals_its_distribution(self):
        # the distances add nothing to the law: their path losses evaluate bit-equal
        for r0, distances, alpha in (GEOMETRY_A, GEOMETRY_B, GEOMETRY_C):
            topology = SirDistribution.from_geometry(r0, distances, alpha)
            dist = SirDistribution.from_path_losses(r0**alpha, [r ** (-alpha) for r in distances])
            for gamma in (0.0, 1e-7, 1e-3, 0.05, 2.0):
                assert sir_cdf_exact(gamma, topology) == sir_cdf_exact(gamma, dist)
                assert sir_pdf_exact(gamma, topology) == sir_pdf_exact(gamma, dist)

    @pytest.mark.parametrize("geometry", [GEOMETRY_A, GEOMETRY_B, GEOMETRY_C])
    def test_from_geometry_is_the_literal_formula(self, geometry):
        # w_j = r0^alpha * r_j^(-alpha) and beta = fsum(w), bit for bit
        r0, distances, alpha = geometry
        dist = SirDistribution.from_geometry(r0, distances, alpha)
        weights = tuple(r0**alpha * r ** (-alpha) for r in distances)
        assert dist.path_losses == weights
        assert dist.beta == math.fsum(weights)
        assert dist.eta == len(distances)


class TestBeta:
    def test_reference_topology_six_digits(self):
        assert SETUP_B.beta == pytest.approx(0.306102, abs=5e-7)

    def test_equal_distances_cancel(self):
        assert SirDistribution.from_geometry(1.0, (1.0,), 3.5).beta == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "topology,frozen",
        [(SETUP_A, BETA_SETUP_A), (SETUP_B, BETA_SETUP_B), (SETUP_C, BETA_SETUP_C)],
    )
    def test_against_high_precision_summation(self, topology, frozen):
        assert topology.beta == pytest.approx(frozen, rel=1e-14)

    def test_generalized_path_loss_entry_point(self):
        r0, distances, alpha = GEOMETRY_B
        l0 = r0**alpha
        lj = [r ** (-alpha) for r in distances]
        assert SirDistribution.from_path_losses(l0, lj).beta == pytest.approx(
            SETUP_B.beta, rel=1e-14
        )

    def test_path_loss_validation(self):
        with pytest.raises(ValueError):
            SirDistribution.from_path_losses(0.0, [1.0])
        with pytest.raises(ValueError):
            SirDistribution.from_path_losses(1.0, [])


class TestSirDistribution:
    def test_from_topology_sums_to_beta(self):
        dist = SirDistribution.from_topology(SETUP_B)  # a copy of any law
        assert dist == SETUP_B
        assert math.fsum(dist.path_losses) == pytest.approx(dist.beta, rel=1e-12)
        assert dist.eta == 10

    def test_from_beta_uses_equal_weights(self):
        dist = SirDistribution.from_beta(0.8, 8)
        assert dist.path_losses == (0.1,) * 8
        # equal weights make the arithmetic-geometric bound an equality
        for gamma in (0.01, 0.3, 2.0):
            assert sir_cdf_exact(gamma, dist) == pytest.approx(
                sir_cdf_approx(gamma, dist), rel=1e-12
            )

    def test_eta_counts_the_weights(self):
        assert SirDistribution(0.3, (0.1, 0.2)).eta == 2
        with pytest.raises(TypeError):  # derived, so never passed
            SirDistribution(0.3, (0.1, 0.2), eta=2)

    def test_inconsistent_beta_rejected(self):
        with pytest.raises(ValueError):
            SirDistribution(beta=1.0, path_losses=(0.1, 0.1))

    def test_non_integer_eta_rejected(self):
        with pytest.raises(ValueError):
            SirDistribution.from_beta(0.8, 8.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SirDistribution.from_beta(math.inf, 10)
        with pytest.raises(ValueError, match="finite"):
            SirDistribution(beta=1.0, path_losses=(math.inf, 1.0))
        with pytest.raises(ValueError, match="finite"):
            SirDistribution.from_path_losses(1e300, [1e300])
        with pytest.raises(ValueError, match="finite"):
            SirDistribution.from_geometry(math.inf, (30.0, 50.0), 3.5)
        with pytest.raises(ValueError):
            SirDistribution.from_geometry(20.0, (30.0, math.nan), 3.5)

    def test_sum_overflowing_in_fsum_rejected(self):
        # three thirds of the largest double: fsum's partial sums overflow
        # although the sum itself rounds into range
        with pytest.raises(ValueError, match="overflows"):
            SirDistribution.from_beta(sys.float_info.max, 3)


class TestExactCdf:
    def test_zero_threshold(self):
        assert sir_cdf_exact(0.0, SETUP_B) == 0.0

    def test_single_equidistant_interferer(self):
        # SIR = h/g with h, g unit exponentials: CDF x/(1+x); at x=1 -> 1/2
        topology = SirDistribution.from_geometry(25.0, (25.0,), 3.5)
        assert sir_cdf_exact(1.0, topology) == pytest.approx(0.5, rel=1e-12)

    def test_against_fading_samples(self, rng):
        gamma = 0.01
        sirs = sample_sir_block(SETUP_B, 1, 2_000_000, rng)[:, 0]
        empirical = np.count_nonzero(sirs < gamma) / sirs.size
        predicted = sir_cdf_exact(gamma, SETUP_B)
        sigma = math.sqrt(predicted * (1.0 - predicted) / sirs.size)
        assert abs(empirical - predicted) < 3.0 * sigma

    def test_tends_to_one(self):
        assert sir_cdf_exact(1e12, SETUP_B) == pytest.approx(1.0, abs=1e-9)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            sir_cdf_exact(-0.1, SETUP_B)


class TestApproxCdf:
    def test_zero_threshold(self):
        assert sir_cdf_approx(0.0, SETUP_B) == 0.0

    def test_upper_bounds_exact_generic_point(self):
        gamma = SETUP_B.eta * (2.0**1.0 - 1.0) / SETUP_B.beta
        assert sir_cdf_approx(gamma, SETUP_B) >= sir_cdf_exact(gamma, SETUP_B)

    def test_left_tail_gap_is_small(self):
        exact = sir_cdf_exact(0.02, SETUP_B)
        approx = sir_cdf_approx(0.02, SETUP_B)
        assert exact <= 1e-2  # this point sits in the left tail
        assert (approx - exact) / exact < 3.5e-3

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_upper_bound_property_randomized(self, seed):
        rng = np.random.default_rng(seed)
        dist = random_topology(rng)
        gamma = float(10.0 ** rng.uniform(-6.0, 2.0))
        exact = sir_cdf_exact(gamma, dist)
        approx = sir_cdf_approx(gamma, dist)
        assert approx >= exact - 1e-15 * max(exact, 1e-300)

    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=1e-4, max_value=5.0),
    )
    def test_monotone_nondecreasing(self, gamma, step):
        assert sir_cdf_approx(gamma + step, SETUP_B) >= sir_cdf_approx(gamma, SETUP_B)
        assert sir_cdf_exact(gamma + step, SETUP_B) >= sir_cdf_exact(gamma, SETUP_B)


class TestScaledLomaxIdentity:
    def test_matches_notation_formula_pointwise(self):
        # SIR = scale * X where X has CDF 1 - (1 + (q/p) y)^(-p) with p=eta,
        # q=1 evaluated at y = gamma * beta: algebraic identity with the
        # scaled-Lomax CDF
        eta, beta = SETUP_B.eta, SETUP_B.beta
        for gamma in np.logspace(-6.0, 2.0, 50):
            y = gamma * beta
            reference = -math.expm1(-eta * math.log1p(y / eta))
            assert sir_cdf_approx(float(gamma), SETUP_B) == pytest.approx(
                reference, rel=1e-12, abs=1e-300
            )


class TestApproxPdf:
    def test_value_at_origin_is_beta(self):
        assert sir_pdf_approx(0.0, SETUP_B) == SETUP_B.beta

    def test_normalization(self):
        mass, _ = integrate.quad(lambda x: sir_pdf_approx(x, SETUP_B), 0.0, math.inf)
        assert mass == pytest.approx(1.0, rel=1e-9)

    def test_central_difference_of_cdf(self):
        gamma, h = 0.05, 1e-6
        derivative = (
            sir_cdf_approx(gamma + h, SETUP_B) - sir_cdf_approx(gamma - h, SETUP_B)
        ) / (2.0 * h)
        assert sir_pdf_approx(gamma, SETUP_B) == pytest.approx(derivative, rel=1e-6)


class TestExactPdf:
    def test_central_difference_of_cdf(self):
        gamma, h = 0.05, 1e-6
        derivative = (
            sir_cdf_exact(gamma + h, SETUP_B) - sir_cdf_exact(gamma - h, SETUP_B)
        ) / (2.0 * h)
        assert sir_pdf_exact(gamma, SETUP_B) == pytest.approx(derivative, rel=1e-6)

    def test_normalization(self):
        mass, _ = integrate.quad(lambda x: sir_pdf_exact(x, SETUP_C), 0.0, math.inf)
        assert mass == pytest.approx(1.0, rel=1e-9)


class TestTopologyFile:
    def test_distance_layout(self, tmp_path):
        path = tmp_path / "topology.json"
        path.write_text(
            json.dumps({"r0": 20, "alpha": 3.5, "interferers": [30, 50, 70]})
        )
        dist = load_topology(path)
        assert dist == SirDistribution.from_geometry(20.0, (30.0, 50.0, 70.0), 3.5)
        assert dist.eta == 3

    def test_path_loss_layout(self, tmp_path):
        path = tmp_path / "topology.json"
        l0 = 20.0**3.5
        lj = [r ** (-3.5) for r in (30.0, 50.0, 70.0)]
        path.write_text(json.dumps({"path_losses": {"l0": l0, "lj": lj}}))
        dist = load_topology(path)
        assert isinstance(dist, SirDistribution)
        reference = SirDistribution.from_geometry(20.0, (30.0, 50.0, 70.0), 3.5)
        assert dist.beta == pytest.approx(reference.beta, rel=1e-12)

    def test_exactly_one_layout_required(self, tmp_path):
        both = tmp_path / "both.json"
        both.write_text(
            json.dumps(
                {
                    "r0": 20,
                    "alpha": 3.5,
                    "interferers": [30],
                    "path_losses": {"l0": 1, "lj": [1]},
                }
            )
        )
        with pytest.raises(ValueError):
            load_topology(both)
        neither = tmp_path / "neither.json"
        neither.write_text(json.dumps({"r0": 20, "alpha": 3.5}))
        with pytest.raises(ValueError):
            load_topology(neither)

    def test_missing_fields_reported(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"interferers": [30]}))
        with pytest.raises(ValueError, match="missing"):
            load_topology(path)
