import json
import math
import tracemalloc

import numpy as np
import pytest

from urpayload.finite_blocklength import fb_error_average
from urpayload.rate_control import Scheme, sc_error, theta_for_rate
from urpayload.simulator import (
    Semantics,
    SimSpec,
    UndersampledError,
    load_sim_spec,
    run_sim,
    sample_sir_block,
    wilson_interval,
)
from urpayload.sir_model import SirDistribution, sir_cdf_exact

from .test_sir_model import SETUP_A, SETUP_B, SETUP_C

# one-sided Kolmogorov-Smirnov critical coefficient at the 1% level
KS_CRITICAL_1PCT = 1.628


def spec_for(topology, **overrides) -> SimSpec:
    base = dict(
        topology=topology,
        antennas=2,
        scheme=Scheme.SC,
        threshold_bits=8,
        blocklength=200,
        semantics=Semantics.ASYMPTOTIC,
        trials=10**5,
        seed=11,
        workers=1,
    )
    base.update(overrides)
    return SimSpec(**base)


class TestSampleSir:
    def test_shape_and_positivity(self, rng):
        values = sample_sir_block(SETUP_B, 4, 1, rng)[0]
        assert values.shape == (4,)
        assert np.all(values > 0.0)

    def test_symmetric_exponential_ratio(self, rng):
        # single interferer at the serving distance: SIR = h/g, CDF x/(1+x)
        topology = SirDistribution.from_geometry(25.0, (25.0,), 3.5)
        sirs = sample_sir_block(topology, 1, 10**6, rng)[:, 0]
        empirical = np.count_nonzero(sirs < 1.0) / sirs.size
        sigma = math.sqrt(0.25 / sirs.size)
        assert abs(empirical - 0.5) < 3.0 * sigma

    def test_per_antenna_cdf_on_grid(self, rng):
        # setup with four interferers: empirical CDF vs. the product form at
        # twenty thresholds
        sirs = sample_sir_block(SETUP_C, 1, 10**6, rng)[:, 0]
        for gamma in np.logspace(-2.0, 1.0, 20):
            predicted = sir_cdf_exact(float(gamma), SETUP_C)
            empirical = np.count_nonzero(sirs < gamma) / sirs.size
            sigma = math.sqrt(predicted * (1.0 - predicted) / sirs.size)
            assert abs(empirical - predicted) <= 3.5 * sigma

    @pytest.mark.parametrize("topology", [SETUP_A, SETUP_B, SETUP_C])
    def test_kolmogorov_smirnov_at_one_percent(self, topology, rng):
        n = 10**6
        sirs = np.sort(sample_sir_block(topology, 1, n, rng)[:, 0])
        model = np.array([sir_cdf_exact(float(x), topology) for x in sirs[:: n // 2000]])
        empirical = np.arange(0, n, n // 2000) / n
        statistic = float(np.max(np.abs(model - empirical)))
        assert statistic * math.sqrt(n) < KS_CRITICAL_1PCT

    def test_distribution_source_accepted(self, rng):
        dist = SirDistribution.from_beta(0.8, 8)
        values = sample_sir_block(dist, 2, 1000, rng)
        assert values.shape == (1000, 2)


def one_shot_sample_sir_block(dist, antennas, trials, rng):
    # reference: the whole block's interferer gains drawn as one array
    weights = np.asarray(dist.path_losses, dtype=float)
    h = -np.log1p(-rng.random((trials, antennas)))
    g = -np.log1p(-rng.random((trials, weights.size, antennas)))
    return h / np.einsum("tja,j->ta", g, weights)


class TestSampleSirBlockChunks:
    @pytest.mark.parametrize(
        "eta, antennas, trials",
        [
            (1, 1, 1),
            (3, 2, 1000),
            (1, 8, 65536),  # two whole chunks
            (10, 4, 65536),  # 6553 trials per chunk, the last one short
            (24, 8, 4097),
            (24, 16, 700),
            (600, 512, 3),  # eta*M above the chunk: one trial per chunk
        ],
    )
    def test_equals_one_shot_draw(self, eta, antennas, trials):
        weights = tuple(np.random.default_rng(eta).uniform(0.01, 3.0, eta))
        dist = SirDistribution.from_path_losses(1.0, weights)
        chunked_rng = np.random.default_rng([5, eta, antennas, trials])
        one_shot_rng = np.random.default_rng([5, eta, antennas, trials])
        chunked = sample_sir_block(dist, antennas, trials, chunked_rng)
        expected = one_shot_sample_sir_block(dist, antennas, trials, one_shot_rng)
        assert chunked.shape == (trials, antennas)
        assert chunked.tobytes() == expected.tobytes()
        assert chunked_rng.random(3).tobytes() == one_shot_rng.random(3).tobytes()

    def test_block_memory_is_capped(self):
        # the one-shot draw peaks at 392 MiB here: 65536*24*16 gains, and temporaries
        dist = SirDistribution.from_beta(0.8, 24)
        tracemalloc.start()
        try:
            sample_sir_block(dist, 16, 65536, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestRunSim:
    def test_zero_threshold_never_errs(self):
        report = run_sim(spec_for(SETUP_B, threshold_bits=0))
        assert report.errors == 0
        assert report.epsilon_hat == 0.0

    def test_sc_equals_mrc_for_one_antenna(self):
        sc = run_sim(spec_for(SETUP_B, antennas=1, scheme=Scheme.SC))
        mrc = run_sim(spec_for(SETUP_B, antennas=1, scheme=Scheme.MRC))
        assert sc.json_record() == mrc.json_record()

    def test_deterministic_across_worker_counts(self):
        reports = [
            run_sim(spec_for(SETUP_B, trials=300_000, workers=w)) for w in (1, 2, 8)
        ]
        assert len({r.json_record() for r in reports}) == 1

    def test_partial_final_block(self):
        # trials deliberately not a multiple of the block size
        report = run_sim(spec_for(SETUP_B, trials=100_001))
        assert report.trials == 100_001
        again = run_sim(spec_for(SETUP_B, trials=100_001, workers=4))
        assert report.json_record() == again.json_record()

    def test_analytic_error_inside_interval(self, main_dist):
        k, n, antennas = 14, 200, 2
        predicted = sc_error(
            theta_for_rate(k, n), main_dist, antennas=antennas, exact=True
        )
        report = run_sim(
            spec_for(main_dist, antennas=antennas, threshold_bits=k, trials=10**6)
        )
        assert report.ci95[0] <= predicted <= report.ci95[1]

    def test_fb_semantics_matches_average_error(self, main_dist):
        # law of total expectation: Bernoulli draws with the conditional
        # error probability average to the integrated error
        k, n = 10, 200
        report = run_sim(
            spec_for(
                main_dist,
                threshold_bits=k,
                semantics=Semantics.FINITE_BLOCKLENGTH,
                trials=10**6,
                seed=3,
            )
        )
        predicted = fb_error_average(main_dist, 2, Scheme.SC, k, n).epsilon_fb
        lo, hi = report.ci95
        # widen by the small model bias bound: the density is the scaled-Lomax
        # model, the simulator samples the physical link
        margin = 0.05 * predicted
        assert lo - margin <= predicted <= hi + margin

    def test_variance_reduced_mode(self, main_dist):
        bernoulli = run_sim(
            spec_for(
                main_dist,
                threshold_bits=10,
                semantics=Semantics.FINITE_BLOCKLENGTH,
                trials=10**6,
            )
        )
        averaged = run_sim(
            spec_for(
                main_dist,
                threshold_bits=10,
                semantics=Semantics.FINITE_BLOCKLENGTH,
                trials=10**6,
                variance_reduced=True,
            )
        )
        assert averaged.errors is None
        assert averaged.ci95[0] <= averaged.epsilon_hat <= averaged.ci95[1]
        # same underlying quantity; the averaged interval is much tighter
        assert bernoulli.ci95[0] <= averaged.epsilon_hat <= bernoulli.ci95[1]
        width_b = bernoulli.ci95[1] - bernoulli.ci95[0]
        width_a = averaged.ci95[1] - averaged.ci95[0]
        assert width_a < width_b

    def test_variance_reduced_requires_fb(self):
        with pytest.raises(ValueError, match="variance_reduced"):
            spec_for(SETUP_B, variance_reduced=True)

    def test_undersampled_guard(self):
        with pytest.raises(UndersampledError):
            spec_for(SETUP_B, trials=10**4, epsilon_target=1e-6)
        spec = spec_for(
            SETUP_B, trials=10**4, epsilon_target=1e-6, allow_undersampled=True
        )
        assert spec.trials == 10**4

    def test_json_record_excludes_elapsed(self):
        report = run_sim(spec_for(SETUP_B, trials=1000))
        record = json.loads(report.json_record())
        assert set(record) == {"trials", "errors", "epsilon_hat", "ci95", "seed"}

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            spec_for(SETUP_B, trials=0)
        with pytest.raises(ValueError):
            spec_for(SETUP_B, workers=0)
        with pytest.raises(ValueError):
            spec_for(SETUP_B, seed=-1)
        with pytest.raises(ValueError):
            spec_for(SETUP_B, threshold_bits=-1)

    def test_antenna_cap(self):
        assert spec_for(SETUP_B, antennas=256).antennas == 256
        with pytest.raises(ValueError, match="at most 256"):
            spec_for(SETUP_B, antennas=257)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, math.inf, math.nan])
    def test_target_outside_unit_interval(self, eps):
        with pytest.raises(ValueError, match="epsilon_target"):
            spec_for(SETUP_B, epsilon_target=eps, allow_undersampled=True)

    def test_topology_must_be_a_sir_law(self):
        with pytest.raises(TypeError):
            spec_for(object())


class TestSimSpecFile:
    def test_round_trip_matches_flags(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps(
                {
                    "topology": {"r0": 20, "alpha": 3.5, "interferers": [30, 70, 110]},
                    "antennas": 2,
                    "scheme": "sc",
                    "k": 8,
                    "n": 200,
                    "semantics": "asymptotic",
                    "trials": 50_000,
                    "seed": 5,
                    "workers": 2,
                }
            )
        )
        spec = load_sim_spec(path)
        direct = SimSpec(
            topology=SirDistribution.from_geometry(20.0, (30.0, 70.0, 110.0), 3.5),
            antennas=2,
            scheme=Scheme.SC,
            threshold_bits=8,
            blocklength=200,
            semantics=Semantics.ASYMPTOTIC,
            trials=50_000,
            seed=5,
            workers=2,
        )
        assert run_sim(spec).json_record() == run_sim(direct).json_record()

    def test_missing_fields_reported(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"antennas": 2}))
        with pytest.raises(ValueError, match="missing"):
            load_sim_spec(path)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(13, 1000)
        assert lo <= 0.013 <= hi

    def test_zero_errors_has_positive_width(self):
        # the lower end was 3.5e-18 at 100 trials and 2.2e-19 at 1000
        for trials in (100, 1000, 10**6):
            lo, hi = wilson_interval(0, trials)
            assert lo == 0.0
            assert 0.0 < hi < 5.0 / trials

    def test_all_errors_reaches_one(self):
        # the upper end was 0.9999999999999999 at 10 and 65,536 trials
        for trials in (10, 65536, 10**6):
            lo, hi = wilson_interval(trials, trials)
            assert hi == 1.0
            assert 1.0 - 5.0 / trials < lo < 1.0

    def test_symmetric_at_half(self):
        lo, hi = wilson_interval(500, 1000)
        assert lo == pytest.approx(1.0 - hi, abs=1e-12)
