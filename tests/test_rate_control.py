import bisect
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.special
from scipy import integrate

from urpayload import cli, finite_blocklength, rate_control, validation
from urpayload.finite_blocklength import fb_error_average
from urpayload.rate_control import (
    LinkConfig,
    Method,
    Scheme,
    asymptotic_kstar,
    combined_sir_pdf,
    lomax_sum_cdf,
    lomax_sum_cdf_lower_bound_curve,
    mrc_error,
    mrc_quantile_closed,
    mrc_quantile_numeric,
    sc_error,
    theta_for_rate,
)
from urpayload.simulator import sample_sir_block
from urpayload.sir_model import (
    SirDistribution,
    sir_cdf_approx,
    sir_cdf_exact,
    sir_pdf_approx,
)

from .test_numerics import bisection

# Frozen 50-digit evaluation of the closed-form payload for
# eta=8, beta=0.8, n=400, M=4, eps=1e-6.
SC_APPROX_K_REAL_REFERENCE = 22.770864341666658

# Frozen 1e8-sample Monte Carlo oracle for the Lomax-sum CDF at count=4,
# shape=12: P(sum < X_DEEP) estimated as 9934/1e8, Wilson 95% below.
X_DEEP = 0.019363123550880802
DEEP_CI = (9.740572e-05, 1.013127e-04)

# FROZEN regression bound: worst per-bin relative gap between the Lomax-sum
# density model and a 1e7-sample histogram (count=2, shape=8, region where
# the CDF stays below 0.05) measured at 1.8%.
HIST_REL_TOL = 0.03


def plain_bisection_quantile(eps, antennas, eta):
    # reference: double hi from M until the CDF reaches eps, then bisect
    # [0, hi] down to 1e-15*hi, evaluating every midpoint
    hi = float(antennas)
    while lomax_sum_cdf(hi, antennas, eta) < eps:
        hi *= 2.0
    return bisection(lambda x: lomax_sum_cdf(x, antennas, eta), eps, 0.0, hi, 1e-15 * hi)[0]


def lomax_sum_pdf(x, count, shape):
    # the MRC density at beta = eta = shape has scale beta/eta = 1.0 exactly:
    # the density of a sum of `count` Lomax(shape, 1) variables
    return combined_sir_pdf(x, SirDistribution.from_beta(shape, shape), count, Scheme.MRC)


def lomax_samples(rng, count, shape, size):
    # X = (1-U)^(-1/shape) - 1 has survival (1+x)^(-shape)
    u = rng.random((size, count))
    return (np.power(1.0 - u, -1.0 / shape) - 1.0).sum(axis=1)


class TestLinkConfig:
    def test_blocklength_cap(self):
        # past the cap the FB grid takes gigabytes and, near n = 1e27, the
        # payload search never stops
        assert LinkConfig(1, 10**8, 1e-3).blocklength == 10**8
        with pytest.raises(ValueError, match="at most"):
            LinkConfig(1, 10**8 + 1, 1e-3)


class TestScError:
    def test_zero_threshold(self, main_dist):
        for antennas in (1, 2, 8):
            assert sc_error(0.0, dist=main_dist, antennas=antennas) == 0.0

    def test_single_antenna_equals_cdf(self, main_dist):
        theta = 0.05
        assert sc_error(theta, dist=main_dist, antennas=1) == sir_cdf_approx(
            theta, main_dist
        )

    def test_deep_tail_power_keeps_precision(self, main_dist):
        # F ~ 1e-7 at M=4 would underflow a naive repeated product of halves
        theta = 3e-7
        err = sc_error(theta, dist=main_dist, antennas=4)
        single = sir_cdf_approx(theta, main_dist)
        assert err == pytest.approx(single**4, rel=1e-10)
        assert err > 0.0

    @pytest.mark.parametrize("exact", [False, True])
    def test_deep_tail_is_the_plain_power(self, main_dist, exact):
        # F**M is within an ulp of the true power; exp(M*log F) drifts by up
        # to hundreds of ulps, so the deep tail takes the power too
        cdf = sir_cdf_exact if exact else sir_cdf_approx
        for theta in np.logspace(-9.0, -3.5, 23):
            theta = float(theta)
            assert cdf(theta, main_dist) < 1e-3
            for antennas in range(2, 17):
                expected = cdf(theta, main_dist) ** antennas
                assert sc_error(theta, main_dist, antennas, exact=exact) == expected

    def test_against_fading_simulation(self, main_dist, rng):
        # theta=0.1, M=4: error ~ 8e-7, needs 1e7 draws for a meaningful count
        # (drawn in chunks to keep the gain arrays small)
        theta, antennas, trials, chunk = 0.1, 4, 10**7, 5 * 10**5
        predicted = sc_error(theta, main_dist, antennas=antennas, exact=True)
        errors, done = 0, 0
        while done < trials:
            size = min(chunk, trials - done)
            sirs = sample_sir_block(main_dist, antennas, size, rng)
            errors += int(np.count_nonzero(sirs.max(axis=1) < theta))
            done += size
        empirical = errors / trials
        sigma = math.sqrt(predicted * (1.0 - predicted) / trials)
        assert abs(empirical - predicted) < 3.0 * sigma


class TestScKstarExact:
    def test_monotone_in_target(self, main_dist):
        cfg_loose = LinkConfig(2, 200, 0.999, Scheme.SC)
        cfg_tight = LinkConfig(2, 200, 1e-3, Scheme.SC)
        assert (
            asymptotic_kstar(Method.SC_EXACT, main_dist, cfg_loose).k_star
            > asymptotic_kstar(Method.SC_EXACT, main_dist, cfg_tight).k_star
        )

    def test_headline_payload(self, main_dist):
        cfg = LinkConfig(2, 200, 7e-5, Scheme.SC)
        sol = asymptotic_kstar(Method.SC_EXACT, main_dist, cfg)
        assert abs(sol.k_star - 8) <= 1
        assert sol.predicted_epsilon <= 7e-5

    def test_equals_grid_search(self, main_dist):
        cfg = LinkConfig(8, 200, 1e-5, Scheme.SC)
        sol = asymptotic_kstar(Method.SC_EXACT, main_dist, cfg)
        feasible = [
            k
            for k in range(1, 2001)
            if sc_error(theta_for_rate(k, 200), main_dist, antennas=8, exact=True)
            <= 1e-5
        ]
        assert sol.k_star == max(feasible)

    def test_requires_sc_scheme(self, main_dist, monkeypatch):
        # an MRC config is refused before the root search starts
        def never(*args, **kwargs):
            raise AssertionError("root search ran on a refused config")

        monkeypatch.setattr(rate_control, "find_root_monotone", never)
        monkeypatch.setattr(rate_control, "sir_log_survival_exact", never)
        with pytest.raises(ValueError):
            asymptotic_kstar(Method.SC_EXACT, main_dist, LinkConfig(2, 200, 1e-4, Scheme.MRC))

    def test_topology_and_its_distribution_solve_identically(self, main_dist):
        # the distances and their path losses give one law, so one solution
        distances = tuple(10.0 + 20.0 * j for j in range(1, 11))
        dist = SirDistribution.from_path_losses(20.0**3.5, [r ** (-3.5) for r in distances])
        for eps in (1e-2, 1e-6, 1e-9):
            cfg = LinkConfig(4, 200, eps, Scheme.SC)
            assert asymptotic_kstar(Method.SC_EXACT, main_dist, cfg) == asymptotic_kstar(
                Method.SC_EXACT, dist, cfg
            )

    def test_few_log_product_evaluations(self, monkeypatch):
        # bisection to 1e-9 on [0, n] called the log product 42 times here,
        # the search from the bracket's ends 7, and from SC approx's
        # k_real 4; none is at a point evaluated before, such as the ends
        # of the bracket, which the search reads from the bracket
        calls, points = 0, []
        original = rate_control.find_root_monotone
        log_survival = rate_control.sir_log_survival_exact

        def recording(theta, dist):
            points.append(theta)
            return log_survival(theta, dist)

        def counting(f, target, bracket, **kwargs):
            def counted(k):
                nonlocal calls
                calls += 1
                return f(k)

            return original(counted, target, bracket, **kwargs)

        monkeypatch.setattr(rate_control, "find_root_monotone", counting)
        monkeypatch.setattr(rate_control, "sir_log_survival_exact", recording)
        cfg = LinkConfig(4, 200, 1e-6, Scheme.SC)
        sol = asymptotic_kstar(Method.SC_EXACT, SirDistribution.from_beta(0.8, 8), cfg)
        assert sol.k_star > 0
        assert 0 < calls <= 5
        assert len(points) == len(set(points))

    @pytest.mark.parametrize(
        "beta, eta, cfg, k_star, k_real",
        [
            # roots at 654 and 828 bits per channel use, so the bracket's
            # doubling reaches k/n = 1024. Rounded, ln2 * k / n gives a
            # threshold 2^(k/n) - 1 just below the largest double at n = 200
            # and past it at n = 202 and 101.
            (1e-200, 8, LinkConfig(1, 200, 1e-3), 130884, 130884.12931111343),
            (1e-200, 8, LinkConfig(1, 202, 1e-3), 132192, 132192.97060422457),
            (1e-250, 4, LinkConfig(4, 101, 1e-3), 83644, 83644.66223024175),
        ],
    )
    def test_root_below_threshold_overflow_solves(self, beta, eta, cfg, k_star, k_real):
        sol = asymptotic_kstar(Method.SC_EXACT, SirDistribution.from_beta(beta, eta), cfg)
        assert sol.k_star == k_star
        assert sol.k_real.hex() == k_real.hex()
        assert 512 < sol.k_real / cfg.blocklength < 1024

    def test_infeasible_sets_flag(self, main_dist):
        # beta so large that even one bit misses an extreme target
        dist = SirDistribution.from_beta(50.0, 2)
        sol = asymptotic_kstar(Method.SC_EXACT, dist, LinkConfig(1, 200, 1e-9, Scheme.SC))
        assert sol.k_star == 0 and sol.infeasible


class TestScKstarApprox:
    @pytest.mark.parametrize("eps", [0.3, 0.75, 0.9, 0.99])
    def test_single_antenna_single_interferer_reduction(self, eps):
        # eta=1, beta=1, n=1: k_real = -log2(1 - eps)
        dist = SirDistribution.from_beta(1.0, 1)
        sol = asymptotic_kstar(Method.SC_APPROX, dist, LinkConfig(1, 1, eps, Scheme.SC))
        assert sol.k_real == pytest.approx(-math.log2(1.0 - eps), rel=1e-12)
        feasible = [
            k
            for k in range(0, 64)
            if sc_error(theta_for_rate(k, 1), dist=dist, antennas=1) <= eps
        ]
        assert sol.k_star == max(feasible)

    def test_within_one_bit_of_exact(self, main_dist):
        cfg = LinkConfig(2, 200, 7e-5, Scheme.SC)
        exact = asymptotic_kstar(Method.SC_EXACT, main_dist, cfg)
        approx = asymptotic_kstar(Method.SC_APPROX, main_dist, cfg)
        assert abs(approx.k_star - exact.k_star) <= 1

    def test_against_high_precision_evaluation(self):
        dist = SirDistribution.from_beta(0.8, 8)
        sol = asymptotic_kstar(Method.SC_APPROX, dist, LinkConfig(4, 400, 1e-6, Scheme.SC))
        assert sol.k_real == pytest.approx(SC_APPROX_K_REAL_REFERENCE, rel=1e-12)

    def test_never_exceeds_target_under_exact_error(self, main_dist):
        # the scaled-Lomax CDF upper-bounds the exact one, so the approximate
        # payload is conservative when re-checked exactly, and never exceeds
        # the exact payload; it stays within 1 bit only while the equivalent
        # per-antenna target eps^(1/M) remains in the left tail (the gap was
        # measured at 17 bits for eps=1e-2 with four antennas, where
        # eps^(1/M) ~ 0.32)
        for eps in (1e-2, 1e-4, 1e-6):
            for antennas in (1, 2, 4):
                cfg = LinkConfig(antennas, 200, eps, Scheme.SC)
                sol = asymptotic_kstar(Method.SC_APPROX, main_dist, cfg)
                exact_sol = asymptotic_kstar(Method.SC_EXACT, main_dist, cfg)
                assert sol.k_star <= exact_sol.k_star
                if sol.infeasible:
                    assert exact_sol.k_star <= 1
                    continue
                exact_err = sc_error(sol.theta, main_dist, antennas=antennas, exact=True)
                assert exact_err <= eps
                if eps ** (1.0 / antennas) <= 0.05:
                    assert sol.k_star >= exact_sol.k_star - 1

    def test_requires_sc_scheme(self, main_dist, monkeypatch):
        # an MRC config is refused before any error evaluation
        def never(*args, **kwargs):
            raise AssertionError("error measure ran on a refused config")

        monkeypatch.setattr(rate_control, "sc_error", never)
        with pytest.raises(ValueError, match="SC-scheme"):
            asymptotic_kstar(Method.SC_APPROX, main_dist, LinkConfig(2, 200, 1e-4, Scheme.MRC))


class TestScPdf:
    def test_single_antenna_reduces_to_marginal(self, main_dist):
        for x in (0.0, 0.05, 1.0, 10.0):
            assert combined_sir_pdf(x, main_dist, 1, Scheme.SC) == sir_pdf_approx(x, main_dist)

    def test_normalization(self, main_dist):
        for antennas in (2, 4):
            mass, _ = integrate.quad(
                lambda x: combined_sir_pdf(x, main_dist, antennas, Scheme.SC), 0.0, math.inf
            )
            assert mass == pytest.approx(1.0, rel=1e-9)

    def test_overflowing_argument_gives_zero(self):
        # x*beta overflows on the top of the FB grid for beta near 1e300
        dist = SirDistribution.from_beta(1e300, 10)
        for antennas in (1, 3):
            density = combined_sir_pdf(np.array([1e10, 1e12]), dist, antennas, Scheme.SC)
            assert np.array_equal(density, [0.0, 0.0])

    def test_against_sampled_maxima(self, main_dist, rng):
        # 1e6 maxima of scaled-Lomax draws vs. the model; chi-square on bins
        antennas, size = 4, 10**6
        eta, beta = main_dist.eta, main_dist.beta
        per_antenna = (eta / beta) * (
            np.power(1.0 - rng.random((size, antennas)), -1.0 / eta) - 1.0
        )
        maxima = per_antenna.max(axis=1)
        edges = np.quantile(maxima, np.linspace(0.0, 0.999, 24))
        observed, _ = np.histogram(maxima, bins=edges)

        def model_cdf(x):
            return sir_cdf_approx(float(x), main_dist) ** antennas

        expected = np.diff([model_cdf(e) for e in edges]) * size
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        # dof = 22; 0.1% critical value ~ 51.2
        assert chi2 < 51.2


class TestLomaxSumPdf:
    @given(st.floats(min_value=0.0, max_value=100.0))
    def test_single_count_is_plain_lomax(self, x):
        eta = 7
        assert lomax_sum_pdf(x, 1, eta) == pytest.approx(
            eta * (1.0 + x) ** (-eta - 1), rel=1e-12
        )

    def test_vanishes_at_origin_for_multiple_terms(self):
        assert lomax_sum_pdf(0.0, 3, 10) == 0.0
        assert lomax_sum_pdf(0.0, 1, 10) == 10.0

    @pytest.mark.parametrize("count", [1, 3])
    def test_vanishes_at_infinity(self, count):
        assert np.array_equal(lomax_sum_pdf(np.array([math.inf, 1e308]), count, 10), [0.0, 0.0])

    @pytest.mark.parametrize("count,shape", [(2, 8), (4, 12), (8, 20), (6, 4)])
    def test_normalization(self, count, shape):
        mass, _ = integrate.quad(lambda x: lomax_sum_pdf(x, count, shape), 0.0, math.inf)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_left_tail_against_sampled_sums(self, rng):
        count, shape, size, chunk = 2, 8, 10**7, 2 * 10**6
        # restrict to the left tail (CDF <= 0.05) where the model converges
        hi = mrc_quantile_numeric(0.05, count, shape)
        edges = np.linspace(0.0, hi, 11)
        observed = np.zeros(len(edges) - 1)
        done = 0
        while done < size:
            m = min(chunk, size - done)
            hist, _ = np.histogram(lomax_samples(rng, count, shape, m), bins=edges)
            observed += hist
            done += m
        expected = np.diff([lomax_sum_cdf(float(e), count, shape) for e in edges]) * size
        rel = np.abs(observed - expected) / expected
        assert float(rel.max()) < HIST_REL_TOL

    def test_matches_cdf_derivative(self):
        for count, shape in ((2, 8), (4, 12)):
            for x in (0.05, 0.2, 1.0):
                h = 1e-6 * max(x, 1.0)
                derivative = (
                    lomax_sum_cdf(x + h, count, shape) - lomax_sum_cdf(x - h, count, shape)
                ) / (2.0 * h)
                assert lomax_sum_pdf(x, count, shape) == pytest.approx(
                    derivative, rel=1e-6
                )


class TestLomaxSumCdf:
    @given(st.floats(min_value=0.0, max_value=100.0))
    def test_single_count_is_plain_lomax(self, x):
        eta = 9
        assert lomax_sum_cdf(x, 1, eta) == pytest.approx(
            -math.expm1(-eta * math.log1p(x)), rel=1e-12, abs=1e-300
        )

    def test_zero_at_origin(self):
        assert lomax_sum_cdf(0.0, 4, 12) == 0.0

    def test_deep_left_tail_against_frozen_monte_carlo(self):
        # oracle: 1e8 simulated sums of four Lomax(12) variables, run once and
        # frozen (9934 hits below X_DEEP)
        value = lomax_sum_cdf(X_DEEP, 4, 12)
        assert DEEP_CI[0] <= value <= DEEP_CI[1]

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.floats(min_value=-310.0, max_value=6.0).map(lambda e: 10.0**e),
        count=st.integers(1, 256),
        shape=st.integers(1, 1000),
    )
    @example(x=0.0, count=4, shape=12)
    @example(x=math.inf, count=4, shape=12)
    @example(x=5e-324, count=1, shape=1)
    @example(x=5e-324, count=256, shape=1000)
    def test_scalar_kernel_equals_the_ufunc(self, x, count, shape):
        # the scalar Cython entry point runs the ufunc's C kernel: same double
        ufunc = float(scipy.special.gammainc(count, shape * count * math.log1p(x / count)))
        value = lomax_sum_cdf(x, count, shape)
        assert type(value) is float
        assert value.hex() == ufunc.hex()

    def test_non_integer_parameters_rejected(self):
        with pytest.raises(ValueError):
            lomax_sum_cdf(1.0, 2.5, 8)
        with pytest.raises(ValueError):
            lomax_sum_cdf(1.0, 2, 8.5)


class TestLomaxSumCurves:
    @pytest.mark.parametrize("x,count,shape", [(1.0, 0, 8), (1.0, 2, 0), (-1.0, 2, 8)])
    @pytest.mark.parametrize("curve", [lomax_sum_cdf_lower_bound_curve])
    def test_curves_reject_what_the_scalar_functions_reject(self, curve, x, count, shape):
        # with lomax_sum_cdf's messages
        with pytest.raises(ValueError) as expected:
            lomax_sum_cdf(x, count, shape)
        with pytest.raises(ValueError) as raised:
            curve([0.5, x], count, shape)
        assert str(raised.value) == str(expected.value)


class TestLomaxSumLowerBound:
    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_equality_at_single_count(self, x):
        shape = 11
        (bound,) = lomax_sum_cdf_lower_bound_curve([x], 1, shape)
        assert bound == pytest.approx(lomax_sum_cdf(x, 1, shape), abs=1e-12)

    def test_zero_at_origin(self):
        assert lomax_sum_cdf_lower_bound_curve([0.0], 4, 8) == [0.0]

    @pytest.mark.parametrize("linearize", [False, True])
    @pytest.mark.parametrize("count,shape", [(2, 4), (4, 8), (10, 20)])
    def test_closed_form(self, count, shape, linearize):
        # (1 - e^(-(M!)^(-1/M) * shape*M*arg))^M, arg = ln(1+x/M) or x/M
        xs = [1e-4, 0.03, 0.5, 2.0, 5.0]
        c = math.factorial(count) ** (-1.0 / count)
        args = [x / count if linearize else math.log1p(x / count) for x in xs]
        want = [(1.0 - math.exp(-c * shape * count * arg)) ** count for arg in args]
        assert lomax_sum_cdf_lower_bound_curve(xs, count, shape, linearize) == pytest.approx(
            want, rel=1e-12
        )

    def test_below_cdf_on_grid(self):
        xs = np.linspace(1e-4, 2.0, 200).tolist()
        bounds = lomax_sum_cdf_lower_bound_curve(xs, 4, 8)
        assert all(bound <= lomax_sum_cdf(x, 4, 8) for x, bound in zip(xs, bounds))

    def test_linearized_variant_is_larger(self):
        # x/M >= ln(1+x/M) makes the linearized exponent bigger
        xs = [0.01, 0.1, 1.0]
        linear = lomax_sum_cdf_lower_bound_curve(xs, 4, 8, linearize=True)
        exact_log = lomax_sum_cdf_lower_bound_curve(xs, 4, 8, linearize=False)
        assert all(a >= b for a, b in zip(linear, exact_log))


class TestMrcQuantiles:
    @pytest.mark.parametrize("eps", [1e-2, 1e-5, 1e-9])
    def test_single_count_analytic_inverse(self, eps):
        eta = 10
        analytic = math.expm1(-math.log1p(-eps) / eta)
        assert mrc_quantile_numeric(eps, 1, eta) == pytest.approx(analytic, rel=1e-9)

    @pytest.mark.parametrize("eps", [1e-2, 1e-5, 1e-9])
    @pytest.mark.parametrize("antennas", [2, 4, 8])
    @pytest.mark.parametrize("eta", [4, 8, 12])
    def test_round_trip(self, eps, antennas, eta):
        x = mrc_quantile_numeric(eps, antennas, eta)
        assert abs(lomax_sum_cdf(x, antennas, eta) - eps) <= 1e-10

    def test_matches_grid_scan(self):
        eps, antennas, eta = 1e-6, 2, 10
        grid = np.logspace(-6.0, 0.0, 400_001)
        values = np.array([lomax_sum_cdf(float(x), antennas, eta) for x in grid])
        scan = grid[int(np.searchsorted(values, eps))]
        assert mrc_quantile_numeric(eps, antennas, eta) == pytest.approx(scan, rel=1e-4)

    def test_quantile_where_the_cdf_is_not_monotone_in_its_last_bits(self):
        # lomax_sum_cdf wobbles by an ulp near this root, so a root finder
        # that trusted its signs down to tol = 1e-15*hi would land elsewhere
        assert mrc_quantile_numeric(0.012408587106085648, 14, 1) == 9.034758826139438

    @settings(max_examples=200, deadline=None)
    @given(
        eps=st.floats(min_value=-300.0, max_value=0.0, exclude_max=True)
        .map(lambda e: 10.0**e)
        .filter(lambda eps: eps < 1.0),
        antennas=st.integers(1, 256),
        eta=st.integers(1, 1000),
    )
    # tol = 1e-15 is absolute at hi = M = 1: the estimate rounds to the
    # lattice point just below the root, which is then bracketed from above
    @example(eps=5.936539067597797e-08, antennas=1, eta=13)
    # the CDF rounds to eps on a plateau that holds the estimate, so the
    # estimate is not the answer: bisection's first midpoint there is
    @example(eps=0.9999999999999999, antennas=1, eta=24)
    # the estimate is subnormal and is clamped up to the first lattice point
    # above 0; the root is the midpoint below it
    @example(eps=5e-324, antennas=1, eta=1)
    # the CDF at M is below eps, so the bracket doubles: tol is 1e-15 times
    # its top, not its width
    @example(eps=0.9, antennas=1, eta=3)
    @example(eps=0.5, antennas=4, eta=1)
    def test_equals_plain_bisection(self, eps, antennas, eta):
        assert mrc_quantile_numeric(eps, antennas, eta) == plain_bisection_quantile(
            eps, antennas, eta
        )

    @settings(max_examples=200, deadline=None)
    @given(
        eps=st.one_of(
            st.floats(min_value=-300.0, max_value=0.0, exclude_max=True)
            .map(lambda e: 10.0**e)
            .filter(lambda eps: eps < 1.0),
            st.floats(min_value=-16.0, max_value=-1.0).map(lambda e: 1.0 - 10.0**e),
        ),
        antennas=st.integers(1, 256),
        eta=st.integers(1, 1000),
    )
    @example(eps=5e-324, antennas=1, eta=1)
    @example(eps=0.9999999999999999, antennas=256, eta=1000)
    def test_same_double_through_the_ufuncs(self, eps, antennas, eta):
        value = mrc_quantile_numeric(eps, antennas, eta)
        # the CDF calls and the gammaincinv seed through the scipy.special ufuncs
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rate_control, "_scalar", scipy.special)
            reference = mrc_quantile_numeric(eps, antennas, eta)
        assert value.hex() == float(reference).hex()

    @pytest.mark.parametrize("antennas, eta", [(2, 0), (0, 8)])
    def test_count_and_shape_checked_first(self, antennas, eta):
        with pytest.raises(ValueError, match="positive integer"):
            mrc_quantile_numeric(1e-3, antennas, eta)

    def test_few_cdf_evaluations(self, monkeypatch):
        # link_sizing's draw; doubling and bisecting all of [0, hi] made 26.7
        # calls per quantile, and the gammaincinv start estimate 7.74
        calls, points = 0, []

        def counting(x, count, shape):
            points.append(x)
            return lomax_sum_cdf(x, count, shape)

        monkeypatch.setattr(rate_control, "lomax_sum_cdf", counting)
        draw = random.Random(1)
        quantiles = 300
        for _ in range(quantiles):
            antennas, eta = draw.randint(1, 16), draw.randint(1, 24)
            points.clear()
            mrc_quantile_numeric(10.0 ** draw.uniform(-9.0, -1.0), antennas, eta)
            assert len(points) == len(set(points))
            calls += len(points)
        assert calls / quantiles <= 8

    def test_closed_single_count_reduction(self):
        eps, eta = 1e-4, 9
        assert mrc_quantile_closed(eps, 1, eta) == pytest.approx(
            abs(math.log1p(-eps)) / eta, rel=1e-12
        )

    def test_closed_tight_when_target_is_stringent(self):
        # FROZEN: relative gap measured at 4.9e-7 for this point
        numeric = mrc_quantile_numeric(1e-9, 2, 8)
        closed = mrc_quantile_closed(1e-9, 2, 8)
        assert abs(closed - numeric) / numeric < 2e-6

    def test_closed_drifts_at_large_count_and_loose_target(self):
        # documented drift: the bound loosens as count grows; direction and a
        # coarse cap are asserted, not tightness
        numeric = mrc_quantile_numeric(1e-3, 8, 8)
        closed = mrc_quantile_closed(1e-3, 8, 8)
        gap = (closed - numeric) / numeric
        assert 1e-3 < gap < 0.1


class TestMrcKstar:
    def test_single_antenna_matches_sc(self, main_dist):
        sc = asymptotic_kstar(Method.SC_APPROX, main_dist, LinkConfig(1, 200, 1e-4, Scheme.SC))
        mrc = asymptotic_kstar(
            Method.MRC_NUMERIC, main_dist, LinkConfig(1, 200, 1e-4, Scheme.MRC)
        )
        assert mrc.k_star == sc.k_star
        assert mrc.k_real == pytest.approx(sc.k_real, rel=1e-8)

    def test_beats_sc_payload(self):
        dist = SirDistribution.from_beta(0.8, 8)
        sc = asymptotic_kstar(Method.SC_APPROX, dist, LinkConfig(4, 400, 1e-6, Scheme.SC))
        mrc = asymptotic_kstar(Method.MRC_NUMERIC, dist, LinkConfig(4, 400, 1e-6, Scheme.MRC))
        assert mrc.k_star >= sc.k_star

    @pytest.mark.parametrize("antennas", [4, 8])
    def test_doubles_sc_at_reference_point(self, main_dist, antennas):
        sc = asymptotic_kstar(
            Method.SC_APPROX, main_dist, LinkConfig(antennas, 200, 1e-5, Scheme.SC)
        )
        mrc = asymptotic_kstar(
            Method.MRC_NUMERIC, main_dist, LinkConfig(antennas, 200, 1e-5, Scheme.MRC)
        )
        assert 1.6 <= mrc.k_star / sc.k_star <= 2.4

    def test_closed_quantile_payload_respects_target(self, main_dist):
        for eps in (1e-3, 1e-6, 1e-9):
            cfg = LinkConfig(6, 400, eps, Scheme.MRC)
            sol = asymptotic_kstar(Method.MRC_CLOSED, main_dist, cfg)
            assert sol.predicted_epsilon <= eps
            assert mrc_error(sol.theta, main_dist, 6) <= eps

    @pytest.mark.parametrize("method", [Method.SC_EXACT, Method.SC_APPROX])
    def test_rejects_non_mrc_method(self, main_dist, method):
        # the refusal names the method and the scheme its row solves
        with pytest.raises(ValueError, match=rf"^{method.value} requires an SC-scheme config$"):
            asymptotic_kstar(method, main_dist, LinkConfig(2, 200, 1e-4, Scheme.MRC))


class TestMethodTable:
    @pytest.mark.parametrize(
        "method, scheme, match",
        [
            (Method.SC_EXACT, Scheme.MRC, "SC-scheme"),
            (Method.SC_APPROX, Scheme.MRC, "SC-scheme"),
            (Method.MRC_NUMERIC, Scheme.SC, "MRC-scheme"),
            (Method.MRC_CLOSED, Scheme.SC, "MRC-scheme"),
            (Method.FB, Scheme.SC, "not an asymptotic method"),
            (Method.FB, Scheme.MRC, "not an asymptotic method"),
        ],
    )
    def test_refuses_fb_and_other_scheme(self, main_dist, method, scheme, match):
        with pytest.raises(ValueError, match=match):
            asymptotic_kstar(method, main_dist, LinkConfig(2, 200, 1e-4, scheme))

    @pytest.mark.parametrize(
        "method, measure",
        [
            (Method.SC_EXACT, "sc_error"),
            (Method.SC_APPROX, "sc_error"),
            (Method.MRC_NUMERIC, "mrc_error"),
            (Method.MRC_CLOSED, "mrc_error"),
        ],
    )
    def test_error_measure_is_looked_up_at_call_time(self, main_dist, monkeypatch, method, measure):
        # a wrapper put on the module's name, as a call counter is, sees the
        # solve's error evaluations
        original, calls = getattr(rate_control, measure), []

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(rate_control, measure, spy)
        scheme = rate_control._ASYMPTOTIC[method].scheme
        sol = asymptotic_kstar(method, main_dist, LinkConfig(2, 200, 1e-4, scheme))
        assert calls and sol.k_star > 0

    def test_closed_form_rows_seed_without_a_root_search(self, main_dist, monkeypatch):
        # _CLOSED_FORM names the row the FB search seeds from, for each scheme:
        # one of that scheme, whose payload is a closed form
        def no_root_search(*args, **kwargs):
            raise AssertionError("a closed-form row ran a root search")

        monkeypatch.setattr(rate_control, "find_root_monotone", no_root_search)
        assert set(rate_control._CLOSED_FORM) == set(Scheme)
        for scheme, method in rate_control._CLOSED_FORM.items():
            row = rate_control._ASYMPTOTIC[method]
            assert row.scheme is scheme, method
            cfg = LinkConfig(4, 200, 1e-6, scheme)
            assert math.isfinite(row.k_real(main_dist, cfg))
            assert math.isfinite(finite_blocklength._seed_k(main_dist, cfg))

    def test_cli_aliases_agree_with_rows(self):
        # the parser loads no solver module, so its alias table is a second
        # list of which method solves which scheme
        rows = rate_control._ASYMPTOTIC
        for (alias, scheme), method in cli._METHOD_ALIASES.items():
            assert method is Method.FB or rows[method].scheme is scheme, alias
        assert set(rows) == set(Method) - {Method.FB}

    @pytest.mark.parametrize("method", [m for m in Method if m is not Method.FB])
    def test_every_row_is_reachable_from_the_cli(self, method, capsys):
        scheme = rate_control._ASYMPTOTIC[method].scheme
        aliases = [a for (a, s), m in cli._METHOD_ALIASES.items() if m is method and s is scheme]
        assert aliases
        for alias in aliases:
            argv = ["rate", "--beta", "0.8", "--eta", "8", "--M", "2", "--eps", "1e-3"]
            assert cli.main(argv + ["--scheme", scheme.value, "--method", alias, "--json"]) == 0
            (record,) = json.loads(capsys.readouterr().out)["results"]
            assert record["method"] == method.value


def plain_walk_max_feasible_k(error_at_k, epsilon_th, k_guess):
    # reference: one k at a time down from floor(k_guess), then up
    k = max(math.floor(k_guess + 1e-9), 0)
    err = error_at_k(k) if k >= 1 else 0.0
    while k >= 1 and err > epsilon_th:
        k -= 1
        err = error_at_k(k) if k >= 1 else 0.0
    while True:
        err_next = error_at_k(k + 1)
        if err_next <= epsilon_th:
            k += 1
            err = err_next
        else:
            break
    return k, err


class TestMaxFeasibleK:
    @settings(max_examples=400, deadline=None)
    @given(
        breaks=st.lists(st.integers(1, 3000), min_size=1, max_size=20, unique=True),
        level=st.integers(0, 19),
        between=st.booleans(),
        guess=st.floats(0.0, 6000.0),
    )
    def test_equals_plain_walk_in_logarithmic_evaluations(self, breaks, level, between, guess):
        # error_at_k is a monotone step function rising at each break to 1
        breaks = sorted(breaks)
        level %= len(breaks)
        eps = (level + 0.5 * between) / len(breaks)
        calls = []

        def err(k):
            calls.append(k)
            return bisect.bisect_right(breaks, k) / len(breaks)

        expected = plain_walk_max_feasible_k(err, eps, guess)
        calls.clear()
        k, e, e_next = rate_control._max_feasible_k(err, eps, guess)
        assert (k, e) == expected
        assert e_next == bisect.bisect_right(breaks, k + 1) / len(breaks)
        assert len(calls) == len(set(calls))
        assert expected[0] + 1 in calls
        distance = abs(expected[0] - math.floor(guess + 1e-9))
        assert len(calls) <= 2 * math.log2(distance + 1) + 2

    @pytest.mark.parametrize(
        "beta, eta, antennas, n, eps, k_star",
        [
            # link_sizing seed-1 queries 812 and 477: the closed quantile is
            # 318 bits above and 409 below k*; the plain walk made 320 and 411
            # error evaluations
            (0.4611835572949915, 9, 12, 1873, 0.08739141123651903, 7833),
            (0.0003413871937315365, 1, 8, 1722, 0.05209776774114802, 23934),
        ],
    )
    def test_closed_quantile_far_off(self, monkeypatch, beta, eta, antennas, n, eps, k_star):
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return mrc_error(*args)

        monkeypatch.setattr(rate_control, "mrc_error", counting)
        dist = SirDistribution.from_beta(beta, eta)
        cfg = LinkConfig(antennas, n, eps, Scheme.MRC)
        assert asymptotic_kstar(Method.MRC_CLOSED, dist, cfg).k_star == k_star
        assert calls <= 20


class TestEachPointEvaluatedOnce:
    # each solve hands the root finder the ends that its bracket search
    # measured, so no point is evaluated twice, doubled bracket or not

    @staticmethod
    def spy(monkeypatch, module, name):
        points, brackets = [], []
        original, find_root = getattr(module, name), module.find_root_monotone

        def recording(x, *args):
            points.append(x)
            return original(x, *args)

        def finding(f, target, bracket, **kwargs):
            brackets.append(bracket)
            return find_root(f, target, bracket, **kwargs)

        monkeypatch.setattr(module, name, recording)
        monkeypatch.setattr(module, "find_root_monotone", finding)
        return points, brackets

    @pytest.mark.parametrize("eps, doubled", [(1e-9, False), (1e-3, True)])
    def test_sc_exact_root(self, monkeypatch, eps, doubled):
        points, brackets = self.spy(monkeypatch, rate_control, "sir_log_survival_exact")
        cfg = LinkConfig(4, 200, eps, Scheme.SC)
        rate_control._sc_exact_k_real(SirDistribution.from_beta(0.05, 3), cfg)
        (bracket,) = brackets
        assert (bracket.lo > 0.0) is doubled
        assert len(points) == len(set(points)) > 0

    @pytest.mark.parametrize("eps, doubled", [(1e-3, False), (0.9, True)])
    def test_mrc_quantile(self, monkeypatch, eps, doubled):
        points, brackets = self.spy(monkeypatch, rate_control, "lomax_sum_cdf")
        mrc_quantile_numeric(eps, 1, 3)
        (bracket,) = brackets
        assert (bracket.lo > 0.0) is doubled
        assert len(points) == len(set(points)) > 0

    @pytest.mark.parametrize(
        "dist, doubled",
        [(validation.CDF_SETUPS["B"], False), (SirDistribution.from_beta(1e-3, 1), True)],
    )
    def test_left_tail_edge(self, monkeypatch, dist, doubled):
        points, brackets = self.spy(monkeypatch, validation, "sir_cdf_exact")
        validation._left_tail_gamma_grid(dist)
        (bracket,) = brackets
        assert (bracket.lo > 0.0) is doubled
        assert len(points) == len(set(points)) > 0


class TestSolutionInvariants:
    @given(
        beta=st.floats(min_value=0.05, max_value=5.0),
        eta=st.integers(min_value=1, max_value=20),
        antennas=st.integers(min_value=1, max_value=8),
        eps=st.floats(min_value=1e-9, max_value=1e-1),
    )
    @settings(max_examples=60, deadline=None)
    def test_predicted_error_never_exceeds_target(self, beta, eta, antennas, eps):
        dist = SirDistribution.from_beta(beta, eta)
        sc = asymptotic_kstar(Method.SC_APPROX, dist, LinkConfig(antennas, 200, eps, Scheme.SC))
        assert sc.predicted_epsilon <= eps
        mrc = asymptotic_kstar(
            Method.MRC_NUMERIC, dist, LinkConfig(antennas, 200, eps, Scheme.MRC)
        )
        assert mrc.predicted_epsilon <= eps

    def test_payload_scales_linearly_in_blocklength(self, main_dist):
        for n in (100, 200, 400):
            cfg_n = LinkConfig(2, n, 1e-4, Scheme.SC)
            cfg_2n = LinkConfig(2, 2 * n, 1e-4, Scheme.SC)
            approx_n = asymptotic_kstar(Method.SC_APPROX, main_dist, cfg_n).k_real
            approx_2n = asymptotic_kstar(Method.SC_APPROX, main_dist, cfg_2n).k_real
            assert approx_2n == pytest.approx(2.0 * approx_n, rel=1e-12)
            exact_n = asymptotic_kstar(Method.SC_EXACT, main_dist, cfg_n).k_real
            exact_2n = asymptotic_kstar(Method.SC_EXACT, main_dist, cfg_2n).k_real
            assert exact_2n == pytest.approx(2.0 * exact_n, rel=1e-6)

    def test_payload_monotone_in_target_and_antennas(self, main_dist):
        k_by_eps = [
            asymptotic_kstar(
                Method.SC_APPROX, main_dist, LinkConfig(2, 200, eps, Scheme.SC)
            ).k_real
            for eps in (1e-9, 1e-6, 1e-3, 1e-1)
        ]
        assert k_by_eps == sorted(k_by_eps)
        k_by_m = [
            asymptotic_kstar(
                Method.MRC_NUMERIC, main_dist, LinkConfig(m, 200, 1e-6, Scheme.MRC)
            ).k_real
            for m in (1, 2, 4, 8)
        ]
        assert k_by_m == sorted(k_by_m)

    def test_payload_decreases_with_beta(self):
        k_by_beta = [
            asymptotic_kstar(
                Method.SC_APPROX,
                SirDistribution.from_beta(beta, 8), LinkConfig(2, 200, 1e-4, Scheme.SC)
            ).k_real
            for beta in (0.1, 0.3, 1.0, 3.0)
        ]
        assert k_by_beta == sorted(k_by_beta, reverse=True)

    def test_theta_matches_payload(self, main_dist):
        sol = asymptotic_kstar(Method.SC_APPROX, main_dist, LinkConfig(2, 200, 1e-4, Scheme.SC))
        assert sol.theta == pytest.approx(theta_for_rate(sol.k_star, 200), rel=1e-15)
        k_from_theta = 200 * math.log1p(sol.theta) / math.log(2)
        assert k_from_theta == pytest.approx(sol.k_star, rel=1e-12)


class TestCombinedPdf:
    def test_sc_dispatch(self, main_dist):
        # M * F(x)^(M-1) * f(x) with the per-antenna scaled-Lomax law
        expected = 4 * sir_cdf_approx(0.3, main_dist) ** 3 * sir_pdf_approx(0.3, main_dist)
        assert combined_sir_pdf(0.3, main_dist, 4, Scheme.SC) == pytest.approx(expected, rel=1e-12)

    def test_mrc_rescaling_normalizes(self, main_dist):
        mass, _ = integrate.quad(
            lambda x: combined_sir_pdf(x, main_dist, 4, Scheme.MRC), 0.0, math.inf
        )
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_mrc_overflowing_argument_gives_zero(self):
        dist = SirDistribution.from_beta(1e300, 10)
        f = combined_sir_pdf(np.array([1e10, 1e12]), dist, 2, Scheme.MRC)
        assert np.array_equal(f, [0.0, 0.0])

    def test_mrc_single_antenna_matches_marginal(self, main_dist):
        for x in (0.01, 0.5, 3.0):
            assert combined_sir_pdf(x, main_dist, 1, Scheme.MRC) == pytest.approx(
                sir_pdf_approx(x, main_dist), rel=1e-12
            )

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("antennas", [0, -1, 2.5])
    def test_antenna_count_must_be_a_positive_integer(self, main_dist, scheme, antennas):
        # the SC density once took any count: M=0 divided by zero and M=-1
        # gave a negative density, and an FB average at M=0 returned 0.0
        with pytest.raises(ValueError, match="positive integer"):
            combined_sir_pdf(np.array([0.0, 1.0]), main_dist, antennas, scheme)
        with pytest.raises(ValueError, match="positive integer"):
            fb_error_average(main_dist, antennas, scheme, 4, 200)
