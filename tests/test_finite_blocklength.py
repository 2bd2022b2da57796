import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from urpayload.finite_blocklength import (
    channel_dispersion,
    fb_error_average,
    fb_error_conditional,
    fb_kstar,
    shannon_capacity,
)
from urpayload.rate_control import (
    LinkConfig,
    Scheme,
    combined_sir_pdf,
    mrc_kstar,
    sc_kstar_approx,
)
from urpayload.sir_model import SirDistribution

LOG2E_SQ = 2.0813689810056078  # (log2 e)^2, 50-digit frozen
# Frozen 50-digit arithmetic oracle for Q((1 - 0.5)/sqrt(V(1)/200)).
FB_COND_REFERENCE = 7.589713965684782e-9
V_AT_ONE = 1.5610267357542058


class TestShannonCapacity:
    @pytest.mark.parametrize("sir,expected", [(0.0, 0.0), (1.0, 1.0), (3.0, 2.0)])
    def test_exact_points(self, sir, expected):
        assert shannon_capacity(sir) == pytest.approx(expected, rel=1e-14)

    def test_array_input(self):
        out = shannon_capacity(np.array([0.0, 1.0, 3.0]))
        assert np.allclose(out, [0.0, 1.0, 2.0])


class TestChannelDispersion:
    def test_zero_sir(self):
        assert channel_dispersion(0.0) == 0.0

    def test_high_sir_limit(self):
        assert channel_dispersion(1e12) == pytest.approx(LOG2E_SQ, rel=1e-9)

    def test_reference_point(self):
        assert channel_dispersion(1.0) == pytest.approx(V_AT_ONE, rel=1e-12)
        assert channel_dispersion(1.0) == pytest.approx(0.75 * LOG2E_SQ, rel=1e-12)


class TestFbErrorConditional:
    def test_rate_at_capacity_is_half(self):
        sir = 1.5
        k = shannon_capacity(sir) * 200
        assert fb_error_conditional(sir, k, 200) == pytest.approx(0.5, rel=1e-12)

    def test_deep_margin_vanishes(self):
        assert fb_error_conditional(1e6, 10, 200) < 1e-300

    def test_zero_sir_fails_certainly(self):
        assert fb_error_conditional(0.0, 10, 200) == 1.0

    def test_arithmetic_reference(self):
        assert fb_error_conditional(1.0, 100, 200) == pytest.approx(
            FB_COND_REFERENCE, rel=1e-12
        )

    def test_array_matches_scalar(self):
        sirs = np.array([0.0, 0.5, 1.0, 4.0])
        vec = fb_error_conditional(sirs, 50, 200)
        for s, v in zip(sirs, vec):
            assert v == pytest.approx(fb_error_conditional(float(s), 50, 200), rel=1e-12)

    @given(st.floats(min_value=0.01, max_value=100.0), st.integers(min_value=1, max_value=400))
    @settings(max_examples=50)
    def test_monotone_in_payload(self, sir, k):
        assert fb_error_conditional(sir, k + 1, 200) >= fb_error_conditional(sir, k, 200)


def _check_against_sampled_expectation(main_dist, rng, antennas, k, n):
    # independent oracle: average the conditional error over 1e7 draws of
    # the model's own combined SIR (selection combining of scaled Lomax,
    # drawn in chunks to bound memory)
    size, chunk = 10**7, 10**6
    eta, beta = main_dist.eta, main_dist.beta
    total, total_sq, done = 0.0, 0.0, 0
    while done < size:
        m = min(chunk, size - done)
        per_antenna = (eta / beta) * (
            np.power(1.0 - rng.random((m, antennas)), -1.0 / eta) - 1.0
        )
        values = fb_error_conditional(per_antenna.max(axis=1), k, n)
        total += float(values.sum())
        total_sq += float(np.square(values).sum())
        done += m
    mc_mean = total / size
    mc_sigma = math.sqrt(max(total_sq / size - mc_mean**2, 0.0) / size)
    density = combined_sir_pdf(main_dist, antennas, Scheme.SC)
    result = fb_error_average(density, k, n)
    assert abs(result.epsilon_fb - mc_mean) < 3.0 * mc_sigma


class TestFbErrorAverage:
    def test_headline_four_bits_at_target(self, main_dist):
        # with two antennas over 200 uses, four bits meet a 7e-5 target and
        # five do not
        density = combined_sir_pdf(main_dist, 2, Scheme.SC)
        at_four = fb_error_average(density, 4, 200).epsilon_fb
        at_five = fb_error_average(density, 5, 200).epsilon_fb
        assert at_four <= 7e-5 < at_five

    def test_against_sampled_expectation(self, main_dist, rng):
        _check_against_sampled_expectation(main_dist, rng, antennas=4, k=60, n=200)

    def test_against_sampled_expectation_at_long_blocklength(self, main_dist, rng):
        # at n=1e5 the error falls from 1 to 0 over a narrow band of ln SIR,
        # which an adaptive rule can step over
        _check_against_sampled_expectation(main_dist, rng, antennas=1, k=1, n=10**5)

    def test_quadrature_estimate_is_tight(self, main_dist):
        density = combined_sir_pdf(main_dist, 2, Scheme.SC)
        result = fb_error_average(density, 4, 200)
        assert result.quadrature_error_estimate < 1e-10
        assert 0.0 <= result.epsilon_fb <= 1.0

    def test_short_blocklength_warns(self, main_dist):
        density = combined_sir_pdf(main_dist, 1, Scheme.SC)
        with pytest.warns(UserWarning, match="n >= 100"):
            fb_error_average(density, 4, 50)


def _reference_density(x, dist, antennas, scheme):
    # scalar post-combining SIR density, written out from the model's formulas
    eta, beta = dist.eta, dist.beta
    if scheme is Scheme.SC:
        log_arg = math.log1p(x * beta / eta)
        pdf = beta * math.exp(-(eta + 1) * log_arg)
        cdf = -math.expm1(-eta * log_arg)
        return antennas * cdf ** (antennas - 1) * pdf
    # MRC: (beta/eta) times the Lomax-sum density at v = x*beta/eta
    m = antennas
    log_arg = math.log1p(x * beta / eta / m)
    if m == 1:
        return beta * math.exp(-(eta + 1) * log_arg)
    if log_arg == 0.0:
        return 0.0
    log_pdf = (
        m * math.log(eta)
        + (m - 1) * math.log(m)
        - math.lgamma(m)
        - (1 + m * eta) * log_arg
        + (m - 1) * math.log(log_arg)
    )
    return beta / eta * math.exp(log_pdf)


def _reference_conditional(x, k, n):
    if x <= 0.0:
        return 1.0
    capacity = math.log2(1.0 + x)
    dispersion = (1.0 - (1.0 + x) ** -2) * math.log2(math.e) ** 2
    return 0.5 * math.erfc((capacity - k / n) / math.sqrt(dispersion / n) / math.sqrt(2.0))


def _reference_average(dist, antennas, scheme, k, n):
    """Adaptive scalar quadrature with break points around theta(k)."""
    theta = math.expm1(math.log(2.0) * k / n)

    def integrand(x):
        return _reference_density(x, dist, antennas, scheme) * _reference_conditional(x, k, n)

    breaks = [0.0] + [theta * 2.0**j for j in range(-12, 13)]
    total = 0.0
    for a, b in zip(breaks, breaks[1:]):
        total += integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    total += integrate.quad(integrand, breaks[-1], math.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return total


def _reference_configs(count=20, seed=20261018):
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(count):
        beta = float(np.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        eta = int(rng.integers(1, 25))
        antennas = int(rng.choice([1, 2, 4, 8, 16]))
        scheme = Scheme.SC if rng.random() < 0.5 else Scheme.MRC
        n = int(rng.choice([100, 200, 500, 1000, 2000]))
        eps = float(10.0 ** rng.uniform(-6.0, -2.0))
        configs.append((beta, eta, antennas, scheme, n, eps))
    return configs


class TestFbErrorAverageReference:
    """fb_error_average against an independent scalar adaptive quadrature."""

    @pytest.mark.parametrize("beta,eta,antennas,scheme,n,eps", _reference_configs())
    def test_matches_adaptive_reference(self, beta, eta, antennas, scheme, n, eps):
        dist = SirDistribution.from_beta(beta, eta)
        cfg = LinkConfig(antennas, n, eps, scheme)
        asym = sc_kstar_approx(dist, cfg) if scheme is Scheme.SC else mrc_kstar(dist, cfg)
        k = max(asym.k_star, 1)
        density = combined_sir_pdf(dist, antennas, scheme)
        got = fb_error_average(density, k, n).epsilon_fb
        want = _reference_average(dist, antennas, scheme, k, n)
        assert got == pytest.approx(want, rel=1e-8)


class TestFbKstar:
    def test_headline_payload(self, main_dist):
        cfg = LinkConfig(2, 200, 7e-5, Scheme.SC)
        sol = fb_kstar(main_dist, cfg)
        assert abs(sol.k_star - 4) <= 1
        assert sol.predicted_epsilon <= 7e-5

    def test_close_to_asymptotic_for_large_payloads(self):
        # when the asymptotic payload is far above ~100 bits the two
        # formulations agree to within a couple of bits
        dist = SirDistribution.from_beta(0.05, 8)
        cfg = LinkConfig(2, 200, 1e-3, Scheme.SC)
        asym = sc_kstar_approx(dist, cfg)
        fb = fb_kstar(dist, cfg)
        assert asym.k_star > 100
        assert abs(fb.k_star - asym.k_star) <= 2

    def test_relative_gap_small_for_large_payloads(self):
        # at many antennas the absolute gap drifts to a few bits; relative
        # agreement stays below 2% (measured: 4/547 ~ 0.7%)
        dist = SirDistribution.from_beta(0.1, 8)
        cfg = LinkConfig(8, 200, 1e-3, Scheme.SC)
        asym = sc_kstar_approx(dist, cfg)
        fb = fb_kstar(dist, cfg)
        assert asym.k_star > 100
        assert abs(fb.k_star - asym.k_star) / asym.k_star < 0.02

    def test_small_payload_gap_is_wider(self, main_dist):
        cfg = LinkConfig(2, 200, 7e-5, Scheme.SC)
        asym = sc_kstar_approx(main_dist, cfg)
        fb = fb_kstar(main_dist, cfg)
        assert asym.k_star <= 30
        assert fb.k_star < asym.k_star

    @pytest.mark.parametrize("eps", [1e-6, 1e-4])
    def test_equals_exhaustive_grid_search(self, eps):
        # eps=1e-6 is infeasible here (not even one bit fits): the search and
        # the exhaustive grid must agree on that too
        dist = SirDistribution.from_beta(0.8, 8)
        cfg = LinkConfig(2, 400, eps, Scheme.SC)
        sol = fb_kstar(dist, cfg)
        density = combined_sir_pdf(dist, 2, Scheme.SC)
        feasible = [
            k
            for k in range(1, 801)
            if fb_error_average(density, k, 400).epsilon_fb <= eps
        ]
        if feasible:
            assert sol.k_star == max(feasible)
            assert not sol.infeasible
        else:
            assert sol.k_star == 0
            assert sol.infeasible

    def test_never_far_above_asymptotic(self, main_dist):
        for antennas, eps in ((1, 1e-2), (2, 1e-4), (4, 1e-6)):
            cfg = LinkConfig(antennas, 200, eps, Scheme.SC)
            asym = sc_kstar_approx(main_dist, cfg)
            fb = fb_kstar(main_dist, cfg)
            assert fb.k_star <= asym.k_star + 2
            mrc_cfg = LinkConfig(antennas, 200, eps, Scheme.MRC)
            asym_mrc = mrc_kstar(main_dist, mrc_cfg)
            fb_mrc = fb_kstar(main_dist, mrc_cfg)
            assert fb_mrc.k_star <= asym_mrc.k_star + 2

    def test_never_far_above_asymptotic_at_long_blocklength(self):
        dist = SirDistribution.from_beta(0.8, 8)
        cfg = LinkConfig(2, 10**6, 1e-6, Scheme.MRC)
        asym = mrc_kstar(dist, cfg)
        fb = fb_kstar(dist, cfg)
        assert fb.k_star <= asym.k_star + 2

    def test_error_strictly_increasing_in_payload(self, main_dist):
        density = combined_sir_pdf(main_dist, 2, Scheme.SC)
        values = [fb_error_average(density, k, 200).epsilon_fb for k in range(1, 40, 4)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rate_gap_shrinks_with_blocklength(self):
        dist = SirDistribution.from_beta(0.8, 8)
        gaps = []
        for n in (200, 400, 800, 1600):
            cfg = LinkConfig(2, n, 1e-6, Scheme.SC)
            asym = sc_kstar_approx(dist, cfg)
            fb = fb_kstar(dist, cfg)
            gaps.append(abs(fb.k_star / n - asym.k_real / n))
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))

    def test_infeasible_flag(self):
        dist = SirDistribution.from_beta(50.0, 2)
        sol = fb_kstar(dist, LinkConfig(1, 200, 1e-9, Scheme.SC))
        assert sol.k_star == 0 and sol.infeasible

    def test_mrc_scheme_dispatch(self, main_dist):
        cfg = LinkConfig(4, 200, 1e-5, Scheme.MRC)
        sol = fb_kstar(main_dist, cfg)
        asym = mrc_kstar(main_dist, cfg)
        assert 0 < sol.k_star <= asym.k_star + 2
        assert sol.predicted_epsilon <= 1e-5
