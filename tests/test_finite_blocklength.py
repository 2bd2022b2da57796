import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from urpayload import finite_blocklength, numerics, rate_control
from urpayload.finite_blocklength import (
    _grid_step,
    channel_dispersion,
    fb_error_average,
    fb_error_conditional,
    fb_kstar,
    shannon_capacity,
)
from urpayload.numerics import (
    Bracket,
    find_root_monotone,
    integrate_semi_infinite,
    log_grid,
    trapezoid_from_sums,
)
from urpayload.rate_control import (
    LinkConfig,
    Method,
    Scheme,
    _finish,
    _max_feasible_k,
    asymptotic_kstar,
    combined_sir_pdf,
    mrc_error,
    sc_error,
    theta_for_rate,
)
from urpayload.sir_model import SirDistribution


def _closed_form_row(scheme):
    # the method-table row that seeds the FB search for `scheme`
    return rate_control._ASYMPTOTIC[rate_control._CLOSED_FORM[scheme]]


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
        assert fb_error_conditional(0.0, 0, 200) == 0.5  # the limit at k = 0

    def test_arithmetic_reference(self):
        assert fb_error_conditional(1.0, 100, 200) == pytest.approx(
            FB_COND_REFERENCE, rel=1e-12
        )

    def test_array_matches_scalar(self):
        sirs = np.array([0.0, 0.5, 1.0, 4.0])
        vec = fb_error_conditional(sirs, 50, 200)
        for s, v in zip(sirs, vec):
            assert v == pytest.approx(fb_error_conditional(float(s), 50, 200), rel=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 8, 50.5, 400])
    @pytest.mark.parametrize("n", [1, 200, 10**5])
    def test_equals_the_one_expression_form(self, rng, k, n):
        # the two-buffer form has the doubles of the expression it replaced
        edges = [0.0, 5e-324, 1e-300, math.inf, math.nan]
        sir = np.concatenate([edges, rng.exponential(size=5000) * np.geomspace(1e-9, 1e9, 5000)])
        got = fb_error_conditional(sir, k, n)
        assert got.tobytes() == one_expression_conditional(sir, k, n).tobytes()
        for x in edges:
            assert fb_error_conditional(x, k, n).tobytes() == (
                one_expression_conditional(x, k, n).tobytes()
            )

    @pytest.mark.parametrize("sir", [1.5, np.float64(0.0), np.array(2.0), [0.0, 1.0, 4.0]])
    def test_type_and_shape_of_the_one_expression_form(self, sir):
        got, want = fb_error_conditional(sir, 8, 200), one_expression_conditional(sir, 8, 200)
        assert type(got) is type(want) and got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @given(st.floats(min_value=0.01, max_value=100.0), st.integers(min_value=1, max_value=400))
    @settings(max_examples=50)
    def test_monotone_in_payload(self, sir, k):
        assert fb_error_conditional(sir, k + 1, 200) >= fb_error_conditional(sir, k, 200)


def one_expression_conditional(sir, k, n):
    # fb_error_conditional as one expression with a temporary per ufunc
    sir_arr = np.asarray(sir, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        spread = np.sqrt(channel_dispersion(sir_arr) / n)
        prob = 0.5 * special.erfc((shannon_capacity(sir_arr) - k / n) / spread / math.sqrt(2.0))
    return np.where(sir_arr == 0.0, 1.0 if k > 0 else 0.5, prob)


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
    result = fb_error_average(main_dist, antennas, Scheme.SC, k, n)
    assert abs(result.epsilon_fb - mc_mean) < 3.0 * mc_sigma


def _q_through_erfc(z):
    # the reference: erfc on every element, saturated or not
    return 0.5 * special.erfc(z / math.sqrt(2.0))


class TestQOfMargin:
    """Q of the margin (C - k/n)/s, as `fb_error_conditional` forms it."""

    def test_thresholds_are_exact_through_erfc(self):
        assert np.all(_q_through_erfc(np.linspace(-1e3, -8.5, 4001)) == 1.0)
        assert np.all(_q_through_erfc(np.linspace(40.0, 1e3, 4001)) == 0.0)
        assert _q_through_erfc(-np.inf) == 1.0 and _q_through_erfc(np.inf) == 0.0

    @pytest.mark.parametrize("n", [100, 2000, 10**5])
    def test_equals_erfc_on_every_grid_node(self, n):
        x, _ = log_grid(_grid_step(n))
        capacity = shannon_capacity(x)
        spread = np.sqrt(channel_dispersion(x) / n)
        top = n * shannon_capacity(1e12)
        for k in np.unique(np.geomspace(1.0, 1.2 * top, 40).round()):
            with np.errstate(divide="ignore"):
                z = (capacity - float(k) / n) / spread
            got = fb_error_conditional(x, float(k), n)
            assert got.tobytes() == _q_through_erfc(z).tobytes()

    def test_saturates_exactly(self):
        # exactly 1.0 below z = -8.5 and exactly 0.0 above z = 40, with
        # elements on both sides of both edges
        sir = np.geomspace(1e-6, 1e12, 20001)
        n = 200
        for k in (1, 40, 400, 4000):
            z = (shannon_capacity(sir) - k / n) / np.sqrt(channel_dispersion(sir) / n)
            q = fb_error_conditional(sir, k, n)
            assert np.all(q[z < -8.5] == 1.0) and np.all(q[z > 40.0] == 0.0)
            assert np.any(z < -8.5) and np.any((z > -8.0) & (q < 1.0))
            assert np.any(z > 40.0) and np.any((z < 39.0) & (q > 0.0))

    def test_nan_passes_through(self):
        assert np.isnan(fb_error_conditional(np.array([0.5, 1.0, 1e6]), math.nan, 200)).all()
        assert np.isnan(fb_error_conditional(np.array([np.nan]), 10, 200)).all()

    def test_conditional_equals_erfc_on_every_element(self, rng):
        # the simulator's per-trial values, zero SIR included
        sir = np.concatenate([[0.0], rng.exponential(size=20000) * np.geomspace(1e-6, 1e6, 20000)])
        n = 200
        for k in (0, 1, 40, 400, 4000):
            with np.errstate(divide="ignore", invalid="ignore"):
                z = (shannon_capacity(sir) - k / n) / np.sqrt(channel_dispersion(sir) / n)
            want = np.where(sir > 0.0, _q_through_erfc(z), 1.0 if k > 0 else 0.5)
            assert fb_error_conditional(sir, k, n).tobytes() == want.tobytes()


class TestFbErrorAverage:
    def test_headline_four_bits_at_target(self, main_dist):
        # with two antennas over 200 uses, four bits meet a 7e-5 target and
        # five do not
        at_four = fb_error_average(main_dist, 2, Scheme.SC, 4, 200).epsilon_fb
        at_five = fb_error_average(main_dist, 2, Scheme.SC, 5, 200).epsilon_fb
        assert at_four <= 7e-5 < at_five

    def test_against_sampled_expectation(self, main_dist, rng):
        _check_against_sampled_expectation(main_dist, rng, antennas=4, k=60, n=200)

    def test_against_sampled_expectation_at_long_blocklength(self, main_dist, rng):
        # at n=1e5 the error falls from 1 to 0 over a narrow band of ln SIR,
        # which an adaptive rule can step over
        _check_against_sampled_expectation(main_dist, rng, antennas=1, k=1, n=10**5)

    def test_quadrature_estimate_is_tight(self, main_dist):
        result = fb_error_average(main_dist, 2, Scheme.SC, 4, 200)
        assert result.quadrature_error_estimate < 1e-10
        assert 0.0 <= result.epsilon_fb <= 1.0

    def test_short_blocklength_warns(self, main_dist):
        with pytest.warns(UserWarning, match="n >= 100") as record:
            fb_error_average(main_dist, 1, Scheme.SC, 4, 50)
        assert record[0].filename == __file__

    @pytest.mark.parametrize("scheme", [Scheme.SC, Scheme.MRC])
    def test_equals_the_solution_at_kstar_from_the_cache(self, main_dist, scheme):
        # the average the search settled k* on, bit for bit, and from the
        # law arrays the solve cached; "sc" and Scheme.SC share that entry
        cfg = LinkConfig(4, 200, 1e-5, scheme)
        finite_blocklength._law_sums.cache_clear()
        sol = fb_kstar(main_dist, cfg)
        got = fb_error_average(main_dist, 4, scheme.value, sol.k_star, 200)
        assert finite_blocklength._law_sums.cache_info().hits == 1
        assert got.epsilon_fb.hex() == sol.predicted_epsilon.hex()


def _uncached_average(dist, antennas, scheme, n):
    """The average as a function of k, from the law's arrays built afresh
    instead of taken from the per-law cache."""
    law_sums = finite_blocklength._law_sums.__wrapped__(dist, antennas, scheme, _grid_step(n))
    margins = finite_blocklength._margins.__wrapped__(n)
    return finite_blocklength._ErrorAverage(*law_sums, margins, n)


def full_grid_average(dist, antennas, scheme, k, n):
    """The average with Q evaluated on every node of the grid: the oracle for
    the windowed average, which takes the nodes where Q is exactly 1 from
    prefix sums and skips those where it is exactly 0."""
    step = _grid_step(n)
    x, _ = log_grid(step)
    values = combined_sir_pdf(x, dist, antennas, scheme) * fb_error_conditional(x, k, n)
    value, estimate = integrate_semi_infinite(lambda _: values, step)
    return min(max(value, 0.0), 1.0), estimate


def _window_payloads(n):
    """Payloads from k=0 (the window holds the bottom nodes, where the
    spread is 0) to past the top node's capacity, real and whole."""
    top = n * shannon_capacity(1e12)
    payloads = np.concatenate(([0.0, 0.5, 1.0], np.geomspace(2.0, 1.2 * top, 120)))
    return [float(k) for k in np.concatenate((payloads, payloads.round()))]


# laws, blocklengths and payloads from 1e-5 to 1e4 in SIR threshold
_AVERAGE_DOMAIN = dict(
    beta=st.floats(min_value=0.05, max_value=5.0),
    eta=st.integers(min_value=1, max_value=24),
    antennas=st.integers(min_value=1, max_value=16),
    scheme=st.sampled_from([Scheme.SC, Scheme.MRC]),
    log_n=st.floats(min_value=2.0, max_value=5.0),
    log_theta=st.floats(min_value=-5.0, max_value=4.0),
    whole=st.booleans(),
)


def _cut_certified(average, value):
    """Whether the evaluator keeps a tight-window sum of `value`."""
    return finite_blocklength._Q_AT_TOP * average.mass <= finite_blocklength._CUT_TOLERANCE * value


class TestErrorWindow:
    @pytest.mark.parametrize("n", [100, 200, 2000, 10**5])
    def test_window_q_equals_full_grid_q(self, main_dist, n):
        # on the window that ends at z = 40, 1.0 below the window, half of
        # the window's erfc on it and 0.0 above it is fb_error_conditional on
        # every node, bit for bit
        average = _uncached_average(main_dist, 2, Scheme.SC, n)
        x, _ = log_grid(_grid_step(n))
        reached_bottom = reached_top = False
        for k in _window_payloads(n):
            lo, hi, q = average._window(k, average._fall)
            assert 0 <= lo < hi <= len(x)
            full = np.concatenate((np.ones(lo), 0.5 * q, np.zeros(len(x) - hi)))
            assert full.tobytes() == fb_error_conditional(x, k, n).tobytes()
            reached_bottom |= lo == 0
            reached_top |= hi == len(x)
        assert reached_bottom and reached_top

    @pytest.mark.parametrize("n", [100, 200, 2000, 10**5])
    def test_tight_window_q_equals_full_grid_q(self, main_dist, n):
        # on the window that ends at the tight edge, fb_error_conditional is
        # exactly 1.0 below it, half of the window's erfc on it, bit for
        # bit, and at most Q(z_top) above it; the tight edge ends the window
        # before the z = 40 edge for most payloads
        average = _uncached_average(main_dist, 2, Scheme.SC, n)
        x, _ = log_grid(_grid_step(n))
        reached_bottom = reached_top = False
        shorter = 0
        payloads = _window_payloads(n)
        for k in payloads:
            lo, hi, q = average._window(k, average._tight)
            assert 0 <= lo < hi <= len(x)
            conditional = fb_error_conditional(x, k, n)
            assert np.all(conditional[:lo] == 1.0)
            assert (0.5 * q).tobytes() == conditional[lo:hi].tobytes()
            assert np.all(conditional[hi:] <= finite_blocklength._Q_AT_TOP)
            reached_bottom |= lo == 0
            reached_top |= hi == len(x)
            shorter += hi < average._window(k, average._fall)[1]
        assert reached_bottom and reached_top
        assert shorter > len(payloads) // 2

    def test_window_is_narrow(self, main_dist):
        average = _uncached_average(main_dist, 2, Scheme.SC, 200)
        for top in (average._tight, average._fall):
            lo, hi, _ = average._window(100.0, top)
            assert hi - lo < len(log_grid(_grid_step(200))[0]) // 10

    def test_nan_payload_raises(self, main_dist):
        with pytest.raises(ValueError):
            fb_error_average(main_dist, 2, Scheme.SC, math.nan, 200)

    @given(**_AVERAGE_DOMAIN)
    @settings(max_examples=120, deadline=None)
    def test_equals_full_grid_average(
        self, beta, eta, antennas, scheme, log_n, log_theta, whole
    ):
        n = int(round(10.0**log_n))
        k = n * math.log2(1.0 + 10.0**log_theta)
        if whole:
            k = float(round(k))
        dist = SirDistribution.from_beta(beta, eta)
        got = fb_error_average(dist, antennas, scheme, k, n)
        want, estimate = full_grid_average(dist, antennas, scheme, k, n)
        assert got.epsilon_fb == pytest.approx(want, rel=1e-13, abs=0.0)
        assert got.quadrature_error_estimate == pytest.approx(estimate, rel=0.0, abs=1e-13)

    @given(**_AVERAGE_DOMAIN)
    @settings(max_examples=120, deadline=None)
    def test_equals_the_z40_window_average(
        self, beta, eta, antennas, scheme, log_n, log_theta, whole
    ):
        # cutting the window at the tight edge moves the average by at most
        # rounding where the certificate holds, and not at all where the
        # evaluator sums again on the window that ends at z = 40
        n = int(round(10.0**log_n))
        k = n * math.log2(1.0 + 10.0**log_theta)
        if whole:
            k = float(round(k))
        dist = SirDistribution.from_beta(beta, eta)
        got = fb_error_average(dist, antennas, scheme, k, n)
        average = _uncached_average(dist, antennas, scheme, n)
        want, estimate = average._sum(k, average._fall)
        want = min(max(want, 0.0), 1.0)
        if _cut_certified(average, average._sum(k, average._tight)[0]):
            assert got.epsilon_fb == pytest.approx(want, rel=1e-14, abs=0.0)
        else:
            assert got.epsilon_fb.hex() == want.hex()
            assert got.quadrature_error_estimate.hex() == estimate.hex()

    def test_deep_average_is_summed_on_the_z40_window(self):
        # an average of about 1e-40 is far below the certificate's floor of
        # about 2e-15, so it is the z = 40 window's to the last bit
        dist = SirDistribution.from_beta(0.001, 8)
        average = _uncached_average(dist, 16, Scheme.MRC, 200)
        tight, _ = average._sum(886.0, average._tight)
        assert not _cut_certified(average, tight)
        got = fb_error_average(dist, 16, Scheme.MRC, 886, 200)
        want, estimate = average._sum(886.0, average._fall)
        assert got.epsilon_fb.hex() == want.hex() == (9.542305642705016e-41).hex()
        assert got.quadrature_error_estimate.hex() == estimate.hex()

    @given(
        log_beta=st.floats(min_value=-3.0, max_value=3.0),
        eta=st.integers(min_value=1, max_value=24),
        antennas=st.integers(min_value=1, max_value=16),
        scheme=st.sampled_from([Scheme.SC, Scheme.MRC]),
        log_n=st.floats(min_value=2.0, max_value=4.0),
        log_theta=st.floats(min_value=-6.0, max_value=13.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_halved_law_gives_the_unhalved_sums_bit_for_bit(
        self, log_beta, eta, antennas, scheme, log_n, log_theta
    ):
        # the window forms Q*g as erfc*(g/2); the average is the one from
        # (0.5*erfc)*g, the products before the halving was folded into g
        n = int(round(10.0**log_n))
        k = n * math.log2(1.0 + 10.0**log_theta)
        dist = SirDistribution.from_beta(10.0**log_beta, eta)
        x, h = log_grid(_grid_step(n))
        g = combined_sir_pdf(x, dist, antennas, scheme) * x
        below = finite_blocklength._prefix_sums(g)
        average = _uncached_average(dist, antennas, scheme, n)

        def rebuilt(top):
            lo, hi, erfc = average._window(k, top)
            q = (0.5 * erfc) * g[lo:hi]
            even_below = below[(lo + 1) // 2, 0]
            return trapezoid_from_sums(
                h,
                even_below + below[lo // 2, 1] + q.sum(),
                even_below + q[lo % 2 :: 2].sum(),
                g[0] if lo > 0 else q[0],
                q[-1] if hi == len(g) else 0.0,
            )

        # the window the evaluator summed: the tight one where the
        # certificate holds, the one that ends at z = 40 otherwise
        value, estimate = rebuilt(average._tight)
        if not _cut_certified(average, value):
            value, estimate = rebuilt(average._fall)
        got, got_estimate = average(k)
        assert got.hex() == min(max(value, 0.0), 1.0).hex()
        assert got_estimate.hex() == estimate.hex()


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
        method = Method.SC_APPROX if scheme is Scheme.SC else Method.MRC_NUMERIC
        asym = asymptotic_kstar(method, dist, cfg)
        k = max(asym.k_star, 1)
        got = fb_error_average(dist, antennas, scheme, k, n).epsilon_fb
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
        asym = asymptotic_kstar(Method.SC_APPROX, dist, cfg)
        fb = fb_kstar(dist, cfg)
        assert asym.k_star > 100
        assert abs(fb.k_star - asym.k_star) <= 2

    def test_relative_gap_small_for_large_payloads(self):
        # at many antennas the absolute gap drifts to a few bits; relative
        # agreement stays below 2% (measured: 4/547 ~ 0.7%)
        dist = SirDistribution.from_beta(0.1, 8)
        cfg = LinkConfig(8, 200, 1e-3, Scheme.SC)
        asym = asymptotic_kstar(Method.SC_APPROX, dist, cfg)
        fb = fb_kstar(dist, cfg)
        assert asym.k_star > 100
        assert abs(fb.k_star - asym.k_star) / asym.k_star < 0.02

    def test_small_payload_gap_is_wider(self, main_dist):
        cfg = LinkConfig(2, 200, 7e-5, Scheme.SC)
        asym = asymptotic_kstar(Method.SC_APPROX, main_dist, cfg)
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
        feasible = [
            k
            for k in range(1, 801)
            if fb_error_average(dist, 2, Scheme.SC, k, 400).epsilon_fb <= eps
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
            asym = asymptotic_kstar(Method.SC_APPROX, main_dist, cfg)
            fb = fb_kstar(main_dist, cfg)
            assert fb.k_star <= asym.k_star + 2
            mrc_cfg = LinkConfig(antennas, 200, eps, Scheme.MRC)
            asym_mrc = asymptotic_kstar(Method.MRC_NUMERIC, main_dist, mrc_cfg)
            fb_mrc = fb_kstar(main_dist, mrc_cfg)
            assert fb_mrc.k_star <= asym_mrc.k_star + 2

    def test_never_far_above_asymptotic_at_long_blocklength(self):
        dist = SirDistribution.from_beta(0.8, 8)
        cfg = LinkConfig(2, 10**6, 1e-6, Scheme.MRC)
        asym = asymptotic_kstar(Method.MRC_NUMERIC, dist, cfg)
        fb = fb_kstar(dist, cfg)
        assert fb.k_star <= asym.k_star + 2

    def test_error_strictly_increasing_in_payload(self, main_dist):
        values = [
            fb_error_average(main_dist, 2, Scheme.SC, k, 200).epsilon_fb for k in range(1, 40, 4)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rate_gap_shrinks_with_blocklength(self):
        dist = SirDistribution.from_beta(0.8, 8)
        gaps = []
        for n in (200, 400, 800, 1600):
            cfg = LinkConfig(2, n, 1e-6, Scheme.SC)
            asym = asymptotic_kstar(Method.SC_APPROX, dist, cfg)
            fb = fb_kstar(dist, cfg)
            gaps.append(abs(fb.k_star / n - asym.k_real / n))
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))

    def test_each_payload_averaged_once(self, main_dist, monkeypatch):
        # the root search for k_real reads err(k) and err(k+1), which the
        # integer walk has computed, from the ends of its bracket
        averaged = []
        original = finite_blocklength._ErrorAverage.__call__

        def spy(self, k):
            averaged.append(float(k))
            return original(self, k)

        monkeypatch.setattr(finite_blocklength._ErrorAverage, "__call__", spy)
        sol = fb_kstar(main_dist, LinkConfig(2, 200, 7e-5, Scheme.SC))
        assert not sol.infeasible
        assert len(averaged) == len(set(averaged))
        assert {float(sol.k_star), float(sol.k_star + 1)} <= set(averaged)

    @pytest.mark.parametrize("scheme", [Scheme.SC, Scheme.MRC])
    def test_few_averages_per_solve(self, scheme, monkeypatch):
        # the integer walk from the dispersion-corrected seed takes 2
        # averages here (7 from the closed form); k_real's bisection to
        # 2^-30 would take 30 more, its replay takes 4
        averaged = []
        original = finite_blocklength._ErrorAverage.__call__

        def spy(self, k):
            averaged.append(k)
            return original(self, k)

        monkeypatch.setattr(finite_blocklength._ErrorAverage, "__call__", spy)
        sol = fb_kstar(SirDistribution.from_beta(0.8, 8), LinkConfig(4, 200, 1e-6, scheme))
        assert not sol.infeasible
        assert len(averaged) <= 6

    def test_target_not_below_the_saturated_error_is_refused(self):
        # the eta=1 tail leaves about 1.2e-12 of the mass above the grid, so
        # err(k) rises only to the saturated average, 0.99999999999875; every
        # payload meets a target there, and the walk would gallop until k/n
        # overflows
        dist = SirDistribution.from_beta(0.8, 1)
        saturated, _ = finite_blocklength._law_average(dist, 1, Scheme.MRC, 200)(math.inf)
        assert saturated < 1.0 - 1e-12
        for eps in (saturated, 0.9999999999999999):
            with pytest.raises(ValueError, match=f"epsilon_th={eps!r}.*saturated"):
                fb_kstar(dist, LinkConfig(1, 200, eps, Scheme.MRC))
        eps = math.nextafter(saturated, 0.0)
        sol = fb_kstar(dist, LinkConfig(1, 200, eps, Scheme.MRC))
        assert sol.predicted_epsilon <= eps and math.isfinite(sol.k_real)

    def test_infeasible_flag(self):
        dist = SirDistribution.from_beta(50.0, 2)
        sol = fb_kstar(dist, LinkConfig(1, 200, 1e-9, Scheme.SC))
        assert sol.k_star == 0 and sol.infeasible

    def test_mrc_scheme_dispatch(self, main_dist):
        cfg = LinkConfig(4, 200, 1e-5, Scheme.MRC)
        sol = fb_kstar(main_dist, cfg)
        asym = asymptotic_kstar(Method.MRC_NUMERIC, main_dist, cfg)
        assert 0 < sol.k_star <= asym.k_star + 2
        assert sol.predicted_epsilon <= 1e-5


def _walked_solution(dist, cfg, guess):
    """fb_kstar's answer from the uncached average, with the integer walk
    started at `guess` instead of at `_seed_k`."""
    n, eps = cfg.blocklength, cfg.epsilon_th
    average = _uncached_average(dist, cfg.antennas, cfg.scheme, n)

    def err(k):
        return average(k)[0]

    k, e, e_next = _max_feasible_k(err, eps, guess)
    if k < 1:
        return _finish(k, 0.0, e, n, Method.FB)
    bracket = Bracket(float(k), float(k + 1), e, e_next)
    k_real = find_root_monotone(err, eps, bracket, tol=2**-30)
    return _finish(k, k_real, e, n, Method.FB)


def _bits(sol):
    return (sol.k_star, sol.k_real.hex(), sol.predicted_epsilon.hex(), sol.infeasible)


class TestSeedIndependence:
    @given(
        beta=st.floats(min_value=0.05, max_value=5.0),
        eta=st.integers(min_value=1, max_value=24),
        antennas=st.integers(min_value=1, max_value=16),
        scheme=st.sampled_from([Scheme.SC, Scheme.MRC]),
        log_eps=st.floats(min_value=-9.0, max_value=-1.0),
        n=st.integers(min_value=100, max_value=2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_payload_does_not_depend_on_the_guess(
        self, beta, eta, antennas, scheme, log_eps, n
    ):
        # the walk and the root search see only err(k), so a guess far below
        # or far above the dispersion-corrected seed lands on the same bits
        dist = SirDistribution.from_beta(beta, eta)
        cfg = LinkConfig(antennas, n, 10.0**log_eps, scheme)
        got = _bits(fb_kstar(dist, cfg))
        seed = finite_blocklength._seed_k(dist, cfg)
        assert _bits(_walked_solution(dist, cfg, seed)) == got
        for guess in (0.0, 4.0 * max(seed, 0.0) + 10.0):
            assert _bits(_walked_solution(dist, cfg, guess)) == got

    @pytest.mark.parametrize("scheme", [Scheme.SC, Scheme.MRC])
    def test_seed_takes_off_the_dispersion_penalty(self, scheme):
        # k_cf is the closed-form asymptotic payload; the seed takes off
        # n*lam*V/2, with lam the slope of ln(asymptotic error) per bit
        dist = SirDistribution.from_beta(0.8, 8)
        n = 200
        cfg = LinkConfig(4, n, 1e-6, scheme)
        if scheme is Scheme.SC:
            k_cf = asymptotic_kstar(Method.SC_APPROX, dist, cfg).k_real
            error = lambda k: sc_error(theta_for_rate(k, n), dist, 4)  # noqa: E731
        else:
            k_cf = asymptotic_kstar(Method.MRC_CLOSED, dist, cfg).k_real
            error = lambda k: mrc_error(theta_for_rate(k, n), dist, 4)  # noqa: E731
        assert _closed_form_row(scheme).k_real(dist, cfg) == k_cf
        slope = math.log(error(k_cf + 0.5) / error(k_cf - 0.5))
        penalty = n * slope * channel_dispersion(theta_for_rate(k_cf, n)) / 2.0
        seed = finite_blocklength._seed_k(dist, cfg)
        assert seed == pytest.approx(k_cf - penalty, rel=1e-12)
        # here the seed is within a bit of the FB k_real, and the closed form
        # more than 5 bits above it
        k_real = fb_kstar(dist, cfg).k_real
        assert abs(seed - k_real) < 1.0 and k_cf - k_real > 5.0

    @given(
        beta=st.floats(min_value=0.0, max_value=math.inf, exclude_min=True, exclude_max=True),
        eta=st.integers(min_value=1, max_value=10**4),
        antennas=st.integers(min_value=1, max_value=10**6),
        n=st.integers(min_value=1, max_value=10**8),
        eps=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        scheme=st.sampled_from([Scheme.SC, Scheme.MRC]),
    )
    @settings(max_examples=300, deadline=None)
    def test_seed_is_finite_wherever_the_closed_form_is(
        self, beta, eta, antennas, n, eps, scheme
    ):
        # every input `urp rate` takes: the seed neither raises nor warns
        # (numpy warnings are errors here), and falls back to the closed
        # form where the slope or its logarithms are undefined
        cfg = LinkConfig(antennas, n, eps, scheme)
        try:
            dist = SirDistribution.from_beta(beta, eta)
            k_cf = _closed_form_row(scheme).k_real(dist, cfg)
        except ValueError:  # beta/eta underflows, or eps^(1/M) rounds to 1.0
            return
        seed = finite_blocklength._seed_k(dist, cfg)
        if math.isfinite(k_cf):
            assert math.isfinite(seed) and seed <= k_cf
        else:  # a law the mass check refuses
            assert seed == k_cf


class TestLawCache:
    @pytest.mark.parametrize(
        "antennas,scheme,n", [(1, Scheme.SC, 200), (4, Scheme.MRC, 400), (8, Scheme.SC, 2000)]
    )
    def test_cold_and_warm_solves_equal_the_uncached_one(self, antennas, scheme, n):
        dist = SirDistribution.from_beta(0.8, 8)
        cfg = LinkConfig(antennas, n, 1e-6, scheme)
        finite_blocklength._law_sums.cache_clear()
        cold = fb_kstar(dist, cfg)
        warm = fb_kstar(dist, cfg)
        assert finite_blocklength._law_sums.cache_info().hits == 1
        want = _walked_solution(dist, cfg, finite_blocklength._seed_k(dist, cfg))
        assert _bits(cold) == _bits(warm) == _bits(want)
        assert cold == warm == want

    def test_cached_arrays_are_read_only(self):
        g, below, mass = finite_blocklength._law_sums(
            SirDistribution.from_beta(0.8, 8), 2, Scheme.SC, _grid_step(200)
        )
        assert mass == pytest.approx(1.0, abs=1e-6)
        for array in (g, below):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_failed_mass_check_raises_on_every_call(self):
        dist = SirDistribution.from_beta(1e-300, 10)
        cfg = LinkConfig(1, 200, 0.5, Scheme.SC)
        finite_blocklength._law_sums.cache_clear()
        for _ in range(3):
            with pytest.raises(ValueError, match="mass"):
                fb_kstar(dist, cfg)
        assert finite_blocklength._law_sums.cache_info().hits == 2

    def test_grids_above_the_node_limit_are_not_kept(self):
        # the grid of n = 2*10^5 has 76,203 nodes: a solve there leaves the
        # grid, blocklength and law caches as it found them, while a solve at
        # a preset's blocklength goes through all three
        caches = (numerics._build_grid, finite_blocklength._margins, finite_blocklength._law_sums)

        def lookups():
            return [cache.cache_info().hits + cache.cache_info().misses for cache in caches]

        dist = SirDistribution.from_beta(0.8125, 8)  # a law no other test caches
        before = [cache.cache_info() for cache in caches]
        fb_kstar(dist, LinkConfig(1, 2 * 10**5, 1e-3, Scheme.SC))
        assert [cache.cache_info() for cache in caches] == before
        counted = lookups()
        fb_kstar(dist, LinkConfig(1, 2000, 1e-3, Scheme.SC))
        assert all(after > count for after, count in zip(lookups(), counted))

    def test_laws_with_equal_eta_and_beta_are_apart(self):
        # the key is the whole law: equal (eta, beta), other weights
        equal = SirDistribution.from_path_losses(1.0, [0.4, 0.4])
        unequal = SirDistribution.from_path_losses(1.0, [0.2, 0.6])
        assert (equal.eta, equal.beta) == (unequal.eta, unequal.beta)
        finite_blocklength._law_sums.cache_clear()
        fb_kstar(equal, LinkConfig(2, 200, 1e-3, Scheme.SC))
        fb_kstar(unequal, LinkConfig(2, 200, 1e-3, Scheme.SC))
        assert finite_blocklength._law_sums.cache_info().misses == 2
