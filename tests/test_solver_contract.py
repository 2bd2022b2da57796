"""The contract every payload method keeps, checked over every method.

The methods are the rows of `rate_control._ASYMPTOTIC` plus the
finite-blocklength (FB) search, so a row added to the table is covered here
with no edit. Each solution meets its target under the method's own error
measure, and one more bit would not; k* is nondecreasing in the target, and
for the asymptotic rows also in the blocklength and the antenna count.
"""
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from urpayload import rate_control
from urpayload.finite_blocklength import fb_error_average
from urpayload.rate_control import LinkConfig, Method, Scheme, theta_for_rate
from urpayload.sir_model import SirDistribution
from urpayload.sweeps import solve

ASYMPTOTIC_ROWS = sorted(rate_control._ASYMPTOTIC, key=lambda method: method.value)

LAWS = st.one_of(
    st.builds(
        SirDistribution.from_beta,
        st.floats(-2.0, 2.0).map(lambda u: 10.0**u),
        st.integers(1, 30),
    ),
    st.builds(
        SirDistribution.from_geometry,
        st.floats(10.0, 40.0),
        st.lists(st.floats(15.0, 300.0), min_size=1, max_size=30).map(tuple),
        st.floats(2.5, 4.5),
    ),
)
# eps from 1e-12 to 0.5, log-uniform; a pair of them sorted
LOG_EPS = st.floats(-12.0, math.log10(0.5))
PAIRS = {
    "eps": st.tuples(LOG_EPS, LOG_EPS).map(lambda p: tuple(10.0**u for u in sorted(p))),
    "n": st.tuples(st.integers(100, 2000), st.integers(100, 2000)).map(sorted),
    "M": st.tuples(st.integers(1, 16), st.integers(1, 16)).map(sorted),
}


def _own_error(method, dist, cfg, k):
    """The error measure `method` settles against, at payload k."""
    if method is Method.FB:
        return fb_error_average(dist, cfg.antennas, cfg.scheme, k, cfg.blocklength).epsilon_fb
    error = rate_control._ASYMPTOTIC[method].error
    return error(theta_for_rate(k, cfg.blocklength), dist, cfg.antennas)


def _check_solution(method, dist, cfg):
    sol = solve(method, dist, cfg)
    assert sol.predicted_epsilon <= cfg.epsilon_th
    assert _own_error(method, dist, cfg, sol.k_star + 1) > cfg.epsilon_th
    return sol.k_star


@pytest.mark.parametrize("method", ASYMPTOTIC_ROWS, ids=lambda m: m.value)
@given(dist=LAWS, eps=PAIRS["eps"], n=PAIRS["n"], antennas=PAIRS["M"])
@settings(max_examples=200, deadline=None)
def test_asymptotic_row_contract(method, dist, eps, n, antennas):
    scheme = rate_control._ASYMPTOTIC[method].scheme
    base = LinkConfig(antennas[0], n[0], eps[0], scheme)
    k_star = _check_solution(method, dist, base)
    assert k_star <= _check_solution(method, dist, LinkConfig(antennas[0], n[0], eps[1], scheme))
    assert k_star <= _check_solution(method, dist, LinkConfig(antennas[0], n[1], eps[0], scheme))
    # under MRC only for targets up to 0.5: the Lomax-sum model's CDF rises
    # with M wherever it exceeds about 0.95, so at loose targets its payload
    # falls as antennas are added (README, "Known limitation")
    assert k_star <= _check_solution(method, dist, LinkConfig(antennas[1], n[0], eps[0], scheme))


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
@given(dist=LAWS, eps=PAIRS["eps"], n=st.integers(100, 2000), antennas=st.integers(1, 16))
@settings(max_examples=30, deadline=None)
def test_finite_blocklength_contract(scheme, dist, eps, n, antennas):
    base = LinkConfig(antennas, n, eps[0], scheme)
    try:
        k_star = _check_solution(Method.FB, dist, base)
    except ValueError as exc:  # a law whose mass lies off the FB grid is refused
        assume("has mass" not in str(exc))
        raise
    assert k_star <= _check_solution(Method.FB, dist, LinkConfig(antennas, n, eps[1], scheme))
