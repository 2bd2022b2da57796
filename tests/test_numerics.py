import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urpayload.numerics import (
    Bracket,
    BracketError,
    find_root_monotone,
    integrate_semi_infinite,
    log_grid,
    q_function,
    regularized_gamma_lower,
    regularized_gamma_upper,
)

# Frozen from a 50-digit quadrature of the defining Gaussian integral.
Q_AT_ONE = 0.15865525393145705
# Frozen from a 50-digit brute-force series for the lower incomplete gamma.
P_3_01 = 1.5465307026467168e-4


class TestQFunction:
    def test_symmetry_point(self):
        assert q_function(0.0) == 0.5

    def test_deep_tail_underflows_cleanly(self):
        value = q_function(40.0)
        assert 0.0 <= value < 1e-300

    def test_reference_value(self):
        assert q_function(1.0) == pytest.approx(Q_AT_ONE, rel=1e-12)

    @given(st.floats(min_value=-6.0, max_value=6.0))
    def test_complement_identity(self, x):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-12)

    @given(
        st.floats(min_value=-6.0, max_value=6.0),
        st.floats(min_value=1e-3, max_value=2.0),
    )
    def test_strictly_decreasing(self, x, step):
        assert q_function(x + step) < q_function(x)


class TestRegularizedGamma:
    def test_at_origin(self):
        assert regularized_gamma_upper(1.0, 0.0) == 1.0
        assert regularized_gamma_lower(1.0, 0.0) == 0.0

    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_unit_shape_is_exponential(self, x):
        assert regularized_gamma_upper(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_left_tail_reference_value(self):
        assert regularized_gamma_lower(3.0, 0.1) == pytest.approx(P_3_01, rel=1e-12)

    @pytest.mark.parametrize("p", range(1, 17))
    def test_complement_identity(self, p):
        for x in np.linspace(0.0, 50.0, 101):
            total = regularized_gamma_lower(p, x) + regularized_gamma_upper(p, x)
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16])
    def test_integer_shape_finite_sum_identity(self, m):
        # Q(m, x) = e^-x * sum_{j<m} x^j / j!
        for x in np.linspace(0.01, 40.0, 40):
            explicit = math.exp(-x) * math.fsum(x**j / math.factorial(j) for j in range(m))
            assert regularized_gamma_upper(m, x) == pytest.approx(explicit, rel=1e-10)

    @pytest.mark.parametrize("p,x", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.5)])
    def test_domain_errors(self, p, x):
        with pytest.raises(ValueError):
            regularized_gamma_upper(p, x)
        with pytest.raises(ValueError):
            regularized_gamma_lower(p, x)


class TestFindRootMonotone:
    def test_identity_function(self):
        root = find_root_monotone(lambda x: x, 0.5, Bracket(0.0, 1.0), tol=1e-12)
        assert root == pytest.approx(0.5, abs=1e-12)

    def test_square_root_of_two(self):
        root = find_root_monotone(lambda x: x * x, 2.0, Bracket(0.0, 2.0), tol=1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-11)

    def test_decreasing_function(self):
        root = find_root_monotone(lambda x: -x, -0.25, Bracket(0.0, 1.0), tol=1e-12)
        assert root == pytest.approx(0.25, abs=1e-12)

    def test_invalid_bracket_raises(self):
        with pytest.raises(BracketError):
            find_root_monotone(lambda x: x, 5.0, Bracket(0.0, 1.0))

    def test_bracket_requires_order(self):
        with pytest.raises(ValueError):
            Bracket(1.0, 1.0)

    def test_lomax_sum_quantile_matches_grid_scan(self):
        # independent oracle: dense grid scan of the same CDF
        from urpayload.rate_control import lomax_sum_cdf

        target = 1e-3
        grid = np.logspace(-6.0, 0.0, 200_001)
        values = np.array([lomax_sum_cdf(float(x), 2, 10) for x in grid])
        scan = grid[int(np.searchsorted(values, target))]
        root = find_root_monotone(
            lambda x: lomax_sum_cdf(x, 2, 10), target, Bracket(0.0, 2.0), tol=1e-14
        )
        assert root == pytest.approx(scan, rel=1e-4)

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=30)
    def test_converged_bracket_width(self, target):
        tol = 1e-10
        root = find_root_monotone(lambda x: x**3, target, Bracket(0.0, 1.0), tol=tol)
        assert abs(root**3 - target) < 3.0 * tol  # slope <= 3 on [0, 1]


class TestIntegrateSemiInfinite:
    def test_unit_exponential_mass(self):
        value, estimate = integrate_semi_infinite(lambda x: np.exp(-x), 0.0115)
        assert value == pytest.approx(1.0, rel=1e-10)
        assert estimate < 1e-8

    def test_lomax_density_normalization(self):
        eta = 10
        value, _ = integrate_semi_infinite(lambda x: eta * (1.0 + x) ** (-eta - 1), 0.0115)
        assert value == pytest.approx(1.0, rel=1e-10)

    def test_returns_python_floats(self):
        value, estimate = integrate_semi_infinite(lambda x: np.exp(-x), 0.05)
        assert type(value) is float and type(estimate) is float

    def test_estimate_compares_against_half_the_nodes(self):
        # a coarse step leaves a visible gap between the rule and its
        # every-other-node version, and that gap bounds the actual error
        value, estimate = integrate_semi_infinite(lambda x: np.exp(-x), 0.5)
        assert estimate > 1e-6
        assert abs(value - 1.0) <= estimate

    @pytest.mark.parametrize("step", [0.0, -0.1])
    def test_step_must_be_positive(self, step):
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda x: np.exp(-x), step)


class TestLogGrid:
    def test_nodes_are_read_only(self):
        x, _ = log_grid(0.0115)
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 1.0

    def test_repeated_step_returns_the_same_grid(self):
        assert log_grid(0.0115) is log_grid(0.0115)

    def test_spans_the_integration_range(self):
        x, h = log_grid(0.0115)
        assert len(x) % 2 == 1
        assert 0.0 < h <= 0.0115
        assert x[0] == pytest.approx(1e-25, rel=1e-12)
        assert x[-1] == pytest.approx(1e12, rel=1e-12)
