import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from urpayload import numerics
from urpayload.numerics import (
    Bracket,
    BracketError,
    find_root_monotone,
    grid_is_kept,
    integrate_semi_infinite,
    log_grid,
)
from urpayload.rate_control import lomax_sum_cdf

# Frozen from a 50-digit brute-force series for the lower incomplete gamma.
P_3_01 = 1.5465307026467168e-4


def gamma_p(p, x):
    """P(p, x) for whole p through lomax_sum_cdf, the package's route to it.

    The Lomax-sum CDF at count p and shape 1 is P(p, p*log1p(y/p)), and
    y = p*expm1(x/p) makes that argument x to within its rounding.
    """
    count = int(p)  # a count below 1 goes to lomax_sum_cdf's own check
    return lomax_sum_cdf(count * math.expm1(x / count) if count > 0 else x, count, 1)


class TestRegularizedGamma:
    """The regularized lower incomplete gamma as `lomax_sum_cdf` evaluates it."""

    def test_at_origin(self):
        assert gamma_p(1.0, 0.0) == 0.0

    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_unit_shape_is_exponential(self, x):
        # P(1, x) = 1 - e^-x, formed without cancellation
        assert gamma_p(1.0, x) == pytest.approx(-math.expm1(-x), rel=1e-12)

    def test_left_tail_reference_value(self):
        assert lomax_sum_cdf(3 * math.expm1(0.1 / 3), 3, 1) == pytest.approx(P_3_01, rel=1e-12)

    @pytest.mark.parametrize("p", range(1, 17))
    def test_complement_identity(self, p):
        for x in np.linspace(0.0, 50.0, 101):
            total = gamma_p(p, x) + special.gammaincc(p, x)
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16])
    def test_integer_shape_finite_sum_identity(self, m):
        # 1 - P(m, x) = e^-x * sum_{j<m} x^j / j!
        for x in np.linspace(0.01, 40.0, 40):
            explicit = math.exp(-x) * math.fsum(x**j / math.factorial(j) for j in range(m))
            complement = 1.0 - gamma_p(m, x)
            assert complement == pytest.approx(explicit, rel=1e-10, abs=1e-15)

    @pytest.mark.parametrize("p,x", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.5)])
    def test_domain_errors(self, p, x):
        with pytest.raises(ValueError):
            gamma_p(p, x)


def measured(f, lo, hi):
    """The bracket [lo, hi] with f evaluated at both ends."""
    return Bracket(lo, hi, f(lo), f(hi))


def solve(f, target, lo, hi, **kwargs):
    """find_root_monotone on [lo, hi], its ends measured here."""
    return find_root_monotone(f, target, measured(f, lo, hi), **kwargs)


class TestFindRootMonotone:
    def test_identity_function(self):
        root = solve(lambda x: x, 0.5, 0.0, 1.0, tol=1e-12)
        assert root == pytest.approx(0.5, abs=1e-12)

    def test_square_root_of_two(self):
        root = solve(lambda x: x * x, 2.0, 0.0, 2.0, tol=1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-11)

    def test_decreasing_function(self):
        root = solve(lambda x: -x, -0.25, 0.0, 1.0, tol=1e-12)
        assert root == pytest.approx(0.25, abs=1e-12)

    def test_invalid_bracket_raises(self):
        with pytest.raises(BracketError):
            solve(lambda x: x, 5.0, 0.0, 1.0)

    @pytest.mark.parametrize("ends", [(0.0, 1.0), (1.0, 0.0), (3.0, 4.0), (4.0, 3.0)])
    def test_one_sided_bracket_raises_without_calling_f(self, ends):
        # the end values, not f, decide the straddle
        def f(x):
            raise AssertionError(f"f called at {x}")

        with pytest.raises(BracketError):
            find_root_monotone(f, 2.5, Bracket(0.0, 1.0, *ends))

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve(lambda x: x, 0.5, 0.0, 1.0, tol=tol)

    def test_bracket_requires_order(self):
        with pytest.raises(ValueError):
            Bracket(1.0, 1.0, 0.0, 1.0)

    def test_lomax_sum_quantile_matches_grid_scan(self):
        # independent oracle: dense grid scan of the same CDF
        from urpayload.rate_control import lomax_sum_cdf

        target = 1e-3
        grid = np.logspace(-6.0, 0.0, 200_001)
        values = np.array([lomax_sum_cdf(float(x), 2, 10) for x in grid])
        scan = grid[int(np.searchsorted(values, target))]
        root = solve(lambda x: lomax_sum_cdf(x, 2, 10), target, 0.0, 2.0, tol=1e-14)
        assert root == pytest.approx(scan, rel=1e-4)

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=30)
    def test_converged_bracket_width(self, target):
        tol = 1e-10
        root = solve(lambda x: x**3, target, 0.0, 1.0, tol=tol)
        assert abs(root**3 - target) < 3.0 * tol  # slope <= 3 on [0, 1]


def bisection(f, target, lo, hi, tol):
    """Plain bisection of [lo, hi], the oracle find_root_monotone must reproduce.

    Returns the root and the number of calls to f, the two ends included.
    """
    calls = 0

    def g(x):
        nonlocal calls
        calls += 1
        return f(x) - target

    flo, fhi = g(lo), g(hi)
    if flo == 0.0:
        return lo, calls
    if fhi == 0.0:
        return hi, calls
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = g(mid)
        if fmid == 0.0:
            return mid, calls
        if math.copysign(1.0, fmid) == math.copysign(1.0, flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi), calls


def counted(f):
    """f, and the list of the points it has been called at."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


# monotone curves on [lo, hi], scaled by hi so that none overflows there
CURVES = {
    "linear": lambda hi: lambda x: x,
    "cube": lambda hi: lambda x: x**3,
    "exp": lambda hi: lambda x: math.exp(30.0 * x / hi),
    "power4": lambda hi: lambda x: x**4,
    "power8": lambda hi: lambda x: x**8,
    "power16": lambda hi: lambda x: x**16,
    "steps": lambda hi: lambda x: math.floor(64.0 * x / hi),
}

# the callers' brackets: fb_kstar's k_real, the SC exact root,
# mrc_quantile_numeric, and the default tolerance
BRACKETS = {
    "unit": lambda size: (float(int(size)), float(int(size)) + 1.0, 2.0**-30),
    "payload": lambda size: (0.0, size, 1e-9),
    "quantile": lambda size: (0.0, size, 1e-15 * size),
    "default": lambda size: (0.0, size, None),
}


class TestFindRootMonotoneEqualsBisection:
    @given(
        curve=st.sampled_from(sorted(CURVES)),
        shape=st.sampled_from(sorted(BRACKETS)),
        size=st.floats(min_value=0.01, max_value=5000.0),
        # the root's place in the bracket: log-uniform down to 1e-12 of its
        # width (deep targets for the powers), or a dyadic fraction, where
        # bisection may land on the root exactly and stop early
        place=st.one_of(
            st.floats(min_value=-12.0, max_value=0.0).map(lambda e: 10.0**e),
            st.integers(min_value=1, max_value=2**12 - 1).map(lambda j: j / 2**12),
        ),
        increasing=st.booleans(),
        # the start estimate, as a place in the bracket like the root's: none,
        # the root's own, the ends, in or outside the bracket, or not finite
        guess=st.one_of(
            st.none(),
            st.just("root"),
            st.sampled_from([0.0, 1.0, math.nan, math.inf, -math.inf]),
            st.floats(min_value=-1.0, max_value=2.0),
        ),
    )
    @example(curve="power8", shape="quantile", size=8.0, place=0.5, increasing=True, guess=None)
    @example(curve="cube", shape="default", size=1.0, place=0.125, increasing=False, guess=None)
    # a flat start: regula falsi creeps along it, and the spare calls must
    # still hand the search back to bisection in time
    @example(curve="cube", shape="quantile", size=8.0, place=1e-6, increasing=True, guess=None)
    # an estimate at the root itself, and one that is NaN
    @example(curve="steps", shape="payload", size=100.0, place=0.3, increasing=True, guess="root")
    @example(curve="exp", shape="unit", size=3.0, place=1e-9, increasing=False, guess=math.nan)
    @settings(max_examples=400, deadline=None)
    def test_same_double_and_at_most_four_more_calls(
        self, curve, shape, size, place, increasing, guess
    ):
        lo, hi, tol = BRACKETS[shape](size)
        g = CURVES[curve](hi)
        f = g if increasing else (lambda x: -g(x))
        target = f(lo + (hi - lo) * place)
        if f(lo) == f(hi):  # flat within the bracket: no crossing
            return
        expected, oracle_calls = bisection(f, target, lo, hi, 1e-12 if tol is None else tol)
        if guess is not None:
            at = place if guess == "root" else guess
            guess = lo + (hi - lo) * at
        bracket = measured(f, lo, hi)
        f, calls = counted(f)
        if tol is None:
            root = find_root_monotone(f, target, bracket, guess=guess)
        else:
            root = find_root_monotone(f, target, bracket, tol=tol, guess=guess)
        assert root == expected
        assert len(calls) <= oracle_calls - 2 + 4
        assert lo < min(calls, default=hi) and max(calls, default=lo) < hi
        assert len(calls) == len(set(calls))

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (0.1, 0.95), (0.0, 0.77), (0.2, 3.0)])
    def test_plateau_at_the_target(self, lo, hi):
        # f equals the target on [0.3, 0.6]: bisection returns the first
        # midpoint it lands on there, and so must the search, whichever
        # plateau points its interpolation tried first
        def f(x):
            return x if x < 0.3 else max(0.3, x - 0.3)

        expected, oracle_calls = bisection(f, 0.3, lo, hi, 1e-12)
        bracket = measured(f, lo, hi)
        f, calls = counted(f)
        assert find_root_monotone(f, 0.3, bracket) == expected
        assert len(calls) <= oracle_calls - 2 + 4

    @pytest.mark.parametrize("tol", [1e-300, 1e-9, 1e300])
    def test_bracket_as_wide_as_the_floats(self, tol):
        # b - a is near the largest double here; the search must still
        # replay bisection
        lo, hi = -5e307, 8e307
        for target in (-0.25, 3e-301, 7e307):
            expected, _ = bisection(lambda x: x, target, lo, hi, tol)
            assert solve(lambda x: x, target, lo, hi, tol=tol) == expected

    def test_sign_noise_at_the_crossing_is_not_carried(self):
        # x^3 with a +-1e-13 relative wobble: its sign is noise within ~1e-13
        # of the crossing, as lomax_sum_cdf's is within a few ulps; bisection
        # to 1e-15 evaluates midpoints there, and the search must evaluate
        # them too rather than carry a sign from a neighbouring point
        def wobble(x):
            bits = int.from_bytes(struct.pack("<d", x), "little")
            return 1.0 if (bits * 0x9E3779B97F4A7C15) >> 40 & 1 else -1.0

        rng = np.random.default_rng(20261018)
        for root in rng.uniform(0.2, 1.8, 100):
            target = float(root) ** 3

            def f(x):
                return x**3 + 1e-13 * target * wobble(x)

            expected, _ = bisection(f, target, 0.0, 2.0, 2e-15)
            assert solve(f, target, 0.0, 2.0, tol=2e-15) == expected


# nondecreasing curves from 0 at x = 0: smooth, staircase, and the identity
# with a flat run at `level` over [level, level + width]
DOUBLING_CURVES = {
    "sqrt": lambda level, width: math.sqrt,
    "cube": lambda level, width: lambda x: x**3,
    "steps": lambda level, width: lambda x: math.floor(x / width) * width,
    "plateau": lambda level, width: lambda x: x if x < level else max(level, x - width),
}


def doubled_hi(f, target, start):
    # the doubling loop every caller ran before it bisected [0, hi]
    hi = start
    while f(hi) < target:
        hi *= 2.0
    return hi


class TestBracketByDoubling:
    @given(
        curve=st.sampled_from(sorted(DOUBLING_CURVES)),
        level=st.floats(min_value=1e-3, max_value=1e3),
        width=st.floats(min_value=1e-3, max_value=10.0),
        start=st.floats(min_value=1e-3, max_value=1e3),
        # the target: the flat run's level, or anywhere
        target=st.one_of(st.none(), st.floats(min_value=1e-6, max_value=1e4)),
        relative=st.booleans(),
    )
    @example(curve="plateau", level=3.0, width=2.0, start=1.0, target=None, relative=False)
    @example(curve="steps", level=1.0, width=0.5, start=0.25, target=1.5, relative=True)
    @example(curve="cube", level=1.0, width=1.0, start=8.0, target=1.0, relative=False)
    @settings(max_examples=300, deadline=None)
    def test_equals_bisection_of_the_doubled_bracket(
        self, curve, level, width, start, target, relative
    ):
        f = DOUBLING_CURVES[curve](level, width)
        if target is None:
            target = level if curve == "plateau" else width * math.ceil(level / width)
        hi = doubled_hi(f, target, start)
        tol = 1e-15 * hi if relative else 1e-9  # the MRC quantile's and SC's
        expected, _ = bisection(f, target, 0.0, hi, tol)
        spied, calls = counted(f)
        bracket = Bracket.by_doubling(spied, target, start)
        assert find_root_monotone(spied, target, bracket, tol=tol) == expected
        assert len(calls) == len(set(calls))
        assert bracket.hi == hi and bracket.lo in (0.0, hi / 2.0)
        assert (bracket.f_lo, bracket.f_hi) == (f(bracket.lo), f(hi))

    def test_start_already_past_the_target(self):
        f, calls = counted(lambda x: x)
        assert Bracket.by_doubling(f, 0.5, 2.0) == Bracket(0.0, 2.0, 0.0, 2.0)
        assert calls == [2.0, 0.0]


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

    def test_only_grids_up_to_the_node_limit_are_kept(self):
        # the finite-blocklength grid of n = 10^5 (53,885 nodes) is kept, and
        # that of n = 2*10^5 (76,203 nodes) is built on each call
        kept, large = 0.5 / math.sqrt(1e5), 0.5 / math.sqrt(2e5)
        assert grid_is_kept(kept) and not grid_is_kept(large)
        before = numerics._build_grid.cache_info()
        (x, h), (again, h_again) = log_grid(large), log_grid(large)
        assert numerics._build_grid.cache_info() == before
        assert x is not again and np.array_equal(x, again) and h == h_again
        assert len(x) == 76_203 and not x.flags.writeable

    def test_spans_the_integration_range(self):
        x, h = log_grid(0.0115)
        assert len(x) % 2 == 1
        assert 0.0 < h <= 0.0115
        assert x[0] == pytest.approx(1e-25, rel=1e-12)
        assert x[-1] == pytest.approx(1e12, rel=1e-12)
