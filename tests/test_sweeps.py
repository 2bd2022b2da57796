import hashlib
import io
import math
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from urpayload import finite_blocklength, sweeps
from urpayload.rate_control import (
    LinkConfig,
    Method,
    RateSolution,
    Scheme,
    lomax_sum_cdf,
    lomax_sum_cdf_lower_bound_curve,
)
from urpayload.sir_model import SirDistribution
from urpayload.sweeps import (
    Axis,
    PRESET_NAMES,
    SweepSpec,
    preset_rows,
    run_sweep,
    solve,
    write_csv,
)


@pytest.fixture(scope="module")
def dist():
    return SirDistribution.from_beta(0.8, 8)


class TestSweepSpec:
    def test_values_must_be_ordered(self, dist):
        cfg = LinkConfig(2, 200, 1e-3, Scheme.SC)
        with pytest.raises(ValueError, match="ordered"):
            SweepSpec(Axis.EPSILON_TH, (1e-3, 1e-5, 1e-4), cfg, dist, (Method.SC_APPROX,))

    def test_descending_axis_allowed(self, dist):
        cfg = LinkConfig(2, 200, 1e-3, Scheme.SC)
        spec = SweepSpec(
            Axis.EPSILON_TH, (1e-2, 1e-3, 1e-4), cfg, dist, (Method.SC_APPROX,)
        )
        rows = run_sweep(spec)
        assert [r.axis_value for r in rows] == [1e-2, 1e-3, 1e-4]

    def test_method_scheme_consistency(self, dist):
        cfg = LinkConfig(2, 200, 1e-3, Scheme.SC)
        with pytest.raises(ValueError, match="MRC"):
            SweepSpec(Axis.EPSILON_TH, (1e-3,), cfg, dist, (Method.MRC_NUMERIC,))
        mrc = LinkConfig(2, 200, 1e-3, Scheme.MRC)
        with pytest.raises(ValueError, match="requires an SC-scheme config"):
            SweepSpec(Axis.EPSILON_TH, (1e-3,), mrc, dist, (Method.SC_EXACT,))

    def test_empty_values_rejected(self, dist):
        cfg = LinkConfig(2, 200, 1e-3, Scheme.SC)
        with pytest.raises(ValueError):
            SweepSpec(Axis.EPSILON_TH, (), cfg, dist, (Method.SC_APPROX,))


class TestRunSweep:
    def test_single_value_sweep_equals_direct_solve(self, dist):
        cfg = LinkConfig(2, 200, 1e-4, Scheme.SC)
        spec = SweepSpec(Axis.EPSILON_TH, (1e-4,), cfg, dist, (Method.SC_APPROX,))
        (row,) = run_sweep(spec)
        sol = solve(Method.SC_APPROX, dist, cfg)
        assert row.k_star == sol.k_star
        assert row.k_real == sol.k_real
        assert row.predicted_epsilon == sol.predicted_epsilon

    def test_axis_overrides_fixed_field(self, dist):
        cfg = LinkConfig(2, 200, 1e-3, Scheme.SC)
        spec = SweepSpec(Axis.ANTENNAS, (1.0, 4.0), cfg, dist, (Method.SC_APPROX,))
        rows = run_sweep(spec)
        assert [r.antennas for r in rows] == [1, 4]

    def test_beta_axis_rebuilds_distribution(self, dist):
        cfg = LinkConfig(2, 200, 1e-3, Scheme.SC)
        spec = SweepSpec(Axis.BETA, (0.2, 2.0), cfg, dist, (Method.SC_APPROX,))
        rows = run_sweep(spec)
        assert [r.beta for r in rows] == [0.2, 2.0]
        assert rows[0].k_star >= rows[1].k_star

    def test_beta_axis_refuses_unequal_weights(self):
        # the axis rebuilds the law from (beta, eta), which would drop B's weights
        cfg = LinkConfig(1, 200, 1e-3, Scheme.SC)
        methods = (Method.SC_EXACT, Method.SC_APPROX)
        with pytest.raises(ValueError, match="path losses differ"):
            SweepSpec(Axis.BETA, (0.1, 0.3), cfg, sweeps.CDF_SETUPS["B"], methods)


class _Cells(NamedTuple):
    a: object
    b: object
    c: object
    d: object


class _Cell(NamedTuple):
    a: object


# The first column holds signed zeros next to other floats: 0.0 == -0.0, so a
# cache keyed by value would write one where the other belongs. Floats come
# from a short list as well, so that values repeat within a table.
_ZEROS_AND_FLOATS = st.sampled_from([0.0, -0.0, 0.5, -2.5, 1e-300])
_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | _ZEROS_AND_FLOATS
_CELLS = st.one_of(
    _FLOATS,
    st.booleans(),
    st.integers(),
    st.text(),
    _FLOATS.map(np.float64),
    st.booleans().map(np.bool_),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


def _rows_of(cls):
    first = _ZEROS_AND_FLOATS | st.floats()
    width = len(cls._fields)
    row = st.tuples(first, *[_CELLS] * (width - 1)).map(lambda cells: cls(*cells))
    return st.lists(row, min_size=1, max_size=20)


class TestCsvWriter:
    def test_byte_stable_output(self, dist):
        cfg = LinkConfig(2, 200, 1e-3, Scheme.SC)
        spec = SweepSpec(Axis.EPSILON_TH, (1e-4, 1e-3), cfg, dist, (Method.SC_APPROX,))
        rows = run_sweep(spec)
        first, second = io.StringIO(), io.StringIO()
        write_csv(rows, first, comments=["fixed header"])
        write_csv(rows, second, comments=["fixed header"])
        assert first.getvalue() == second.getvalue()

    def test_comments_prefixed(self, dist):
        cfg = LinkConfig(2, 200, 1e-3, Scheme.SC)
        spec = SweepSpec(Axis.EPSILON_TH, (1e-3,), cfg, dist, (Method.SC_APPROX,))
        buf = io.StringIO()
        write_csv(run_sweep(spec), buf, comments=["alpha", "beta"])
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# alpha"
        assert lines[1] == "# beta"
        assert lines[2].startswith("axis,")

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError):
            write_csv([], io.StringIO())

    def test_numpy_scalars_written_as_python_values(self):
        # repr(float(v)), true/false and str(int(v)); repr(np.float64(0.1))
        # is "np.float64(0.1)", and float32's 0.1 is 0.10000000149011612
        row = _Cells(np.float64(0.1), np.bool_(True), np.int64(-7), np.float32(0.5))
        other = _Cells(np.float64(-0.0), np.bool_(False), np.uint8(255), np.float64(np.inf))
        wide = _Cells(np.float32(0.1), np.float16(np.nan), np.int8(-128), np.uint64(2**64 - 1))
        buf = io.StringIO()
        write_csv([row, other, wide], buf)
        assert buf.getvalue() == (
            "a,b,c,d\n0.1,true,-7,0.5\n-0.0,false,255,inf\n"
            f"{float(np.float32(0.1))!r},nan,-128,{2**64 - 1}\n"
        )

    @given(st.sampled_from([_Cells, _Cell]).flatmap(_rows_of), st.lists(st.text(), max_size=2))
    def test_matches_per_cell_formatting(self, rows, comments):
        fields = type(rows[0])._fields
        expected = "".join(
            [f"# {line}\n" for line in comments]
            + [",".join(fields) + "\n"]
            + [
                ",".join(sweeps._format_cell(getattr(row, name)) for name in fields) + "\n"
                for row in rows
            ]
        )
        buf = io.StringIO()
        write_csv(rows, buf, comments)
        assert buf.getvalue() == expected


_DATA = Path(__file__).parent / "data"


def _header(name: str) -> tuple[str, ...]:
    return tuple((_DATA / f"{name}.csv").read_text().partition("\n")[0].split(","))


class TestRecords:
    @pytest.mark.parametrize(
        "cls, fields",
        [
            (
                RateSolution,
                ("k_star", "k_real", "rate", "theta", "predicted_epsilon", "method", "infeasible"),
            ),
            (sweeps.SweepRow, _header("fig2")),
            (sweeps.CdfCurveRow, _header("fig2pp")),
            (
                sweeps.BoundCurveRow,
                ("antennas", "eta", "x", "cdf", "lower_bound", "lower_bound_exact_log"),
            ),
        ],
    )
    def test_named_tuple_fields_are_the_csv_header(self, cls, fields):
        # one tuple allocation per solve and per row, equal and hashable by
        # value, and as immutable as the frozen dataclasses they replace
        assert issubclass(cls, tuple) and cls._fields == fields
        record = cls(*fields)
        assert tuple(record) == fields
        assert record == cls(*fields) and hash(record) == hash(cls(*fields))
        with pytest.raises(AttributeError):
            setattr(record, fields[0], 0)

    def test_solution_is_feasible_by_default(self):
        assert RateSolution(1, 1.5, 0.005, 0.0035, 1e-3, Method.FB).infeasible is False


class TestPresets:
    def test_antenna_preset_reproduces_golden_csv(self):
        # fig5 has SC and MRC finite-blocklength rows next to the asymptotic
        # ones, so any drift in the FB average shows in k_real or
        # predicted_epsilon at full precision
        out = io.StringIO()
        write_csv(preset_rows("fig5"), out)
        assert out.getvalue() == (_DATA / "fig5.csv").read_text()

    def test_epsilon_preset_reproduces_golden_csv(self):
        # fig2 makes the most finite-blocklength solves (SC and MRC, M 1-8,
        # eps 1e-9 to 1e-1), so it pins k_real's root finding at every depth
        out = io.StringIO()
        write_csv(preset_rows("fig2"), out)
        assert out.getvalue() == (_DATA / "fig2.csv").read_text()

    def test_beta_preset_reproduces_golden_csv(self):
        # fig4 moves beta with eps outermost and M inside it, so a change in
        # how the k* presets are assembled shows as reordered rows
        out = io.StringIO()
        write_csv(preset_rows("fig4"), out)
        assert out.getvalue() == (_DATA / "fig4.csv").read_text()

    def test_blocklength_preset_reproduces_golden_csv(self):
        # fig6 is SC only, on the n axis up to 2000
        out = io.StringIO()
        write_csv(preset_rows("fig6"), out)
        assert out.getvalue() == (_DATA / "fig6.csv").read_text()

    def test_cdf_preset_reproduces_golden_csv(self):
        # fig2pp is the exact and approximate SIR CDF and density on three
        # topologies; it has no FB rows
        out = io.StringIO()
        write_csv(preset_rows("fig2pp"), out)
        assert out.getvalue() == (_DATA / "fig2pp.csv").read_text()

    def test_bound_preset_reproduces_pinned_hash(self):
        # fig3's 440 KB body (the Lomax-sum CDF and its two lower bounds on
        # 5,000 points) is pinned by its SHA-256, which CI also checks
        out = io.StringIO()
        write_csv(preset_rows("fig3"), out)
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
            (_DATA / "fig3.sha256").read_text().strip()
        )

    @pytest.mark.parametrize(
        "name,laws", [("fig2", 8), ("fig4", 126), ("fig5", 32), ("fig6", 4)]
    )
    def test_each_law_is_evaluated_once_per_preset(self, name, laws, monkeypatch):
        # a preset's FB solves share one density evaluation per (law, M,
        # scheme, grid): fig4 has 21 betas x 3 M x 2 schemes, solved at two
        # targets, and fig6's n = 2000 has a finer grid than n <= 1600
        evaluations = []
        original = finite_blocklength.combined_sir_pdf

        def counting(x, dist, antennas, scheme):
            evaluations.append(len(x))
            return original(x, dist, antennas, scheme)

        monkeypatch.setattr(finite_blocklength, "combined_sir_pdf", counting)
        finite_blocklength._law_sums.cache_clear()
        preset_rows(name)
        finite_blocklength._law_sums.cache_clear()
        assert len(evaluations) == laws

    @pytest.mark.parametrize("name", ["fig2", "fig4", "fig5", "fig6"])
    def test_averages_per_preset(self, name, monkeypatch):
        # a pin on the FB averages one preset makes: the walks from the
        # closed-form seed made 1,824, 1,414, 1,013 and 375, and a k_real root
        # on err itself rather than on ln err 1,282, 1,021, 714 and 233; a
        # change that lowers a count pins the new one
        averages = {"fig2": 1199, "fig4": 996, "fig5": 654, "fig6": 216}[name]
        original = finite_blocklength._ErrorAverage.__call__
        averaged = []

        def spy(self, k):
            averaged.append(k)
            return original(self, k)

        monkeypatch.setattr(finite_blocklength._ErrorAverage, "__call__", spy)
        preset_rows(name)
        assert len(averaged) == averages

    def test_seed_starts_on_most_payloads(self, monkeypatch):
        # the integer walk starts at the seed's floor; over the presets' 648
        # FB solves it is k* itself in 471, where the closed form was in 157
        original = sweeps.fb_kstar
        starts = []

        def solving(dist, cfg):
            sol = original(dist, cfg)
            start = max(math.floor(finite_blocklength._seed_k(dist, cfg)), 0)
            starts.append(start == sol.k_star)
            return sol

        monkeypatch.setattr(sweeps, "fb_kstar", solving)
        for name in PRESET_NAMES:
            preset_rows(name)
        assert (len(starts), sum(starts)) == (648, 471)

    def test_known_names(self):
        assert set(PRESET_NAMES) == {"fig2", "fig2pp", "fig3", "fig4", "fig5", "fig6"}
        with pytest.raises(KeyError):
            preset_rows("fig99")

    def test_antenna_preset_monotone_per_family(self):
        rows = preset_rows("fig5")
        families = defaultdict(list)
        for r in rows:
            families[(r.method, r.scheme, r.epsilon_th)].append((r.axis_value, r.k_star))
        assert len(families) == 15
        for pts in families.values():
            ks = [k for _, k in sorted(pts)]
            assert ks == sorted(ks)

    def test_blocklength_preset_asymptotic_rate_constant(self):
        # the asymptotic payload is exactly proportional to n, so its rate
        # column is flat along the axis
        rows = [r for r in preset_rows("fig6") if r.method == "sc_approx"]
        families = defaultdict(list)
        for r in rows:
            families[(r.antennas, r.epsilon_th)].append(r.k_real / r.blocklength)
        for rates in families.values():
            assert max(rates) - min(rates) < 1e-12

    def test_cdf_curve_preset_covers_setups(self):
        rows = preset_rows("fig2pp")
        setups = {r.setup for r in rows}
        assert setups == {"A", "B", "C"}
        for r in rows:
            assert r.cdf_approx >= r.cdf_exact - 1e-15

    def test_bound_preset_matches_scalar_functions(self):
        # fig3 is built one curve at a time; every cell must be the double
        # that lomax_sum_cdf and the bound give at the row's (M, eta, x) alone
        rows = preset_rows("fig3")
        assert len(rows) == 5000
        for r in rows:
            m, eta, x = r.antennas, r.eta, r.x
            (linear,) = lomax_sum_cdf_lower_bound_curve([x], m, eta, linearize=True)
            (exact_log,) = lomax_sum_cdf_lower_bound_curve([x], m, eta, linearize=False)
            assert [v.hex() for v in (r.cdf, r.lower_bound, r.lower_bound_exact_log)] == [
                v.hex() for v in (lomax_sum_cdf(x, m, eta), linear, exact_log)
            ]

    def test_bound_curve_preset_ordering(self):
        rows = preset_rows("fig3")
        for r in rows:
            assert r.lower_bound_exact_log <= r.cdf + 1e-15
