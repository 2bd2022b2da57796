"""Modules load on first use, not when the package or the CLI is imported:
numpy and scipy.special, and the package's own solver modules.

Each check runs in a fresh interpreter, as `urp` does, because the test
session itself imports all of them.
"""
import argparse
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from urpayload import names, rate_control, simulator, sweeps, validation
from urpayload.cli import build_parser

PRELUDE = """\
import sys
from urpayload.rate_control import LinkConfig, Method, Scheme
from urpayload.sir_model import SirDistribution

def scipy_loaded():
    return "scipy" in sys.modules

def numpy_loaded():
    return "numpy" in sys.modules

dist = SirDistribution.from_beta(0.8, 8)
"""


def run_fresh(code: str, prelude: str = PRELUDE) -> str:
    """stdout of `code` run after `prelude` in a new interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_import_and_parser_load_only_the_names_module():
    out = run_fresh(
        """
        from urpayload.cli import build_parser
        build_parser()
        print(*sorted(name for name in sys.modules if name.partition(".")[0] == "urpayload"))
        others = ("numpy", "scipy", "concurrent.futures", "dataclasses", "json")
        print(*(name in sys.modules for name in others))
        """,
        prelude="import sys\n",
    )
    package, others = out.splitlines()
    assert package.split() == ["urpayload", "urpayload.cli", "urpayload.names"]
    assert others.split() == ["False"] * 5


def _action(subcommand: str, dest: str) -> argparse.Action:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[subcommand]._actions if a.dest == dest)


def test_parser_offers_the_names_module_vocabulary():
    for subcommand in ("rate", "sweep", "simulate"):
        assert _action(subcommand, "scheme").choices == [s.value for s in names.Scheme]
    assert _action("sweep", "axis").choices == [a.value for a in names.Axis]
    assert _action("simulate", "semantics").choices == [s.value for s in names.Semantics]
    assert _action("validate", "scope").choices == list(names.SCOPES)
    assert _action("sweep", "preset").help == f"one of: {', '.join(names.PRESET_NAMES)}"


@pytest.mark.parametrize(
    "module, exported",
    [
        (rate_control, ("Method", "Scheme")),
        (sweeps, ("Axis", "PRESET_NAMES")),
        (simulator, ("Semantics", "whole_number")),
        (validation, ("SCOPES",)),
    ],
    ids=["rate_control", "sweeps", "simulator", "validation"],
)
def test_solver_modules_export_the_names_module_objects(module, exported):
    for name in exported:
        assert name in module.__all__
        assert getattr(module, name) is getattr(names, name)


# what `urpayload` exported when its __init__ imported every module
EXPORTS = {
    "finite_blocklength": [
        "FbEvaluation", "channel_dispersion", "fb_error_average",
        "fb_error_conditional", "fb_kstar", "shannon_capacity",
    ],
    "numerics": ["Bracket", "BracketError", "find_root_monotone", "integrate_semi_infinite"],
    "rate_control": [
        "LinkConfig", "Method", "RateSolution", "Scheme", "asymptotic_kstar",
        "combined_sir_pdf", "lomax_sum_cdf", "lomax_sum_cdf_lower_bound_curve",
        "mrc_error", "mrc_quantile_closed", "mrc_quantile_numeric", "sc_error",
        "theta_for_rate",
    ],
    "simulator": [
        "Semantics", "SimReport", "SimSpec", "UndersampledError", "run_sim",
        "sample_sir_block", "wilson_interval",
    ],
    "sir_model": [
        "SirDistribution", "load_topology", "sir_cdf_approx", "sir_cdf_exact",
        "sir_pdf_approx", "sir_pdf_exact",
    ],
}


def test_package_loads_each_module_on_first_lookup():
    out = run_fresh(
        f"""
        import importlib, json
        import urpayload

        def loaded():
            return sorted(name for name in sys.modules if name.startswith("urpayload."))

        report = {{"on_import": loaded(), "all": urpayload.__all__}}
        urpayload.SimSpec
        report["after_simspec"] = "urpayload.simulator" in sys.modules
        report["same"] = all(
            getattr(urpayload, name) is getattr(importlib.import_module(f"urpayload.{{module}}"), name)
            for module, exported in {EXPORTS!r}.items()
            for name in exported
        )
        star = {{}}
        exec("from urpayload import *", star)
        report["star"] = sorted(set(star) - {{"__builtins__"}})
        report["dir"] = set(urpayload.__all__) <= set(dir(urpayload))
        before = "urpayload.sweeps" in sys.modules, "urpayload.validation" in sys.modules
        from urpayload import sweeps, validation  # no exported name loads these two
        report["submodules"] = [*before, sweeps.__name__, validation.__name__]
        try:
            urpayload.no_such_name
        except AttributeError as exc:
            report["unknown"] = str(exc)
        print(json.dumps(report))
        """,
        prelude="import sys\n",
    )
    report = json.loads(out)
    exported = [name for names_of_module in EXPORTS.values() for name in names_of_module]
    assert report["on_import"] == []
    assert sorted(report["all"]) == sorted(exported)
    assert report["after_simspec"] is True
    assert report["same"] is True
    assert report["star"] == sorted(exported)
    assert report["dir"] is True
    assert report["submodules"] == [False, False, "urpayload.sweeps", "urpayload.validation"]
    assert report["unknown"] == "module 'urpayload' has no attribute 'no_such_name'"


# stdout of each command as it was when numpy loaded with the package
SC_RATE_OUT = (
    "method=sc_exact k_star=11 k_real=11.385432 rate=0.055000 theta=0.0388591 "
    "predicted_epsilon=8.711264056081951e-07\n"
    "method=sc_approx k_star=11 k_real=11.385432 rate=0.055000 theta=0.0388591 "
    "predicted_epsilon=8.711264056081951e-07\n"
)
SC_SWEEP_OUT = """\
# generator: urp sweep
# axis: eps; scheme: sc; M: 1; n: 200; eta: 8; beta: 0.8
axis,axis_value,method,scheme,antennas,blocklength,eta,beta,epsilon_th,k_star,k_real,rate,theta,predicted_epsilon,infeasible
eps,0.001,sc_approx,sc,1,200,8,0.8,0.001,0,0.3606512960725928,0.0,0.0,0.0,true
eps,0.001,sc_exact,sc,1,200,8,0.8,0.001,0,0.3606512964324793,0.0,0.0,0.0,true
eps,1e-06,sc_approx,sc,1,200,8,0.8,1e-06,0,0.00036067373768020885,0.0,0.0,0.0,true
eps,1e-06,sc_exact,sc,1,200,8,0.8,1e-06,0,0.00036067394830752164,0.0,0.0,0.0,true
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            "rate --beta 0.8 --eta 8 --M 4 --eps 1e-6 --method exact,approx",
            SC_RATE_OUT + "exit 0\n",
        ),
        (
            "sweep --axis eps --values 1e-3,1e-6 --beta 0.8 --eta 8 --methods approx,exact",
            SC_SWEEP_OUT + "exit 0\n",
        ),
        ("simulate --beta 0.8 --eta 8 --k 10 --trials 1e13", "exit 65\n"),
        ("rate --beta 0.8 --eta 8 --scheme zzz", "exit 64\n"),
    ],
    ids=["sc_rate", "sc_sweep", "refusal_65", "refusal_64"],
)
def test_sc_asymptotic_commands_load_no_numpy(argv, expected):
    out = run_fresh(
        f"""
        from urpayload import cli
        try:
            code = cli.main({argv.split()!r})
        except SystemExit as stop:  # argparse's usage error
            code = stop.code
        print("exit", code)
        print(numpy_loaded(), scipy_loaded())
        """
    )
    assert out == expected + "False False\n"


def test_csv_of_python_values_loads_no_numpy():
    out = run_fresh(
        """
        import io
        from typing import NamedTuple
        from urpayload.sweeps import write_csv

        class Row(NamedTuple):
            x: float
            k: int
            name: str
            flag: bool

        buf = io.StringIO()
        write_csv(
            [Row(0.1, -7, "sc", True), Row(-0.0, 2**70, "", False),
             Row(float("inf"), 0, "a b", True), Row(float("nan"), 1, "mrc", False)],
            buf,
        )
        print(buf.getvalue(), numpy_loaded())
        """
    )
    assert out == (
        "x,k,name,flag\n0.1,-7,sc,true\n-0.0,1180591620717411303424,,false\n"
        "inf,0,a b,true\nnan,1,mrc,false\n False\n"
    )


@pytest.mark.parametrize(
    "call, loads_numpy",
    [
        ("rate_control.asymptotic_kstar(Method.SC_EXACT, dist, LinkConfig(4, 200, 1e-6))", False),
        ("rate_control.asymptotic_kstar(Method.SC_APPROX, dist, LinkConfig(4, 200, 1e-6))", False),
        ('sweeps.preset_rows("fig2pp")', True),
        (
            "simulator.run_sim(simulator.SimSpec(dist, 2, Scheme.SC, 8, 200, 'asymptotic', 10**5, 3))",
            True,
        ),
    ],
    ids=["sc_exact", "sc_approx", "fig2pp", "asymptotic_run_sim"],
)
def test_paths_without_special_leave_scipy_unloaded(call, loads_numpy):
    out = run_fresh(
        f"""
        from urpayload import rate_control, simulator, sweeps
        before = numpy_loaded()
        {call}
        print(before, numpy_loaded(), scipy_loaded())
        """
    )
    assert out.split() == ["False", str(loads_numpy), "False"]


@pytest.mark.parametrize(
    "call, loads_cython_special",
    [
        (
            "rate_control.asymptotic_kstar("
            "Method.MRC_NUMERIC, dist, LinkConfig(4, 200, 1e-6, Scheme.MRC))",
            True,  # its CDF and its seed are scalar calls
        ),
        ("finite_blocklength.fb_kstar(dist, LinkConfig(4, 200, 1e-6))", False),
        ('sweeps.preset_rows("fig3")', True),  # its CDF column is scalar calls
    ],
    ids=["mrc_numeric", "fb", "fig3"],
)
def test_paths_with_special_load_it(call, loads_cython_special):
    out = run_fresh(
        f"""
        from urpayload import finite_blocklength, rate_control, sweeps
        before = numpy_loaded(), scipy_loaded()
        {call}
        print(*before, numpy_loaded(), "scipy.special" in sys.modules)
        print("scipy.special.cython_special" in sys.modules)
        """
    )
    assert out.split() == ["False", "False", "True", "True", str(loads_cython_special)]


def test_handle_returns_scipy_objects():
    out = run_fresh(
        """
        from urpayload.numerics import special
        names = ("erfc", "gammainc", "gammaincinv")
        first = [getattr(special, name) for name in names]  # through __getattr__
        again = [getattr(special, name) for name in names]  # kept on the handle
        import scipy.special
        print(all(a is b is getattr(scipy.special, name)
                  for a, b, name in zip(first, again, names)))
        """
    )
    assert out.split() == ["True"]


def test_handle_returns_cython_special_objects():
    out = run_fresh(
        """
        from urpayload.numerics import special_scalar
        names = ("gammainc", "gammaincinv")
        first = [getattr(special_scalar, name) for name in names]  # through __getattr__
        again = [getattr(special_scalar, name) for name in names]  # kept on the handle
        import scipy.special.cython_special as cython_special
        print(all(a is b is getattr(cython_special, name)
                  for a, b, name in zip(first, again, names)))
        """
    )
    assert out.split() == ["True"]


def test_handle_returns_numpy_objects():
    out = run_fresh(
        """
        from urpayload.numerics import np
        names = ("logspace", "exp", "errstate", "float64", "random")
        first = [getattr(np, name) for name in names]  # through __getattr__
        again = [getattr(np, name) for name in names]  # kept on the handle
        import numpy
        print(all(a is b is getattr(numpy, name)
                  for a, b, name in zip(first, again, names)))
        """
    )
    assert out.split() == ["True"]


def test_concurrent_first_use_matches_serial_run():
    # four blocks over two worker threads: both threads make the first
    # numpy and erfc lookups of the process at about the same time
    out = run_fresh(
        """
        from urpayload.simulator import SimSpec, run_sim

        def record(workers):
            spec = SimSpec(
                dist, 2, Scheme.MRC, 60, 200, "fb", 4 * 2**16, 5,
                workers=workers, variance_reduced=True,
            )
            return run_sim(spec).json_record()

        before = numpy_loaded(), scipy_loaded()
        sys.setswitchinterval(1e-6)  # switch threads inside the first lookup
        parallel = record(2)
        print(*before, parallel == record(1))
        """
    )
    assert out.split() == ["False", "False", "True"]
