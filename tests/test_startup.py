"""scipy.special loads on first use, not when the package is imported.

Each check runs in a fresh interpreter, as `urp` does, because the test
session itself imports scipy.
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PRELUDE = """\
import sys
from urpayload.rate_control import LinkConfig, Method, Scheme
from urpayload.sir_model import SirDistribution

def scipy_loaded():
    return "scipy" in sys.modules

dist = SirDistribution.from_beta(0.8, 8)
"""


def run_fresh(code: str) -> str:
    """stdout of `code` run after PRELUDE in a new interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_import_and_parser_leave_scipy_unloaded():
    out = run_fresh(
        """
        from urpayload.cli import build_parser
        build_parser()
        print(scipy_loaded())
        """
    )
    assert out.split() == ["False"]


@pytest.mark.parametrize(
    "call",
    [
        "rate_control.sc_kstar_exact(dist, LinkConfig(4, 200, 1e-6))",
        "rate_control.sc_kstar_approx(dist, LinkConfig(4, 200, 1e-6))",
        'sweeps.preset_rows("fig2pp")',
        "simulator.run_sim(simulator.SimSpec(dist, 2, Scheme.SC, 8, 200, 'asymptotic', 10**5, 3))",
    ],
    ids=["sc_exact", "sc_approx", "fig2pp", "asymptotic_run_sim"],
)
def test_paths_without_special_leave_scipy_unloaded(call):
    out = run_fresh(
        f"""
        from urpayload import rate_control, simulator, sweeps
        {call}
        print(scipy_loaded())
        """
    )
    assert out.split() == ["False"]


@pytest.mark.parametrize(
    "call",
    [
        "rate_control.mrc_kstar(dist, LinkConfig(4, 200, 1e-6, Scheme.MRC), Method.MRC_NUMERIC)",
        "finite_blocklength.fb_kstar(dist, LinkConfig(4, 200, 1e-6))",
    ],
    ids=["mrc_numeric", "fb"],
)
def test_paths_with_special_load_it(call):
    out = run_fresh(
        f"""
        from urpayload import finite_blocklength, rate_control
        before = scipy_loaded()
        {call}
        print(before, "scipy.special" in sys.modules)
        """
    )
    assert out.split() == ["False", "True"]


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


def test_concurrent_first_use_matches_serial_run():
    # four blocks over two worker threads: both threads make the first
    # erfc lookup of the process at about the same time
    out = run_fresh(
        """
        from urpayload.simulator import SimSpec, run_sim

        def record(workers):
            spec = SimSpec(
                dist, 2, Scheme.MRC, 60, 200, "fb", 4 * 2**16, 5,
                workers=workers, variance_reduced=True,
            )
            return run_sim(spec).json_record()

        before = scipy_loaded()
        sys.setswitchinterval(1e-6)  # switch threads inside the first lookup
        parallel = record(2)
        print(before, parallel == record(1))
        """
    )
    assert out.split() == ["False", "True"]
