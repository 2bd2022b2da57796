"""Smoke runs of the scripts under scripts/, each as its own process."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


def run_script(name, *args, returncode=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == returncode, result.stderr
    return result


def test_measure_model_bias():
    out = run_script("measure_model_bias.py", "--trials", "65536", "--workers", "1").stdout
    lines = out.splitlines()
    assert lines[0].startswith("# trials=65536 seed=99 topology=B")
    assert [line.split()[0] for line in lines[2:]] == [
        "sc_exact_m4",
        "mrc_m1",
        "mrc_m2",
        "mrc_m4",
        "fb_sc_m2",
        "fb_sc_m4",
        "fb_mrc_m4",
    ]


@pytest.mark.parametrize("trials", ["inf", "1.5"])
def test_measure_model_bias_refuses_a_count_that_is_not_whole(trials):
    # int(float("inf")) was an OverflowError traceback, and 1.5 ran 1 trial
    result = run_script("measure_model_bias.py", "--trials", trials, returncode=2)
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert "argument --trials" in result.stderr


@pytest.mark.parametrize(
    "flag,value", [("--trials", "1e13"), ("--workers", "300"), ("--seed", "-1")]
)
def test_measure_model_bias_refuses_a_run_outside_its_caps(flag, value):
    # SimSpec refused these only after the header was printed: a ValueError
    # traceback and exit 1
    result = run_script("measure_model_bias.py", flag, value, returncode=2)
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert f"argument {flag}: must lie in" in result.stderr


def test_reproduce_figures(tmp_path):
    out = run_script(
        "reproduce_figures.py", "--only", "fig2pp", "fig3", "--out-dir", str(tmp_path)
    ).stdout
    assert "fig2pp.csv: 300 rows" in out
    assert "fig3.csv: 5000 rows" in out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig2pp.csv", "fig3.csv"]

    def body(name):
        lines = (tmp_path / name).read_text().splitlines(keepends=True)
        return "".join(line for line in lines if not line.startswith("#"))

    assert body("fig2pp.csv") == (DATA / "fig2pp.csv").read_text()
    assert hashlib.sha256(body("fig3.csv").encode()).hexdigest() == (
        (DATA / "fig3.sha256").read_text().strip()
    )


def test_reproduce_figures_has_no_workers_flag(tmp_path):
    result = run_script(
        "reproduce_figures.py", "--workers", "2", "--out-dir", str(tmp_path / "results"),
        returncode=2,
    )
    assert "unrecognized arguments: --workers 2" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "results").exists()


def test_reproduce_figures_rejects_unknown_preset_before_writing(tmp_path):
    # fig2pp comes first and would be written if names were checked one by one
    out_dir = tmp_path / "results"
    result = run_script(
        "reproduce_figures.py", "--only", "fig2pp", "fig99", "--out-dir", str(out_dir),
        returncode=2,
    )
    assert result.stderr.startswith("usage:")
    assert "invalid choice: 'fig99'" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out_dir.exists()
