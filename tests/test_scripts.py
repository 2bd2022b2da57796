"""Smoke runs of the scripts under scripts/, each as its own process."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
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
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_measure_model_bias():
    out = run_script("measure_model_bias.py", "--trials", "65536", "--workers", "1")
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


def test_reproduce_figures(tmp_path):
    out = run_script(
        "reproduce_figures.py", "--only", "fig2pp", "fig3", "--out-dir", str(tmp_path)
    )
    assert "fig2pp.csv: 300 rows" in out
    assert "fig3.csv: 5000 rows" in out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig2pp.csv", "fig3.csv"]
