"""Tests for the benchmark's own parts: statistics, reference checks, wrappers, runs."""
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest
from conftest import BENCH, ROOT

import metrics
import tracing
from calibration import Meter
from workloads import REFERENCE_DIR, WORKLOADS, LinkSizing, compare_csv


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert metrics.samples_beyond(1000, 99) == 10
    assert metrics.min_samples(99) == 1000
    assert metrics.min_samples(98) == 500
    assert metrics.tail_percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError):
        metrics.tail_percentile(list(range(999)), 99)


def test_percentile_and_median():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert metrics.percentile(values, 50) == 3.0
    assert metrics.percentile(values, 100) == 5.0
    assert metrics.percentile(values, 0) == 1.0
    assert metrics.median(values) == 3.0
    assert metrics.median([1.0, 2.0, 3.0, 10.0]) == 2.5


def _fig6():
    text = (REFERENCE_DIR / "figure_presets" / "fig6.csv").read_text()
    lines = text.splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return lines, header_at, lines[header_at].split(",")


def _edit(column, transform, row=3):
    lines, header_at, header = _fig6()
    cells = lines[header_at + row].split(",")
    index = header.index(column)
    cells[index] = transform(cells[index])
    lines[header_at + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_reference_matches_itself():
    lines, _, _ = _fig6()
    assert compare_csv("\n".join(lines) + "\n", "\n".join(lines) + "\n") == []


def test_reference_flags_perturbed_k_star():
    reference = (REFERENCE_DIR / "figure_presets" / "fig6.csv").read_text()
    problems = compare_csv(_edit("k_star", lambda v: str(int(v) + 1)), reference)
    assert len(problems) == 1 and "k_star" in problems[0]


def test_reference_allows_small_float_drift_only():
    reference = (REFERENCE_DIR / "figure_presets" / "fig6.csv").read_text()
    assert compare_csv(_edit("k_real", lambda v: repr(float(v) * (1 + 1e-9))), reference) == []
    assert compare_csv(_edit("k_real", lambda v: repr(float(v) * (1 + 1e-5))), reference)


def test_reference_flags_predicted_epsilon_above_target():
    reference = (REFERENCE_DIR / "figure_presets" / "fig6.csv").read_text()
    text = _edit("predicted_epsilon", lambda v: "0.5")
    assert any("above epsilon_th" in p for p in compare_csv(text, reference))


def test_meter_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    _, raw, nominal = Meter().measure(time.sleep, 0.35, sampled=True)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.3 < raw < 1.0 and nominal > 0.0


def _site_functions():
    import importlib

    return {
        (site.module, site.attr): getattr(
            importlib.import_module(f"urpayload.{site.module}"), site.attr
        )
        for site in tracing.SITES
    }


def test_wrappers_restore_every_function():
    before = _site_functions()
    with tracing.Tracer():
        during = _site_functions()
    assert all(during[key] is not before[key] for key in before)
    assert _site_functions() == before

    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("pass failed")
    assert _site_functions() == before


def test_missing_function_is_absent_not_an_error():
    sites = (tracing.Site("numerics", "no_such_function", "numerics.gone", tracing.SPAN),)
    with tracing.Tracer(sites) as tracer:
        assert tracer.absent == ["numerics.no_such_function"]
    assert tracing.layer_metrics(*tracer.take())["numerics.integrate_semi_infinite.calls"] == 0


def test_traced_counts_repeat_exactly():
    workload = LinkSizing(seed=5)
    workload.queries = workload.queries[:50]
    meter = Meter()
    seen = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            assert workload.run_pass(meter, tracer).failed == 0
        layer = tracing.layer_metrics(*tracer.take())
        seen.append({k: v for k, v in layer.items() if "error_evals_per_solve" in k or "calls" in k})
    assert seen[0] == seen[1]
    assert seen[0]["rate_control.error_evals_per_solve.mrc_closed"] > 0


def test_benchmark_json_names_exactly_what_the_code_reports():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = set(tracing.layer_metrics([], {})) | {"trace.overhead_ratio"}
    for workload in WORKLOADS.values():
        reported |= set(workload.SUMMARY_METRICS)
    assert {m["name"] for m in config["per_layer"]} == reported
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize(
    "workload,trace",
    [(w, 0) for w in WORKLOADS] + [("link_sizing", 1), ("ground_truth", 1)],
)
def test_smoke_run_has_no_failures(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = config["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "link_sizing", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert "correct" not in done.stdout
