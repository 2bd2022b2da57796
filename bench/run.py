#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload figure_presets --seed 1 --seconds 30 --trace 0

With --trace 0 it measures the end-to-end metrics with no wrappers
installed. With --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics; spans of the traced passes are written to
.bench_out/. Metric names and units come from BENCHMARK.json. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SETUP_REPEATS = 7
# Runs in a fresh interpreter and prints the raw and nominal seconds it took
# to import the CLI and build its parser.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from calibration import Meter

def setup():
    import urpayload.cli as cli
    cli.build_parser()

_, raw, nominal = Meter().measure(setup, sampled=True)
print(raw, nominal)
"""


def measure_setup(src: Path) -> tuple[float, float]:
    """Median raw and nominal seconds that a fresh interpreter takes to import
    the CLI and build its parser."""
    from metrics import median

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", SETUP_CODE, str(Path(__file__).resolve().parent)]

    def start() -> list[float]:
        done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
        return [float(v) for v in done.stdout.split()]

    start()  # fills the bytecode cache
    runs = [start() for _ in range(SETUP_REPEATS)]
    return median([raw for raw, _ in runs]), median([nominal for _, nominal in runs])


def run_passes(workload, meter, seconds: float, tracer=None):
    """Repeat passes until the next one would overrun `seconds`.

    Untraced, every pass is measured. Traced, passes alternate untraced and
    traced, starting untraced, and at least one of each runs.
    """
    from metrics import median

    untraced, traced, recorded = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None and len(traced) < len(untraced):
            with tracer:
                traced.append(workload.run_pass(meter, tracer))
            recorded.append(tracer.take())
        else:
            untraced.append(workload.run_pass(meter))
        walls = [p.wall_s for p in untraced + traced]
        enough = tracer is None or traced
        if enough and time.perf_counter() + median(walls) > deadline:
            return untraced, traced, recorded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "urpayload" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no urpayload sources under {src}; run from a checkout root\n")
        return 2
    sys.path.insert(0, str(src))
    config = json.loads((root / "BENCHMARK.json").read_text())

    import urpayload
    from calibration import Meter
    from metrics import median
    from tracing import Tracer, layer_metrics, self_times, write_spans
    from workloads import WORKLOADS

    if Path(urpayload.__file__).resolve().parent != (src / "urpayload").resolve():
        sys.stderr.write(f"bench: imported urpayload from {urpayload.__file__}, not {src}\n")
        return 2
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}\n")
        return 64

    setup = None if args.trace else measure_setup(src)
    workload = WORKLOADS[args.workload](args.seed)
    workload.warm()
    meter = Meter()
    tracer = Tracer() if args.trace else None
    started = time.perf_counter()
    untraced, traced, recorded = run_passes(workload, meter, args.seconds, tracer)
    elapsed = time.perf_counter() - started

    everything = untraced + traced
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    print(
        f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
        f"{len(traced)} traced passes in {elapsed:.2f} s"
    )
    for label, passes in (("untraced", untraced), ("traced", traced)):
        if passes:
            walls = " ".join(f"{p.wall_s:.4g}/{p.nominal_s:.4g}" for p in passes)
            print(f"{label} passes, raw/nominal s: {walls}")
    print(f"fail_ratio {failed / attempted:.6g} - ({failed} of {attempted} operations)")
    try:
        found = workload.summary(untraced)
    except (KeyError, ValueError, ZeroDivisionError):
        if not failed:
            raise
        found = {}  # timings of failed operations are missing; the result says incorrect
    if getattr(workload, "zscore", None) is not None:
        print(f"sc_m1 z-score against the exact product CDF: {workload.zscore:+.3f}")

    if args.trace:
        section = config["per_layer"]
        per_pass = [layer_metrics(spans, counts) for spans, counts in recorded]
        found.update({key: median([m[key] for m in per_pass]) for key in per_pass[0]})
        found["trace.overhead_ratio"] = median([p.nominal_s for p in traced]) / median(
            [p.nominal_s for p in untraced]
        )
        for layer, seconds in sorted(self_times(recorded[-1][0]).items()):
            print(f"self time {layer} {seconds:.6f} s")
        for name in tracer.absent:
            print(f"absent {name}: the package no longer has it; its metrics read 0")
        write_spans(
            root / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json",
            [spans for spans, _ in recorded],
        )
    else:
        section = config["end_to_end"]
        for key, value in sorted(found.items()):
            print(f"{key} {value:.6g}")
        print(f"raw setup_s {setup[0]:.6g} s, raw wall_s {median([p.wall_s for p in untraced]):.6g} s")
        found = {
            "setup_s": setup[1],
            "wall_s": median([p.nominal_s for p in untraced]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    metrics = {}
    for entry in section:
        value = found.get(entry["name"], 0)
        print(f"{entry['name']} {value:.6g} {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    unknown = set(found) - {entry["name"] for entry in section}
    if unknown:
        sys.stderr.write(f"bench: metrics missing from BENCHMARK.json: {sorted(unknown)}\n")
        return 1
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
