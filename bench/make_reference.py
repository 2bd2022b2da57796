#!/usr/bin/env python3
"""Regenerate the stored outputs that the benchmark checks against.

Run from the root of a checkout whose outputs are known to be right:

    python3 bench/make_reference.py

It writes bench/reference/: every figure preset as CSV, the link_sizing
k_star table and the ground_truth JSON records for the default seed.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from urpayload import simulator, sweeps  # noqa: E402

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    REFERENCE_DIR,
    SOLVE_ORDER,
    solve_query,
    ground_truth_specs,
    make_queries,
    run_preset,
)


def main() -> int:
    presets = REFERENCE_DIR / "figure_presets"
    presets.mkdir(parents=True, exist_ok=True)
    for name in sweeps.PRESET_NAMES:
        (presets / f"{name}.csv").write_text(run_preset(name)[0])

    table = [
        [solve_query(m, query).k_star for m in SOLVE_ORDER] for query in make_queries(DEFAULT_SEED)
    ]
    (REFERENCE_DIR / "link_sizing.json").write_text(
        json.dumps({"seed": DEFAULT_SEED, "methods": [m.value for m in SOLVE_ORDER], "k_star": table})
        + "\n"
    )

    records = {
        label: simulator.run_sim(spec).json_record()
        for label, spec in ground_truth_specs(DEFAULT_SEED).items()
    }
    (REFERENCE_DIR / "ground_truth.json").write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
