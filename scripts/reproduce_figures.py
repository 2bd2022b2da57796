#!/usr/bin/env python3
"""Regenerate every figure dataset as CSV under results/.

Usage: python scripts/reproduce_figures.py [--out-dir results] [--workers N]
"""
import argparse
import sys
import time
from pathlib import Path

from urpayload.sweeps import PRESET_NAMES, preset_rows, write_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--only", nargs="*", choices=PRESET_NAMES, default=None, help="subset of preset names"
    )
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = args.only or PRESET_NAMES
    for name in names:
        start = time.perf_counter()
        rows = preset_rows(name, workers=args.workers)
        path = out_dir / f"{name}.csv"
        write_csv(rows, path, comments=["generator: scripts/reproduce_figures.py",
                                        f"preset: {name}"])
        print(f"{path}: {len(rows)} rows in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
