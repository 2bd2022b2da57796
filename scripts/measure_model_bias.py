#!/usr/bin/env python3
"""Measure the analytic error models against large Monte Carlo runs.

For each operating point this prints the analytic prediction, the empirical
error rate on the physical link model, and the relative gap with its own
sampling noise. At high trial counts the gap isolates the modeling error of
the scaled-Lomax machinery: selection combining with the exact CDF is
unbiased at any depth, while the sum-combining and averaged-error
predictions inherit the per-antenna tail bound at depth ~eps^(1/M) and drift
as the antenna count grows. The four-antenna rows reproduce the measurement
quoted by the acceptance suite.

Usage: python scripts/measure_model_bias.py [--trials 1e8] [--seed 99] [--workers 6]
"""
import argparse
import math
import sys
import time

from urpayload.rate_control import Scheme
from urpayload.simulator import MAX_TRIALS, MAX_WORKERS, Semantics, whole_number
from urpayload.sweeps import CDF_SETUPS
from urpayload.validation import MonteCarloPoint, check_montecarlo

POINTS = (
    MonteCarloPoint("sc_exact_m4", Scheme.SC, 4, 3e-3, Semantics.ASYMPTOTIC),
    MonteCarloPoint("mrc_m1", Scheme.MRC, 1, 1e-3, Semantics.ASYMPTOTIC),
    MonteCarloPoint("mrc_m2", Scheme.MRC, 2, 2e-4, Semantics.ASYMPTOTIC),
    MonteCarloPoint("mrc_m4", Scheme.MRC, 4, 1e-4, Semantics.ASYMPTOTIC),
    MonteCarloPoint("fb_sc_m2", Scheme.SC, 2, 2e-4, Semantics.FINITE_BLOCKLENGTH),
    MonteCarloPoint("fb_sc_m4", Scheme.SC, 4, 4e-4, Semantics.FINITE_BLOCKLENGTH),
    MonteCarloPoint("fb_mrc_m4", Scheme.MRC, 4, 1e-4, Semantics.FINITE_BLOCKLENGTH),
)


def bounded(convert, low: int, high: float = math.inf):
    """An argparse type: convert, then refuse a value outside [low, high] before any run."""

    def check(text: str) -> int:
        value = convert(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must lie in [{low}, {high}], got {text}")
        return value

    check.__name__ = convert.__name__  # argparse's "invalid <name> value" message
    return check


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=bounded(whole_number, 1, MAX_TRIALS), default=10**8)
    parser.add_argument("--seed", type=bounded(int, 0), default=99)
    parser.add_argument("--workers", type=bounded(int, 1, MAX_WORKERS), default=6)
    args = parser.parse_args()

    # check_montecarlo runs every point on topology B at n=200
    print(f"# trials={args.trials:g} seed={args.seed} topology=B "
          f"(beta={CDF_SETUPS['B'].beta:.6f})")
    print(f"{'point':<14} {'k':>4} {'prediction':>12} {'empirical':>12} "
          f"{'gap':>8} {'noise':>8} {'secs':>6}")
    for point in POINTS:
        start = time.perf_counter()
        (result,) = check_montecarlo(
            trials=args.trials, seed=args.seed, workers=args.workers, points=(point,)
        )
        d = result.detail
        gap = d["rel_gap"] if d["rel_gap"] is not None else math.inf
        errors = round(d["empirical"] * d["trials"])
        noise = 1.96 / math.sqrt(max(errors, 1))
        print(
            f"{point.label:<14} {d['k']:>4} {d['prediction']:>12.5e} {d['empirical']:>12.5e} "
            f"{gap:>+8.2%} {noise:>8.2%} {time.perf_counter() - start:>6.0f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
