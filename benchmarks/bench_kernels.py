#!/usr/bin/env python3
"""Time the numpy kernels and the basis-orbit diagnostic built on them.

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from shiftlab import _kernels
from shiftlab.criteria import HorizonConfig, check_criterion
from shiftlab.shifts import ShiftOperator, parse_weights
from shiftlab.spaces import parse_space

rng = np.random.default_rng(7)


def timeit(fn, *args, repeats=5):
    fn(*args)  # warm up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_running_average(n=1_000_000):
    terms = rng.uniform(-50, 50, size=n)
    return "running_log2_average", f"{n:,} steps", timeit(_kernels.running_log2_average, terms)


def bench_basis_diagnostic(n_max=10_000, basis_window=50):
    """check_criterion(op, "e") on lp_Z:2 with constant:2 weights: one orbit
    curve per basis index and level, 2 * basis_window + 1 indices at n_max
    steps (the default horizon is 101 indices at 10 000 steps)."""
    op = ShiftOperator("backward", parse_weights("constant:2"), parse_space("lp_Z:2"))
    cfg = HorizonConfig(n_max=n_max, basis_window=basis_window)
    seconds = timeit(check_criterion, op, "e", cfg)
    return "basis_diagnostic (e)", f"{2 * basis_window + 1} x {n_max:,}", seconds


def main():
    print("=" * 60)
    print("shiftlab kernel benchmark (best of 5)")
    print("=" * 60)
    print(f"{'kernel':<26}{'size':<24}{'time':>10}")
    for name, size, seconds in [bench_running_average(), bench_basis_diagnostic()]:
        print(f"{name:<26}{size:<24}{seconds * 1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
