#!/usr/bin/env python3
"""Time the numpy kernels, the basis-orbit diagnostic and a uniform curve.

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from shiftlab import _kernels
from shiftlab.criteria import HorizonConfig, _ue_curve, check_criterion
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


def bench_uniform_curve(n_max=10_000, window=1_000):
    """criteria._ue_curve on s_Z with constant:2 weights, forward, A-form,
    k = 1, level 3, split Z: the power rows' named columns move with n
    across the 2 * window + 1 columns (the default horizon)."""
    op = ShiftOperator("forward", parse_weights("constant:2"), parse_space("s_Z"))
    cfg = HorizonConfig(n_max=n_max, window=window)
    seconds = timeit(_ue_curve, op, 1, 3, "Z", "A", cfg, n_max)
    return "uniform_curve (ue)", f"{2 * window + 1} x {n_max:,}", seconds


def main():
    print("=" * 60)
    print("shiftlab kernel benchmark (best of 5)")
    print("=" * 60)
    print(f"{'kernel':<26}{'size':<24}{'time':>10}")
    for name, size, seconds in [bench_running_average(), bench_basis_diagnostic(),
                                bench_uniform_curve()]:
        print(f"{name:<26}{size:<24}{seconds * 1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
