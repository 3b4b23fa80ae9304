#!/usr/bin/env python3
"""Time the numpy kernels.

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from shiftlab import _kernels

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


def main():
    print("=" * 60)
    print("shiftlab kernel benchmark (best of 5)")
    print("=" * 60)
    print(f"{'kernel':<26}{'size':<24}{'time':>10}")
    for name, size, seconds in [bench_running_average()]:
        print(f"{name:<26}{size:<24}{seconds * 1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
