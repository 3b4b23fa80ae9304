#!/usr/bin/env python3
"""Time the numpy kernels; the window-infimum kernel also against the per-n
reference loop kept in tests/test_kernels.py.

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import sys
import time
from pathlib import Path

import numpy as np

from shiftlab import _kernels

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from test_kernels import window_inf_curve_reference  # noqa: E402

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
    return ("running_log2_average", f"{n:,} steps",
            timeit(_kernels.running_log2_average, terms), None)


def bench_window_inf(width=2001, n_max=4000):
    h = rng.uniform(-10, 10, size=width)
    g = rng.uniform(-10, 10, size=width + n_max)
    valid = rng.random(width) > 0.1
    kernel = timeit(_kernels.window_inf_curve, g, h, valid, n_max)
    reference = timeit(window_inf_curve_reference, g, h, valid, n_max)
    return "window_inf_curve", f"{width} x {n_max} grid", kernel, reference


def main():
    print("=" * 72)
    print("shiftlab kernel benchmark (best of 5)")
    print("=" * 72)
    rows = [bench_running_average(), bench_window_inf()]
    print(f"{'kernel':<24}{'size':<18}{'kernel':>10}{'per-n ref':>12}{'speedup':>9}")
    for name, size, kernel, reference in rows:
        ref_cols = (f"{reference * 1e3:>10.1f}ms{reference / kernel:>8.1f}x"
                    if reference is not None else f"{'-':>12}{'-':>9}")
        print(f"{name:<24}{size:<18}{kernel * 1e3:>8.1f}ms{ref_cols}")


if __name__ == "__main__":
    main()
