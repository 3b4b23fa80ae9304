#!/usr/bin/env python3
"""Time the numpy kernels; the window-infimum kernel also against the per-n
reference loop kept in tests/test_kernels.py, and at short horizons against
its own one-strip-per-step loop (gathering switched off).

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import sys
import time
from pathlib import Path
from unittest import mock

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


def bench_window_inf(width=2001, n_max=10_000, invalid=0.1, strips_only=False):
    """A grid of `check`'s default horizon; `invalid` is the share of invalid
    columns.  `strips_only` times the kernel with gathering switched off."""
    h = rng.uniform(-10, 10, size=width)
    g = rng.uniform(-10, 10, size=width + n_max)
    valid = rng.random(width) >= invalid
    min_gather = _kernels._BLOCK_CELLS + 1 if strips_only else _kernels._MIN_GATHER
    with mock.patch.object(_kernels, "_MIN_GATHER", min_gather):
        kernel = timeit(_kernels.window_inf_curve, g, h, valid, n_max)
    reference = timeit(window_inf_curve_reference, g, h, valid, n_max)
    name = "window_inf_curve" + (", strips" if strips_only else "")
    return (name, f"{n_max} x {width}, {invalid:.0%} inv", kernel, reference)


def main():
    print("=" * 81)
    print("shiftlab kernel benchmark (best of 5)")
    print("=" * 81)
    rows = [bench_running_average(), bench_window_inf(invalid=0.1),
            bench_window_inf(invalid=0.5)]
    # short horizons (the battery's 600 x 121 among them) gather strips
    for width, n_max in ((121, 600), (2001, 1000), (16_384, 3)):
        rows += [bench_window_inf(width, n_max, strips_only=strips) for strips in (False, True)]
    print(f"{'kernel':<26}{'size':<24}{'kernel':>10}{'per-n ref':>12}{'speedup':>9}")
    for name, size, kernel, reference in rows:
        ref_cols = (f"{reference * 1e3:>10.2f}ms{reference / kernel:>8.1f}x"
                    if reference is not None else f"{'-':>12}{'-':>9}")
        print(f"{name:<26}{size:<24}{kernel * 1e3:>8.2f}ms{ref_cols}")


if __name__ == "__main__":
    main()
