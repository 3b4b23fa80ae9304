"""The benchmark scripts still run: every timing function in benchmarks/ is
called once at a tiny size, so a renamed or deleted library name fails here
rather than at the next benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import bench_blocks  # noqa: E402
import bench_kernels  # noqa: E402

TINY_KERNELS = {"bench_running_average": {"n": 1_000},
                "bench_basis_diagnostic": {"n_max": 20, "basis_window": 2},
                "bench_uniform_curve": {"n_max": 20, "window": 4}}


def test_bench_kernels_at_tiny_size():
    names = sorted(name for name in dir(bench_kernels) if name.startswith("bench_"))
    assert names == sorted(TINY_KERNELS)
    for name, size in TINY_KERNELS.items():
        _, _, seconds = getattr(bench_kernels, name)(**size)
        assert seconds >= 0


def test_bench_blocks_layers_run_once():
    for _, run, reference in bench_blocks.layers(2):
        run()
        if reference is not None:
            reference()
