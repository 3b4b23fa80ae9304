"""The benchmark scripts still run: every timing function in benchmarks/ is
called once at a tiny size, so a renamed or deleted library name fails here
rather than at the next benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import bench_blocks  # noqa: E402
import bench_kernels  # noqa: E402
import bench_memory  # noqa: E402

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


def test_bench_memory_reads_the_perfbench_ops_and_an_op_peak():
    ops = {op for op_list in bench_memory.workloads().values() for op, _ in op_list}
    assert {"check_ue_forward", "check_e", "synthesize"} <= ops
    tiny = ["check", "--space", "lp_Z:2", "--weights", "constant:2", "--criterion", "ae",
            "--n-max", "20", "--k-max", "1"]
    assert 1 < bench_memory.op_peak(tiny) < 1024
