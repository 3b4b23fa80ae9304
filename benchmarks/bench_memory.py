#!/usr/bin/env python3
"""Peak resident memory of each perfbench op on its own.

perfbench/run.py reports one peak per workload, the largest ru_maxrss its
op processes return; on Linux a child inherits the high-water mark of the
process that started it, so that figure can be the harness's own.  Here
each op of run.py's WORKLOADS runs in a fresh interpreter, which calls
``shiftlab.cli.main`` on the op's arguments (with ``--no-timestamp`` and the
report written to a temporary file) and then reads its own VmHWM from
/proc/self/status (Linux only).  An op that forks a worker (the density
CSV) counts it: the figure is the larger of VmHWM and the peak of the
reaped children, getrusage(RUSAGE_CHILDREN).ru_maxrss.  The ``(imports)``
row is the floor: an interpreter that imports the CLI and runs nothing; an
op loads the rest of what it needs, as it does under perfbench (the
exact-lane ops load no numpy).  The ``(log-lane imports)`` row imports
``shiftlab.cli`` and ``shiftlab.criteria`` (and so numpy) and runs nothing:
a log-lane op's working set is its peak less that row.  After the perfbench
ops comes one fixed row, ``synthesize --blocks 5``: the largest report,
whose spliced weight window sets a peak that the ops at ``--blocks 4`` do
not show.  Figures are MiB, the median over the repeats.

Run:  PYTHONPATH=src python benchmarks/bench_memory.py [--workload NAME] [--repeats N]
"""

import argparse
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
LARGEST = ("synthesize_j5", ["synthesize", "--blocks", "5"])  # the fixed last row

# the child: import the comma-separated modules of its first argument, run
# one op on the rest (none: import only), then print in kB the larger of its
# VmHWM and its reaped workers' peak
CHILD = """import importlib
import sys
import shiftlab.cli
for name in filter(None, sys.argv[1].split(",")):
    importlib.import_module(name)
code = shiftlab.cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0
import resource
status = open("/proc/self/status").read().splitlines()
own = int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
print(max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))
sys.exit(code)
"""


def perfbench_run():
    """The module perfbench/run.py, loaded from its file."""
    sys.path.insert(0, str(PERFBENCH))  # run.py imports its sibling modules
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(PERFBENCH))
    return run


def workloads() -> dict:
    """perfbench/run.py's WORKLOADS: workload name -> [(op id, CLI args)]."""
    return perfbench_run().WORKLOADS


def op_peak(args: list[str], repeats: int = 1, imports: tuple = ()) -> float:
    """Median VmHWM in MiB of a fresh interpreter that imports the CLI and
    the modules named in imports, then runs the CLI on args (no args:
    imports only)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    peaks = []
    with tempfile.TemporaryDirectory() as tmp:
        cli_args = [*args, "--no-timestamp", "--out", str(Path(tmp) / "report")] if args else []
        for _ in range(repeats):
            out = subprocess.run([sys.executable, "-c", CHILD, ",".join(imports), *cli_args],
                                 env=env, check=True, capture_output=True, text=True).stdout
            peaks.append(int(out.split()[-1]) / 1024)
    return statistics.median(peaks)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="a perfbench workload (default: all)")
    ap.add_argument("--repeats", type=int, default=3)
    opts = ap.parse_args()
    table = workloads()
    print(f"{'workload':<14}{'op':<20}{'peak MiB':>10}")
    print(f"{'':<14}{'(imports)':<20}{op_peak([], opts.repeats):>10.2f}")
    floor = op_peak([], opts.repeats, imports=("shiftlab.criteria",))
    print(f"{'':<14}{'(log-lane imports)':<20}{floor:>10.2f}")
    for name in opts.workload or table:
        for op_id, args in table[name]:
            print(f"{name:<14}{op_id:<20}{op_peak(args, opts.repeats):>10.2f}")
    op_id, args = LARGEST
    print(f"{'(fixed)':<14}{op_id:<20}{op_peak(args, opts.repeats):>10.2f}")


if __name__ == "__main__":
    main()
