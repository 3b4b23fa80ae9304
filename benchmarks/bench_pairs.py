#!/usr/bin/env python3
"""One perfbench workload's ops from two checkouts, in alternating pairs.

Each round runs every op of the workload once per checkout, op after op,
the two sides of an op in a random order.  An op runs as perfbench/run.py
runs it: a fresh ``python -m shiftlab.cli <args> --no-timestamp --out FILE``
with the checkout's src on PYTHONPATH, through perfbench's run_process.
Per op and side it prints the median [q1, q3] wall time and peak RSS, the
rounds in which the change (the second checkout) was lower ("wins"), and
whether the two reports were the same bytes in every round; then each
side's sum of per-op medians (as perfbench's batch_s), its largest peak (as
its peak_rss_mb), and the CPU seconds (user + system) its op processes
spent in all.  As under perfbench, a child's peak RSS starts from this
process's own (Linux), so an op smaller than this script reads as its size.

Run:  python benchmarks/bench_pairs.py PARENT CHANGE [--workload NAME] [--rounds N] [--seed S]
"""

import argparse
import os
import random
import statistics
import sys
import tempfile
from pathlib import Path

import bench_memory

SIDES = ("parent", "change")


def quartiles(values: list) -> tuple:
    """(q1, median, q3); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def pairs(roots: tuple, ops: list, rounds: int, seed: int = 0) -> dict:
    """Run the ops rounds times from both roots (parent, change).  Returns
    {"ops": {op id: {"wall": ([...], [...]), "rss": (...), "same": bool}},
    "cpu": (parent s, change s)}: per-round samples, one list per side."""
    run_process = bench_memory.perfbench_run().run_process
    rng = random.Random(seed)
    table = {op_id: {"wall": ([], []), "rss": ([], []), "same": True} for op_id, _ in ops}
    cpu = [0.0, 0.0]
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(rounds):
            for op_id, args in ops:
                reports = [None, None]
                for side in rng.sample(range(2), 2):
                    out = Path(tmp) / f"{SIDES[side]}.out"
                    argv = [sys.executable, "-m", "shiftlab.cli", *args, "--no-timestamp",
                            "--out", str(out)]
                    env = dict(os.environ, PYTHONPATH=str(Path(roots[side]) / "src"))
                    before = os.times()
                    code, wall, rss = run_process(argv, env)
                    after = os.times()
                    cpu[side] += (after.children_user - before.children_user
                                  + after.children_system - before.children_system)
                    reports[side] = (code, out.read_bytes() if out.is_file() else b"")
                    out.unlink(missing_ok=True)
                    table[op_id]["wall"][side].append(wall)
                    table[op_id]["rss"][side].append(rss)
                table[op_id]["same"] &= reports[0] == reports[1]
    return {"ops": table, "cpu": tuple(cpu)}


def report(result: dict) -> list[str]:
    """The printed table of a pairs() result."""
    lines = [f"{'op':<20}{'metric':<8}{'parent median [q1, q3]':>28}"
             f"{'change median [q1, q3]':>28}{'wins':>7}  same bytes"]
    batch, peak = [0.0, 0.0], [0.0, 0.0]
    for op_id, row in result["ops"].items():
        for metric in ("wall", "rss"):
            cells = []
            for side in range(2):
                q1, median, q3 = quartiles(row[metric][side])
                cells.append(f"{median:.3f} [{q1:.3f}, {q3:.3f}]")
                if metric == "wall":
                    batch[side] += median
                else:
                    peak[side] = max(peak[side], max(row[metric][side]))
            wins = sum(c < p for p, c in zip(*row[metric]))
            lines.append(f"{op_id:<20}{metric:<8}{cells[0]:>28}{cells[1]:>28}"
                         f"{f'{wins}/{len(row[metric][0])}':>7}  {row['same']}")
    lines.append(f"sum of wall medians (s): parent {batch[0]:.3f}, change {batch[1]:.3f}")
    lines.append(f"largest peak RSS (MiB): parent {peak[0]:.2f}, change {peak[1]:.2f}")
    lines.append(f"CPU (user + system, s): parent {result['cpu'][0]:.2f}, "
                 f"change {result['cpu'][1]:.2f}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="root of the first checkout")
    ap.add_argument("change", help="root of the second checkout")
    ap.add_argument("--workload", default="loglane", choices=sorted(bench_memory.workloads()))
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    opts = ap.parse_args()
    ops = bench_memory.workloads()[opts.workload]
    print("\n".join(report(pairs((opts.parent, opts.change), ops, opts.rounds, opts.seed))))


if __name__ == "__main__":
    main()
