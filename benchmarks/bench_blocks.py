#!/usr/bin/env python3
"""Time the exact block lane layer by layer: the run route of the library
against the per-index reference route kept in tests/block_oracle.py.

Layers, at J = 4 and J = 5: build_blocks, verify_inequalities (audit),
hypercyclicity_witness, distributional_report, and report emission: the
density CSV text as the CLI writes it (write_csv_forked of density_rows cut
at the middle row, so a forked worker makes the second half; e_{-1} orbit,
default thresholds, into a StringIO), horizon min(t_J, 200 000) so
that the reference route's row list stays a few hundred MB at J = 5, and at
J = 4 the whole `synthesize` report text (build, audits and the JSON report
with its weights_window; no reference route).  The run route is the best of
3 calls; the reference route runs once (minutes at J = 5).

Run:  PYTHONPATH=src python benchmarks/bench_blocks.py
"""

import csv
import io
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import islice
from pathlib import Path

from shiftlab.blocks import build_blocks, hypercyclicity_witness, verify_inequalities
from shiftlab.cli import main as cli_main
from shiftlab.density import density_rows, distributional_report
from shiftlab.reporting import write_csv_forked

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import block_oracle  # noqa: E402

BLOCKS = (4, 5)
CSV_ROWS = 200_000
REPEATS = 3


def timeit(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def to_text(write) -> str:
    """What write() prints to stdout, as text."""
    out = io.StringIO()
    with redirect_stdout(out):
        write()
    return out.getvalue()


def csv_text(rows, header) -> str:
    """The reference rows (lists) as RFC-4180 text."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def layers(j_max):
    build = build_blocks(j_max)
    n = min(build.layout.t_max, CSV_ROWS)
    taus = [Fraction(1, j + 1) for j in range(1, j_max + 1)]
    kays = [Fraction(j + 1) for j in range(1, j_max + 1)]
    header = (["n", "norm_log2", "running_average"]
              + [f"ratio_small({t})" for t in taus] + [f"ratio_large({K})" for K in kays])
    args = (build, "e-1-forward", n, taus, kays)
    out = [
        ("build", lambda: build_blocks(j_max), None),
        ("audit", lambda: verify_inequalities(build),
         lambda: block_oracle.verify_inequalities(build)),
        ("witness", lambda: hypercyclicity_witness(build),
         lambda: block_oracle.hypercyclicity_witness(build)),
        ("distributional_report", lambda: distributional_report(build),
         lambda: block_oracle.distributional_report(build)),
        (f"csv text (n={n:,})",
         lambda: to_text(lambda: write_csv_forked(
             None, header, islice(density_rows(*args), n // 2),
             density_rows(*args, start=n // 2))),
         lambda: csv_text(block_oracle.density_csv_rows(*args), header)),
    ]
    if j_max == 4:
        out.append(("synthesize report", lambda: to_text(
            lambda: cli_main(["synthesize", "--blocks", "4", "--no-timestamp"])), None))
    return out


def main():
    print("=" * 72)
    print(f"shiftlab exact block lane (run route: best of {REPEATS}; reference: once)")
    print("=" * 72)
    print(f"{'J':<3}{'layer':<28}{'runs':>10}{'per-index':>14}{'speedup':>10}")
    for j_max in BLOCKS:
        for name, run, reference in layers(j_max):
            fast = timeit(run, REPEATS)
            if reference is not None:
                slow = timeit(reference, 1)
                ref_cols = f"{slow:>13.3f}s{slow / fast:>9.0f}x"
            else:
                ref_cols = f"{'-':>14}{'-':>10}"
            print(f"{j_max:<3}{name:<28}{fast:>9.3f}s{ref_cols}", flush=True)


if __name__ == "__main__":
    main()
