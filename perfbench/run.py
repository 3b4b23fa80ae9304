"""End-to-end benchmark of the shiftlab CLI, with an optional traced run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ./src.  Each op
is one ``shiftlab`` command in a fresh interpreter, with ``--no-timestamp``
and its report written to a file under .perfbench/.  A closed loop in this
single process runs one op at a time (no concurrency; the reference machine
has 2 cores).  The seed only shuffles the op order inside each repetition;
the inputs are fixed presets.  Every op's report is checked against
perfbench/oracle.json.

--trace 0 prints the end-to-end metrics: ``setup_s`` (median wall time of a
fresh ``import shiftlab.cli``), ``batch_s`` (one pass over the op list: the
sum of the per-op median wall times) and ``peak_rss_mb`` (largest peak
resident set of any op process).  --trace 1 runs the op list under
perfbench/trace_op.py and prints the per-layer metrics; the tracing overhead
is its ``trace.batch_s`` minus ``batch_s`` of untraced runs.  The
last line of stdout is the JSON result; the full record, with per-op
figures and the run stamp, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import measure
import outcomes

BENCH_DIR = Path(__file__).resolve().parent
ORACLE = BENCH_DIR / "oracle.json"
SETUP_SAMPLES = 11
OP_TIMEOUT_S = 150

_CHECK_LP = ["check", "--space", "lp_Z:2", "--weights", "constant:2"]
# Two workloads, one per lane, so that a change to one lane is measured where
# it runs and where it must not matter.  Runs are long (about 50 s) because
# the reference machine drifts in speed; four workloads of 25 s runs were
# measured to spread up to twice as wide, see README.md.
WORKLOADS = {
    "loglane": [
        # Long default-horizon sweeps of constant weights.  lp_Z repeats one
        # matrix value; s_Z has a distinct entry at every index.
        ("check_ue_backward", _CHECK_LP + ["--criterion", "ue"]),
        ("check_ue_forward", ["check", "--space", "s_Z", "--weights", "constant:1",
                              "--criterion", "ue", "--side", "forward"]),
        ("check_e", _CHECK_LP + ["--criterion", "e"]),
        # The paper's block weights: build, ue, ae and the basis diagnostic
        # chained in one command.
        ("check_hierarchy", ["check", "--space", "c0_Z", "--weights", "blocks:4",
                             "--criterion", "hierarchy", "--m-grid", "1,2,4"]),
        # Many small window-infimum calls (the per-call overhead case); the
        # only op that reaches the algebra module.
        ("props", ["props"]),
    ],
    # Fraction-only lane and the largest outputs; calls no kernels.
    "exact-blocks": [
        ("synthesize", ["synthesize", "--blocks", "4"]),
        ("density_csv", ["density", "--weights", "blocks:4", "--format", "csv"]),
        ("density_json", ["density", "--weights", "blocks:4", "--format", "json"]),
    ],
}

# Per-layer metrics: (name, unit).  Layer names are module names, with
# ``kernels`` standing for the ``_kernels`` module.
PER_LAYER = [
    ("scalars.log2_exact.calls", "count"),
    ("scalars.log2_exact.distinct_ratio", "ratio"),
    ("spaces.log2_row.calls", "count"),
    ("spaces.log2_row.cells", "count"),
    ("spaces.log2_row.self_s", "s"),
    ("spaces.entry_log2.calls", "count"),
    ("shifts.log2_window.calls", "count"),
    ("shifts.log2_window.cells", "count"),
    ("shifts.log2_window.self_s", "s"),
    ("shifts.log2.calls", "count"),
    ("shifts.value.calls", "count"),
    ("kernels.window_inf_curve.calls", "count"),
    ("kernels.window_inf_curve.cells", "count"),
    ("kernels.window_inf_curve.bytes_computed", "bytes"),
    ("kernels.window_inf_curve.self_s", "s"),
    ("kernels.running_log2_average.calls", "count"),
    ("kernels.running_log2_average.cells", "count"),
    ("kernels.running_log2_average.self_s", "s"),
    ("criteria.self_s", "s"),
    ("blocks.build_blocks.self_s", "s"),
    ("blocks.verify_inequalities.self_s", "s"),
    ("blocks.hypercyclicity_witness.self_s", "s"),
    ("blocks.norm_sequences.calls", "count"),
    ("blocks.norm_sequences.cells", "count"),
    ("density.distributional_report.self_s", "s"),
    ("density.cesaro_trace.self_s", "s"),
    ("density.upper_density.calls", "count"),
    ("cli.self_s", "s"),
    ("reporting.canonical_json.self_s", "s"),
    ("reporting.write_csv.self_s", "s"),
    ("reporting.bytes_out", "bytes"),
    ("reporting.digest_match", "count"),
    ("algebra.run_props_suite.self_s", "s"),
    ("algebra.system_check.calls", "count"),
    ("scalars.self_s", "s"),
    ("spaces.self_s", "s"),
    ("shifts.self_s", "s"),
    ("kernels.self_s", "s"),
    ("blocks.self_s", "s"),
    ("density.self_s", "s"),
    ("algebra.self_s", "s"),
    ("reporting.self_s", "s"),
    ("trace.batch_s", "s"),
    ("trace.spans", "count"),
]
_NORM_SEQUENCES = ("blocks.backward_norms", "blocks.forward_norms")
# float64 differences the window-infimum kernel computes per cell
_BYTES_PER_CELL = 8


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or oracle)."""


def run_process(argv: list[str], env: dict) -> tuple[int, float, float]:
    """Run argv to completion; returns (exit code, wall seconds, peak RSS MiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted or terminated: stop the child first
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


class Bench:
    """One benchmark run: a workload's ops, the oracle and the samples."""

    def __init__(self, root: Path, workload: str, seed: int):
        src = root / "src" / "shiftlab" / "cli.py"
        if not src.is_file():
            raise BenchError(f"{src} not found: run from the root of a shiftlab checkout")
        if not ORACLE.is_file():
            raise BenchError(f"{ORACLE} not found")
        self.ops = WORKLOADS[workload]
        self.oracle = json.loads(ORACLE.read_text())["ops"]
        self.rng = random.Random(seed)
        self.work = root / ".perfbench"
        (self.work / "tmp").mkdir(parents=True, exist_ok=True)
        (self.work / "results").mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failures: list[dict] = []
        self.digest_matches = 0

    def setup_time(self) -> list[float]:
        argv = [sys.executable, "-c", "import shiftlab.cli"]
        run_process(argv, self.env)  # untimed: fills the bytecode cache
        samples = []
        for _ in range(SETUP_SAMPLES):
            code, wall, _ = run_process(argv, self.env)
            if code != 0:
                raise BenchError("import shiftlab.cli failed")
            samples.append(wall)
        return samples

    def run_op(self, op_id: str, args: list[str], traced: bool) -> dict:
        """Run one op, check its report; returns wall, RSS, bytes and trace."""
        out = self.work / "tmp" / f"{op_id}.out"
        trace = self.work / "tmp" / f"{op_id}.trace.json"
        for path in (out, trace):
            path.unlink(missing_ok=True)
        cli_args = [*args, "--no-timestamp", "--out", str(out)]
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "trace_op.py"), str(trace), op_id, *cli_args]
        else:
            argv = [sys.executable, "-m", "shiftlab.cli", *cli_args]
        code, wall, rss = run_process(argv, self.env)
        data = out.read_bytes() if out.is_file() else b""
        self.attempted += 1
        expected = self.oracle[op_id]
        try:
            problems = outcomes.mismatches(expected["outcome"],
                                           outcomes.outcome(args, code, data))
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable report: {exc!r}"]
        if problems:
            self.failures.append({"op": op_id, "traced": traced, "problems": problems})
        match = outcomes.digest(data) == expected["sha256"]
        self.digest_matches += match
        result = {"op": op_id, "wall_s": wall, "rss_mb": rss, "bytes": len(data),
                  "digest_match": match}
        if traced:
            result["trace"] = json.loads(trace.read_text()) if trace.is_file() else None
        return result

    def passes(self):
        """Shuffled orders of the op list, one per repetition, without end."""
        while True:
            order = list(self.ops)
            self.rng.shuffle(order)
            yield order


def closed_loop(seconds: float, units, minimum: int) -> list:
    """Run ``(key, fn)`` units one at a time and return their results.

    The first ``minimum`` units always run.  After them, a unit runs only if
    the last wall time of a unit with the same key still fits before the
    deadline, so a run ends close to ``seconds`` without cutting work short.
    """
    deadline = time.perf_counter() + seconds
    last: dict = {}
    results = []
    for i, (key, fn) in enumerate(units):
        if i >= minimum and time.perf_counter() + last[key] > deadline:
            return results
        started = time.perf_counter()
        results.append(fn())
        last[key] = time.perf_counter() - started
    return results


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setup = bench.setup_time()
    units = ((op_id, functools.partial(bench.run_op, op_id, args, False))
             for order in bench.passes() for op_id, args in order)
    runs = closed_loop(seconds, units, minimum=len(bench.ops))
    samples = {op_id: [r["wall_s"] for r in runs if r["op"] == op_id] for op_id, _ in bench.ops}
    per_op = {op_id: measure.summarize(v) for op_id, v in samples.items()}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "batch_s": (sum(s["median"] for s in per_op.values()), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in runs), "MiB"),
    }
    detail = {"setup_s": measure.summarize(setup), "per_op_s": per_op,
              "samples_s": samples, "setup_samples_s": setup}
    return metrics, detail


def layer_metrics(table: dict, digest_matches: int, bytes_out: int) -> dict:
    """The PER_LAYER values of one traced batch (without the trace.* ones)."""
    calls, cells, own = table["calls"], table["cells"], table["self_s"]
    layers = {("kernels" if k == "_kernels" else k): v
              for k, v in table["layer_self_s"].items()}
    log2_calls = calls.get("scalars.log2_exact", 0)
    values = {
        "scalars.log2_exact.distinct_ratio":
            table["distinct"].get("scalars.log2_exact", 0) / log2_calls if log2_calls else 0.0,
        "kernels.window_inf_curve.bytes_computed":
            _BYTES_PER_CELL * cells.get("_kernels.window_inf_curve", 0),
        "blocks.norm_sequences.calls": sum(calls.get(n, 0) for n in _NORM_SEQUENCES),
        "blocks.norm_sequences.cells": sum(cells.get(n, 0) for n in _NORM_SEQUENCES),
        "reporting.bytes_out": bytes_out,
        "reporting.digest_match": digest_matches,
    }
    for name, _ in PER_LAYER:
        if name in values or name.startswith("trace."):
            continue
        base, kind = name.rsplit(".", 1)
        source = "_" + base if base.startswith("kernels.") else base
        if kind == "calls":
            values[name] = calls.get(source, 0)
        elif kind == "cells":
            values[name] = cells.get(source, 0)
        elif "." in base:
            values[name] = own.get(source, 0.0)
        else:
            values[name] = layers.get(base, 0.0)
    return values


def run_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Traced batches of the op list in shuffled orders, while they fit."""

    def traced_batch(order):
        matches_before = bench.digest_matches
        runs = [bench.run_op(op_id, args, traced=True) for op_id, args in order]
        traces = [r["trace"] for r in runs if r["trace"] is not None]
        if len(traces) != len(runs):
            raise BenchError("a traced op wrote no trace")
        table = measure.batch_table(traces)
        values = layer_metrics(table, bench.digest_matches - matches_before,
                               sum(r["bytes"] for r in runs))
        values["trace.batch_s"] = sum(r["wall_s"] for r in runs)
        values["trace.spans"] = table["spans"]
        return {"values": values, "table": table,
                "spans": [s for t in traces for s in t["spans"]]}

    units = (("batch", functools.partial(traced_batch, order)) for order in bench.passes())
    batches = closed_loop(seconds, units, minimum=1)
    metrics = {}
    for name, unit in PER_LAYER:
        column = [b["values"][name] for b in batches]
        # counts repeat exactly; timings are the median over the run's batches
        metrics[name] = (statistics.median(column) if unit == "s" else column[0], unit)
    counts_repeat = all(
        b["values"][n] == batches[0]["values"][n] for b in batches for n, u in PER_LAYER
        if u != "s")
    detail = {"batches": len(batches), "counts_repeat": counts_repeat,
              "tables": [b["table"] for b in batches], "spans": [b["spans"] for b in batches]}
    return metrics, detail


def git_sha(root: Path):
    """HEAD of the checkout's git repository, read from .git; None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_stamp(root: Path, args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": git_sha(root), "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    try:
        bench = Bench(root, args.workload, args.seed)
        if args.trace:
            metrics, detail = run_traced(bench, args.seconds)
        else:
            metrics, detail = run_untraced(bench, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"stamp": run_stamp(root, args), "result": result, "detail": detail,
              "failures": bench.failures}
    out = bench.work / "results" / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    if "spans" in detail:
        spans_out = out.with_suffix(".spans.json")
        spans_out.write_text(json.dumps(detail.pop("spans")))
        detail["spans_file"] = str(spans_out.relative_to(root))
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    for f in bench.failures:
        print(f"FAILED {f['op']}: {'; '.join(f['problems'])}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(f"record: {out.relative_to(root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
