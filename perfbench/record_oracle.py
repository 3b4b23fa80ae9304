"""Write perfbench/oracle.json: run every op of every workload once and store
its outcome and the sha256 of its report bytes.

    python3 perfbench/record_oracle.py

Run from the root of a checkout whose reports are known to be right; the
recorded outcomes are what later runs are checked against.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import outcomes
import run


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    tmp = root / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    ops = {}
    for op_list in run.WORKLOADS.values():
        for op_id, args in op_list:
            out = tmp / f"{op_id}.out"
            code, wall, _ = run.run_process(
                [sys.executable, "-m", "shiftlab.cli", *args, "--no-timestamp", "--out", str(out)],
                env)
            data = out.read_bytes()
            ops[op_id] = {"args": args,
                          "outcome": outcomes.outcome(args, code, data),
                          "sha256": outcomes.digest(data)}
            print(f"{op_id}: exit {code}, {wall:.2f} s", flush=True)
    record = {"git_sha": run.git_sha(root), "ops": ops}
    run.ORACLE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
