"""The verdict battery: the outcome of 649 CLI commands, pinned in battery.json.

The commands are ``check --space S --weights W --side D --criterion C`` at a
short horizon (``--n-max 600 --window 60 --m-grid 1,2,4``) over every S, W, D
and C below, plus ``props``, all run in one process through
``shiftlab.cli.main``.  A row holds the exit code, the verdict summary, the
sha256 of stdout and, for an internal error (exit 3), the last line of the
traceback, ``Type: message``.  The test names every row that differs.

A row may move only when a recorded defect is fixed.  Re-record the table with

    PYTHONPATH=src python tests/test_battery.py --record

and list every changed row with its cause in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

from shiftlab.cli import EXIT_AUDIT, EXIT_INTERNAL, main

TABLE = Path(__file__).with_name("battery.json")

SPACES = ("lp_Z:2", "c0_Z", "s_Z", "halfline_Z", "lp_N:2", "c0_N")
WEIGHTS = ("constant:2", "constant:1/2", "constant:1", "geometric:1:2",
           "geometric:1:1/2:abs", "blocks:3")
SIDES = ("backward", "forward")
CRITERIA = ("ae", "ape", "ape-inverse", "ue", "upe", "e", "mixing", "hierarchy", "wellposed")
HORIZON = ("--n-max", "600", "--window", "60", "--m-grid", "1,2,4", "--no-timestamp")


def commands() -> list[tuple[str, ...]]:
    checks = [("check", "--space", s, "--weights", w, "--side", d, "--criterion", c, *HORIZON)
              for s, w, d, c in product(SPACES, WEIGHTS, SIDES, CRITERIA)]
    return checks + [("props", "--no-timestamp")]


def _verdict(v: dict) -> list:
    return [v["kind"], v["branch"], v["property"]]


def summary(args: tuple[str, ...], out: str):
    """The stated result of a report: verdict kinds and labels, level-search
    statuses, or the props pass flag; None without a report."""
    if not out:
        return None
    report = json.loads(out)["report"]
    if args[0] == "props":
        return {"all_passed": report["all_passed"]}
    criterion = args[args.index("--criterion") + 1]
    if criterion == "hierarchy":
        return {"consistent": report["consistent"], "ue_property": report["ue_property"],
                **{part: _verdict(report[part]) for part in ("ue", "ae", "e_diag")}}
    if criterion == "wellposed":
        return {cond: [[r["status"], r["l"]] for r in report[cond]]
                for cond in ("wellposed", "invertible")}
    verdict = {"verdict": _verdict(report)}
    if "upe" in report:
        verdict["upe"] = report["upe"]
    return verdict


def run_one(args: tuple[str, ...]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(list(args))
    out = stdout.getvalue()
    row = {"exit": code, "summary": summary(args, out) if code in (0, 2) else None,
           "sha256": hashlib.sha256(out.encode()).hexdigest()}
    if code == EXIT_INTERNAL:
        row["error"] = stderr.getvalue().splitlines()[-1]
    return row


def run_battery() -> dict[str, dict]:
    return {" ".join(args): run_one(args) for args in commands()}


def record() -> None:
    rows = run_battery()
    lines = [f"{json.dumps(cmd)}: {json.dumps(row, sort_keys=True)}" for cmd, row in rows.items()]
    TABLE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def test_battery_matches_table():
    expected = json.loads(TABLE.read_text())
    actual = run_battery()
    assert len(actual) == 649
    differ = []
    for cmd in sorted(set(expected) | set(actual)):
        want = expected.get(cmd)
        if want != actual.get(cmd):
            differ.append(f"{cmd}\n    table: {want}\n    now:   {actual.get(cmd)}")
    assert not differ, f"{len(differ)} battery rows differ:\n" + "\n".join(differ)


def test_battery_has_no_internal_error_or_inversion():
    # a uniform certificate holds up to the horizon, so no two exclusive
    # regimes are certified (exit 3) and no hierarchy is inverted (exit 2)
    rows = json.loads(TABLE.read_text())
    assert [cmd for cmd, row in rows.items() if row["exit"] in (EXIT_AUDIT, EXIT_INTERNAL)] == []
    hierarchy = [row["summary"] for cmd, row in rows.items()
                 if "--criterion hierarchy" in cmd and row["exit"] == 0]
    assert hierarchy and all(summary["consistent"] for summary in hierarchy)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_battery.py --record")
    record()
