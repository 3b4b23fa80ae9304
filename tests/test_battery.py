"""The verdict battery: the outcome of 719 CLI commands, pinned in battery.json.

The commands are ``check --space S --weights W --side D --criterion C`` at a
short horizon (``--n-max 600 --window 60 --m-grid 1,2,4``) over every S, W, D
and C below, plus ``props``, all run in one process through
``shiftlab.cli.main``.  The weights above are dyadic, whose log walk sums are
exact; the uniform criteria also run with non-dyadic constants at windows 3
and 60, whose walk sums round (equal ratios at a step still read one float on
constant and step rows).  A ``hold`` matrix table on [-100, 100]
(hold_table.json, a(j, 1) = 2^-|j|) runs the window-bound criteria at
horizons inside and past its edges, as does a table of ones on [-100, 5]
(hold_ones_table.json), whose forward walks from e_0 leave it on one side
only; and two ``e`` diagnostics read orbits that cross the kink of s_Z and
the step of halfline_Z.  An argument ``@name`` names a file in
this directory, so a row's key does not depend on the checkout.  A row holds
the exit code, the verdict summary, the sha256 of stdout and, for an internal
error (exit 3), the last line of the traceback, ``Type: message``.  The test
names every row that differs.

A row may move only when a recorded defect is fixed.  Re-record the table with

    PYTHONPATH=src python tests/test_battery.py --record

which prints each row it moved, with the fields of it that changed, and
their count; list every changed row with its cause in CHANGES.md.
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
NON_DYADIC = (("lp_Z:2", "s_Z", "halfline_Z"), ("constant:5/2", "constant:2/3"), SIDES,
              ("ue", "upe"), ("3", "60"))
HOLD_CHECKS = [(c, d) for c in ("ape", "ae", "e") for d in SIDES] + [("mixing", "backward")]
ONES_CHECKS = ("ape", "ae", "e")
EDGE_CHECKS = (("s_Z", "constant:11/10", "45"), ("halfline_Z", "constant:2", "20"))


def commands() -> list[tuple[str, ...]]:
    checks = [("check", "--space", s, "--weights", w, "--side", d, "--criterion", c, *HORIZON)
              for s, w, d, c in product(SPACES, WEIGHTS, SIDES, CRITERIA)]
    non_dyadic = [("check", "--space", s, "--weights", w, "--side", d, "--criterion", c,
                   "--n-max", "600", "--window", window, "--m-grid", "1,2,4", "--no-timestamp")
                  for s, w, d, c, window in product(*NON_DYADIC)]
    hold = [("check", "--space", "@hold_table.json", "--weights", "constant:3/2", "--side", d,
             "--criterion", c, "--n-max", n_max, "--window", "10", "--basis-window", "3",
             "--k-max", "1", "--no-timestamp")
            for n_max in ("50", "600") for c, d in HOLD_CHECKS]
    ones = [("check", "--space", "@hold_ones_table.json", "--weights", "constant:1/2", "--side",
             "forward", "--criterion", c, "--n-max", n_max, "--k-max", "1", "--no-timestamp")
            for n_max in ("50", "600") for c in ONES_CHECKS]
    edge = [("check", "--space", s, "--weights", w, "--side", "forward", "--criterion", "e",
             "--n-max", n_max, "--k-max", "1", "--basis-window", "50", "--no-timestamp")
            for s, w, n_max in EDGE_CHECKS]
    return checks + non_dyadic + hold + ones + edge + [("props", "--no-timestamp")]


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
    argv = [f"@{TABLE.parent / a[1:]}" if a.startswith("@") else a for a in args]
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    out = stdout.getvalue()
    row = {"exit": code, "summary": summary(args, out) if code in (0, 2) else None,
           "sha256": hashlib.sha256(out.encode()).hexdigest()}
    if code == EXIT_INTERNAL:
        row["error"] = stderr.getvalue().splitlines()[-1]
    return row


def run_battery() -> dict[str, dict]:
    return {" ".join(args): run_one(args) for args in commands()}


def record() -> None:
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    rows = run_battery()
    lines = [f"{json.dumps(cmd)}: {json.dumps(row, sort_keys=True)}" for cmd, row in rows.items()]
    TABLE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    moved = 0
    for cmd in sorted(set(old) | set(rows)):
        was, now = old.get(cmd), rows.get(cmd)
        if was != now:
            moved += 1
            fields = ("new" if was is None else "gone" if now is None else
                      ", ".join(f for f in sorted(set(was) | set(now)) if was.get(f) != now.get(f)))
            print(f"{cmd}: {fields}")
    print(f"{moved} of {len(rows)} rows moved")


def test_battery_matches_table():
    expected = json.loads(TABLE.read_text())
    actual = run_battery()
    assert len(actual) == 719
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


def test_ue_upe_flag_agrees_with_the_upe_verdict():
    # the ue report's upe flag says the uniform regime is (A) or (a), which
    # is what upe certifies on the same operator and horizon
    rows = json.loads(TABLE.read_text())
    upe = {cmd.replace("--criterion upe", "--criterion ue"): row["summary"]["verdict"][0]
           for cmd, row in rows.items() if "--criterion upe" in cmd}
    pairs = [(cmd, row["summary"]["upe"], upe[cmd]) for cmd, row in rows.items()
             if "--criterion ue " in cmd and row["summary"] is not None]
    assert len(pairs) == 72
    assert [cmd for cmd, flag, kind in pairs if flag != (kind == "CertifiedUnbounded")] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_battery.py --record")
    record()
