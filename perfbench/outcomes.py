"""Outcome oracle: what each op's report must say.

An outcome is the part of a report that states a result: exit code, verdict
kind and labels, audit pass flags, block parameters, density evidence flags,
CSV shape.  First-crossing indices and report fields other than these are
left out, so that a change which adds fields, or confirms crossings exactly
and moves a first ``n``, is not scored as a failure.  Byte identity is
tracked separately, as a sha256 digest per op (see ``reporting.digest_match``
in run.py).
"""

from __future__ import annotations

import hashlib
import json


def _verdict(v: dict) -> dict:
    return {"kind": v["kind"], "branch": v["branch"], "property": v["property"]}


def outcome(args: list[str], exit_code: int, data: bytes) -> dict:
    """The outcome of one CLI command, from its exit code and output bytes."""
    out = {"exit": exit_code}
    command = args[0]
    if command == "density" and "csv" in args:
        lines = data.decode().split("\r\n")
        out["header"] = lines[0]
        out["rows"] = len([line for line in lines[1:] if line])
        return out
    report = json.loads(data)["report"]
    if command == "check" and "hierarchy" in args:
        out["consistent"] = report["consistent"]
        out["ue_property"] = report["ue_property"]
        for part in ("ue", "ae", "e_diag"):
            out[part] = _verdict(report[part])
    elif command == "check":
        out.update(_verdict(report))
        if "upe" in report:
            out["upe"] = report["upe"]
    elif command == "synthesize":
        out["all_passed"] = report["all_passed"]
        out["blocks"] = [[b["k"], b["i"], b["t"]] for b in report["layout"]]
    elif command == "density":
        out["evidence"] = {j: level["evidence"]
                           for j, level in report["irregularity_levels"].items()}
    elif command == "props":
        out["all_passed"] = report["all_passed"]
    else:
        raise ValueError(f"no outcome rule for command {command!r}")
    return out


def mismatches(expected: dict, actual: dict) -> list[str]:
    """Keys whose values differ, as 'key: expected != actual' lines."""
    keys = sorted(set(expected) | set(actual))
    return [f"{k}: {expected.get(k)!r} != {actual.get(k)!r}"
            for k in keys if expected.get(k) != actual.get(k)]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
