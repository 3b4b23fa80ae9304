"""Report envelopes, canonical JSON, and RFC-4180 CSV emission.

Reports embed the resolved config and the library version so that goldens
are self-describing; byte-identical outputs for identical configs, modulo
the timestamp field (suppressible).
"""

from __future__ import annotations

import csv
import datetime
import json
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Iterable, Optional

from . import __version__

__all__ = ["RUNS", "canonical_json", "envelope", "splice_runs", "write_csv"]

RUNS = "<runs>"  # the value splice_runs replaces


def _default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if hasattr(obj, "to_json"):
        return obj.to_json()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_default) + "\n"


def splice_runs(text: str, runs) -> str:
    """text (canonical JSON) with the value RUNS replaced by the object
    {str(j): str(v) for j in [start, start + length)} of the (start, length, v)
    runs, as canonical_json writes it; ints and Fractions need no escaping."""
    head, _, tail = text.partition(f'"{RUNS}"')
    entries = []
    for start, n, v in runs:
        entries += map(f'"%d": "{v}"'.__mod__, range(start, start + n))
    entries.sort()  # as sort_keys sorts: the quote closing a key sorts below digits
    pad = "\n  " + " " * head[head.rindex("\n") + 1:].index('"')  # the key's indent + 2
    return "".join((head, "{", pad, ("," + pad).join(entries), pad[:-2], "}", tail))


def envelope(command: str, config: dict, payload: dict, timestamp: bool = True) -> dict:
    out = {
        "tool": "shiftlab",
        "version": __version__,
        "command": command,
        "config": config,
        "report": payload,
    }
    if timestamp:
        out["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return out


def write_csv(out_path: Optional[str], header: list[str], records: Iterable[str]) -> None:
    """RFC-4180 text into the file out_path, or stdout if None: CRLF line
    ends, mandatory header.  The header is quoted where it needs it (minimal
    quoting: a threshold given on the command line is free text).  Records
    come joined with commas and are written as read, unquoted: their fields
    are int and float reprs, which hold no comma, quote or line break."""
    with open(out_path, "w", newline="") if out_path else nullcontext(sys.stdout) as stream:
        csv.writer(stream, lineterminator="\r\n").writerow(header)
        stream.writelines(map("%s\r\n".__mod__, records))
