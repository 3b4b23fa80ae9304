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

__all__ = ["canonical_json", "envelope", "write_csv"]


def _default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if hasattr(obj, "to_json"):
        return obj.to_json()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_default) + "\n"


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


def write_csv(out_path: Optional[str], header: list[str], rows: Iterable[list]) -> None:
    """RFC-4180 text into the file out_path, or stdout if None: CRLF line
    ends, minimal quoting, mandatory header.  Rows are written as read."""
    with open(out_path, "w", newline="") if out_path else nullcontext(sys.stdout) as stream:
        writer = csv.writer(stream, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)
