"""Report envelopes, canonical JSON, and RFC-4180 CSV emission.

Reports embed the resolved config and the library version so that goldens
are self-describing; byte-identical outputs for identical configs, modulo
the timestamp field (suppressible).
"""

from __future__ import annotations

import csv
import datetime
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Iterable, Optional

from . import __version__

__all__ = ["RUNS", "canonical_json", "envelope", "splice_runs", "write_csv", "write_csv_forked"]

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


def _sink(out_path: Optional[str]):
    return open(out_path, "w", newline="") if out_path else nullcontext(sys.stdout)


def _lines(records: Iterable[str]) -> Iterable[str]:
    return map("%s\r\n".__mod__, records)


def _write(stream, header: list[str], records: Iterable[str]) -> None:
    csv.writer(stream, lineterminator="\r\n").writerow(header)
    stream.writelines(_lines(records))


def write_csv(out_path: Optional[str], header: list[str], records: Iterable[str]) -> None:
    """RFC-4180 text into the file out_path, or stdout if None: CRLF line
    ends, mandatory header.  The header is quoted where it needs it (minimal
    quoting: a threshold given on the command line is free text).  Records
    come joined with commas and are written unquoted, in this process, as
    they are made: their fields are int and float reprs, which hold no comma,
    quote or line break."""
    with _sink(out_path) as stream:
        _write(stream, header, records)


def write_csv_forked(out_path: Optional[str], header: list[str], records: Iterable[str],
                     worker_records: Iterable[str]) -> None:
    """The bytes of write_csv(out_path, header, chain(records, worker_records)),
    made on two cores (POSIX os.fork; the process must have no other thread).

    A forked worker writes the text of worker_records into an unnamed
    temporary file, as it makes it, while this process writes the header and
    records; then this process reaps the worker and copies the file after its
    own text, in chunks.  Neither process holds its part whole.  On every
    other exit the worker is killed and reaped (an exception, a closed output
    pipe, Ctrl-C).  A fork that fails, or a worker that fails (its traceback
    goes to file descriptor 2), raises RuntimeError here: an internal error
    rather than an input error.
    """
    import shutil  # here, so that importing the CLI does not load them
    import signal
    import tempfile

    with _sink(out_path) as stream, \
            tempfile.TemporaryFile("w+", encoding="ascii", newline="") as part:
        try:
            pid = os.fork()
        except OSError as exc:
            raise RuntimeError(f"could not fork the CSV worker: {exc}") from exc
        if pid == 0:
            _work(part, worker_records)
        try:
            _write(stream, header, records)
            status = os.waitpid(pid, 0)[1]
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        if status:
            raise RuntimeError(f"the CSV worker failed (exit {os.waitstatus_to_exitcode(status)})")
        part.seek(0)
        shutil.copyfileobj(part, stream)


def _work(part, records: Iterable[str]) -> None:
    """The worker of write_csv_forked: the records' text into the file part.
    Never returns: the worker leaves by os._exit, so it flushes no stream but
    part and runs no cleanup of the process it was forked from.  It ignores
    Ctrl-C, which the process it was forked from answers by killing it."""
    code = 1
    try:
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)
        part.writelines(_lines(records))
        part.flush()
        code = 0
    except BaseException:
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)
