"""Report envelopes, canonical JSON, and RFC-4180 CSV emission.

Reports embed the resolved config and the library version so that goldens
are self-describing; byte-identical outputs for identical configs, modulo
the timestamp field (suppressible).
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Optional

from . import __version__

__all__ = ["RUNS", "canonical_json", "csv_lines", "emit", "envelope", "json_chunks",
           "splice_runs", "write_csv_forked"]

RUNS = "<runs>"  # the value splice_runs replaces
_LINE = "%s\r\n".__mod__  # a CSV record as one line


def _default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if hasattr(obj, "to_json"):
        return obj.to_json()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


_ENCODER = json.JSONEncoder(sort_keys=True, indent=2, default=_default)


def canonical_json(payload) -> str:
    """The report text: sorted keys, two-space indent, a final line break."""
    return _ENCODER.encode(payload) + "\n"


def json_chunks(payload) -> Iterator[str]:
    """canonical_json(payload) as the encoder makes it, chunk by chunk (as
    json.dump writes), so that emit streams it and no one holds it whole."""
    return chain(_ENCODER.iterencode(payload), ("\n",))


def splice_runs(text: str, runs) -> tuple[str, str, str]:
    """text (canonical JSON) with the value RUNS replaced by the object
    {str(j): str(v) for j in [start, start + length)} of the (start, length, v)
    runs, as canonical_json writes it; ints and Fractions need no escaping.
    As three chunks, the middle one the entries, which emit writes unjoined."""
    head, _, tail = text.partition(f'"{RUNS}"')
    entries = []
    for start, n, v in runs:
        entries += map(f'"%d": "{v}"'.__mod__, range(start, start + n))
    entries.sort()  # as sort_keys sorts: the quote closing a key sorts below digits
    pad = "\n  " + " " * head[head.rindex("\n") + 1:].index('"')  # the key's indent + 2
    return head + "{" + pad, ("," + pad).join(entries), pad[:-2] + "}" + tail


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


@contextmanager
def _sink(out_path: Optional[str]):
    """The file out_path or stdout, flushed when the writer is done: EPIPE reaches main."""
    with open(out_path, "w", newline="") if out_path else nullcontext(sys.stdout) as stream:
        yield stream
        stream.flush()


def emit(out_path: Optional[str], chunks: Iterable[str]) -> None:
    """The chunks, in order, into the file out_path, or stdout if None, each
    written as the iterable yields it.  With json_chunks the report is
    encoded as it is written: a defect that makes the encoder raise leaves
    a partial report ahead of the exit-3 traceback."""
    with _sink(out_path) as stream:
        stream.writelines(chunks)


def csv_lines(header: list[str], records: Iterable[str]) -> Iterator[str]:
    """RFC-4180 text, line by line: CRLF line ends, a mandatory header quoted
    where it needs it (minimal quoting: a threshold given on the command line
    is free text), then the records, joined with commas and unquoted: their
    fields are int and float reprs, which hold no comma, quote or line break."""
    head = io.StringIO()
    csv.writer(head, lineterminator="\r\n").writerow(header)
    return chain((head.getvalue(),), map(_LINE, records))


def write_csv_forked(out_path: Optional[str], header: list[str], records: Iterable[str],
                     worker_records: Iterable[str]) -> None:
    """What emit(out_path, csv_lines(header, chain(records, worker_records)))
    writes, made on two cores (POSIX os.fork; the process must have no other thread).

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
            stream.writelines(csv_lines(header, records))
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
        part.writelines(map(_LINE, records))
        part.flush()
        code = 0
    except BaseException:
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)
