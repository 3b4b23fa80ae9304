"""Run one shiftlab CLI command with span tracing around each layer.

Usage: python3 perfbench/trace_op.py <trace-out.json> <op-id> <cli args...>

The layers are the modules of the package.  Every public function defined in
a layer module gets a span, at every name it is bound to across the package
(so ``from .criteria import hierarchy_audit`` in ``cli`` is traced too).
Functions called once per index get a call counter and no timer, because a
timer on millions of calls would measure the tracer rather than the program.
Spans stay in memory and are written to <trace-out.json> when the command
ends; the exit code is the command's own.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from collections import Counter

import numpy as np

LAYERS = ("scalars", "spaces", "shifts", "_kernels", "criteria", "blocks", "density",
          "algebra", "reporting", "cli")

# Per-index functions: counted, not timed.  log2_exact is bound by name in
# spaces, shifts and cli as well, and the rebinding below reaches those sites.
COUNTED_FUNCTIONS = {"scalars": ("log2_exact",)}
COUNTED_METHODS = {
    ("spaces", "KotheMatrix"): ("entry_log2",),
    ("shifts", "WeightSequence"): ("log2", "value"),
}
# Timed methods, with the number of cells each call produces.
TIMED_METHODS = {
    ("spaces", "KotheMatrix"): {"log2_row": lambda args, out: len(out)},
    ("shifts", "WeightSequence"): {"log2_window": lambda args, out: len(out)},
}
# Cells for timed functions: the work each call does, counted from its inputs.
FUNCTION_CELLS = {
    "_kernels.window_inf_curve": lambda args, out: int(args[3]) * int(np.count_nonzero(args[2])),
    "_kernels.running_log2_average": lambda args, out: len(args[0]),
    "blocks.backward_norms": lambda args, out: len(out),
    "blocks.forward_norms": lambda args, out: len(out),
}
# Counted functions whose first argument is kept, so that distinct/calls can
# be reported.
DISTINCT = ("scalars.log2_exact",)


class Tracer:
    """In-memory span and counter store for one op process."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = {name: set() for name in DISTINCT}

    def timed(self, name: str, fn, cells=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if cells is not None:
                counts[name + ".cells"] += cells(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        counts, key = self.counts, name + ".calls"
        seen = self.seen.get(name)
        if seen is None:
            def traced(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        else:
            def traced(*args, **kwargs):
                counts[key] += 1
                seen.add(args[0])
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str, exit_code: int) -> None:
        out = {
            "op": self.op_id,
            "exit_code": exit_code,
            "spans": [[n, s, e, p, self.op_id] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
            "distinct": {name: len(values) for name, values in self.seen.items()},
        }
        with open(path, "w") as fh:
            json.dump(out, fh)


def _rebind(modules, attr: str, original, replacement) -> None:
    """Replace ``original`` wherever a module binds it under the name ``attr``.

    Matching the name as well as the object keeps aliases apart: in
    ``_kernels`` the numpy fallback is bound both as ``window_inf_curve`` and
    as ``window_inf_curve_py``, and each gets a span of its own name.
    """
    for mod in modules:
        if vars(mod).get(attr) is original:
            setattr(mod, attr, replacement)


def install(tracer: Tracer) -> dict:
    """Wrap every layer's public functions and the listed methods; returns the
    loaded layer modules by name."""
    mods = {name: importlib.import_module(f"shiftlab.{name}") for name in LAYERS}
    package = importlib.import_module("shiftlab")
    everywhere = [package, *mods.values()]
    for layer, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            if attr in COUNTED_FUNCTIONS.get(layer, ()):
                _rebind(everywhere, attr, fn, tracer.counted(name, fn))
            else:
                _rebind(everywhere, attr, fn, tracer.timed(name, fn, FUNCTION_CELLS.get(name)))
    for (layer, cls_name), attrs in COUNTED_METHODS.items():
        cls = getattr(mods[layer], cls_name)
        for attr in attrs:
            setattr(cls, attr, tracer.counted(f"{layer}.{attr}", getattr(cls, attr)))
    for (layer, cls_name), attrs in TIMED_METHODS.items():
        cls = getattr(mods[layer], cls_name)
        for attr, cells in attrs.items():
            setattr(cls, attr, tracer.timed(f"{layer}.{attr}", getattr(cls, attr), cells))
    return mods


def main(argv: list[str]) -> int:
    trace_out, op_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(op_id)
    mods = install(tracer)
    main_fn = vars(mods["cli"])["main"]  # already wrapped as the span cli.main
    code = 3
    try:
        code = main_fn(cli_args)
    finally:
        tracer.dump(trace_out, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
