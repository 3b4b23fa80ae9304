"""Arithmetic of the benchmark: sample summaries, span self times, and the
per-layer table of one traced batch."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

# Percentiles considered for the tail figure of a timing, in ascending order.
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10


def tail_percentile(n: int):
    """Highest percentile in PERCENTILES with at least MIN_BEYOND of n samples
    beyond it (nearest-rank), or None when no percentile qualifies."""
    best = None
    for p in PERCENTILES:
        if n - math.ceil(p * n / 100) >= MIN_BEYOND:
            best = p
    return best


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def summarize(values) -> dict:
    """Median, the tail percentile the sample count allows, and the count."""
    p = tail_percentile(len(values))
    return {"median": statistics.median(values), "n": len(values),
            "tail_p": p, "tail": None if p is None else nearest_rank(values, p)}


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its child spans cover.

    A span is ``[name, start, end, parent, ...]`` with ``parent`` the index
    of the enclosing span or -1.  Spans come from one thread, so children
    are disjoint and lie inside their parent.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def batch_table(traces) -> dict:
    """Merge the traces of one batch's ops into per-name totals.

    Returns ``calls``, ``cells`` and ``self_s`` keyed by span or counter name
    (``layer.function``), ``layer_self_s`` keyed by layer, and the per-process
    ``distinct`` counts summed over ops.  Distinct values are counted per
    process because a per-value cache lives in one process.
    """
    calls = defaultdict(int)
    cells = defaultdict(int)
    self_s = defaultdict(float)
    layer_self = defaultdict(float)
    distinct = defaultdict(int)
    spans = 0
    for tr in traces:
        spans += len(tr["spans"])
        for span, own in zip(tr["spans"], self_times(tr["spans"])):
            calls[span[0]] += 1
            self_s[span[0]] += own
            layer_self[layer_of(span[0])] += own
        for key, value in tr["counts"].items():
            name, kind = key.rsplit(".", 1)
            (calls if kind == "calls" else cells)[name] += value
        for name, value in tr["distinct"].items():
            distinct[name] += value
    return {"calls": dict(calls), "cells": dict(cells), "self_s": dict(self_s),
            "layer_self_s": dict(layer_self), "distinct": dict(distinct), "spans": spans}
