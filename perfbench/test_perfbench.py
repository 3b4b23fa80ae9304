"""Tests for the benchmark's own arithmetic: self time, the percentile choice,
the outcome oracle and the per-layer table.

    python3 -m pytest perfbench
"""

import json

import measure
import outcomes
import run
from trace_op import Tracer


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["criteria.hierarchy_audit", 1.0, 4.0, 0],
        ["spaces.log2_row", 2.0, 3.0, 1],
        ["reporting.canonical_json", 5.0, 9.0, 0],
    ]
    assert measure.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_parents_and_counts():
    tracer = Tracer("op")
    leaf = tracer.counted("scalars.log2_exact", lambda x: x)
    inner = tracer.timed("spaces.log2_row", lambda xs: [leaf(x) for x in xs],
                         cells=lambda args, out: len(out))
    outer = tracer.timed("criteria.ue", lambda: inner([1, 2, 2, 3]))
    outer()
    inner([5])
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("criteria.ue", -1), ("spaces.log2_row", 0), ("spaces.log2_row", -1)]
    assert tracer.counts["scalars.log2_exact.calls"] == 5
    assert tracer.counts["spaces.log2_row.cells"] == 5
    assert len(tracer.seen["scalars.log2_exact"]) == 4


def test_batch_table_sums_over_ops_and_layers():
    traces = [
        {"spans": [["cli.main", 0.0, 5.0, -1], ["_kernels.window_inf_curve", 1.0, 3.0, 0]],
         "counts": {"_kernels.window_inf_curve.cells": 100, "scalars.log2_exact.calls": 10},
         "distinct": {"scalars.log2_exact": 2}},
        {"spans": [["cli.main", 0.0, 1.0, -1]],
         "counts": {"scalars.log2_exact.calls": 30},
         "distinct": {"scalars.log2_exact": 3}},
    ]
    table = measure.batch_table(traces)
    assert table["calls"] == {"cli.main": 2, "_kernels.window_inf_curve": 1,
                              "scalars.log2_exact": 40}
    assert table["layer_self_s"] == {"cli": 4.0, "_kernels": 2.0}
    values = run.layer_metrics(table, digest_matches=2, bytes_out=7)
    assert values["kernels.window_inf_curve.cells"] == 100
    assert values["kernels.window_inf_curve.bytes_computed"] == 800
    assert values["kernels.window_inf_curve.self_s"] == 2.0
    assert values["kernels.self_s"] == 2.0
    assert values["cli.self_s"] == 4.0
    assert values["scalars.log2_exact.distinct_ratio"] == 5 / 40
    assert values["blocks.norm_sequences.calls"] == 0
    assert set(values) | {n for n, _ in run.PER_LAYER if n.startswith("trace.")} == {
        n for n, _ in run.PER_LAYER}


def test_tail_percentile_needs_ten_samples_beyond():
    assert measure.tail_percentile(19) is None
    assert measure.tail_percentile(20) == 50
    assert measure.tail_percentile(39) == 50
    assert measure.tail_percentile(40) == 75
    assert measure.tail_percentile(99) == 75
    assert measure.tail_percentile(100) == 90
    assert measure.tail_percentile(200) == 95
    assert measure.tail_percentile(1000) == 99
    assert measure.tail_percentile(10000) == 99.9


def test_summarize_states_count_and_tail():
    values = [float(v) for v in range(1, 101)]
    s = measure.summarize(values)
    assert s == {"median": 50.5, "n": 100, "tail_p": 90, "tail": 90.0}
    assert measure.summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3,
                                                  "tail_p": None, "tail": None}


def _check_report(kind="CertifiedUnbounded", first_n=12, extra=None):
    report = {"criterion": "ue", "kind": kind, "branch": "", "property": "a",
              "evidence": [{"crossings": [{"M": 1.0, "first_n": first_n}]}], "upe": True}
    report.update(extra or {})
    return json.dumps({"command": "check", "report": report}).encode()


ARGS = ["check", "--space", "lp_Z:2", "--weights", "constant:2", "--criterion", "ue"]


def test_oracle_flags_a_changed_verdict_kind():
    expected = outcomes.outcome(ARGS, 0, _check_report())
    changed = outcomes.outcome(ARGS, 0, _check_report(kind="Inconclusive"))
    assert outcomes.mismatches(expected, changed) == [
        "kind: 'CertifiedUnbounded' != 'Inconclusive'"]
    assert outcomes.mismatches(expected, outcomes.outcome(ARGS, 2, _check_report()))


def test_oracle_ignores_first_crossing_and_added_fields():
    expected = outcomes.outcome(ARGS, 0, _check_report())
    later = outcomes.outcome(ARGS, 0, _check_report(first_n=15,
                                                    extra={"exact_confirmed": True}))
    assert outcomes.mismatches(expected, later) == []


def test_oracle_csv_outcome_is_header_and_row_count():
    data = b"n,norm_log2\r\n1,0.0\r\n2,-1.0\r\n"
    out = outcomes.outcome(["density", "--format", "csv"], 0, data)
    assert out == {"exit": 0, "header": "n,norm_log2", "rows": 2}
