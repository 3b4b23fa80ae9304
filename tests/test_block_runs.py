"""The exact block lane on runs against the per-index reference route.

For J = 1..4 every field of the audit, the witness audit, the density
report and the density CSV's running averages must equal what
tests/block_oracle.py computes one index at a time.  The run helpers are
also checked against brute force on random inputs, including the failing
cases a passing build never reaches (an eq4 violation inside a run, a
broken plateau, a density ratio at n0).
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import block_oracle as oracle
from shiftlab import blocks
from shiftlab.blocks import (
    build_blocks,
    hypercyclicity_witness,
    norm_runs,
    orbit_runs,
    verify_inequalities,
)
from shiftlab.cli import EXIT_USAGE, main
from shiftlab.density import _run_density, density_rows, distributional_report
from shiftlab.reporting import canonical_json
from shiftlab.shifts import UndefinedWeightError, parse_weights

F = Fraction
J_VALUES = (1, 2, 3, 4)
_BUILDS = {}


def build(j_max):
    if j_max not in _BUILDS:
        _BUILDS[j_max] = build_blocks(j_max)
    return _BUILDS[j_max]


@pytest.mark.parametrize("j_max", J_VALUES)
def test_table_entries_equal_their_weight_runs(j_max):
    b = build(j_max)
    t_max = b.layout.t_max
    position = -t_max
    for start, n, v in b.layout.weight_runs():
        assert start == position and n > 0  # contiguous, no empty run
        assert all(b.value(j) == v for j in range(start, start + n))
        position += n
    assert position == t_max + 2
    for j in (-t_max - 1, t_max + 2):
        with pytest.raises(UndefinedWeightError) as error:
            b.value(j)
        assert error.value.args == (f"weight table spans [{-t_max}, {t_max + 1}], got {j}",)


@pytest.mark.parametrize("j_max", J_VALUES)
def test_orbit_runs_spell_the_raw_products(j_max):
    b = build(j_max)
    for direction, raw in (("backward", oracle.backward_norms(b)),
                           ("forward", oracle.forward_norms(b))):
        assert oracle.expand_runs(orbit_runs(b, direction)) == raw[1:]
        assert oracle.expand_runs(norm_runs(b, direction)) == raw[1:]
        cut = min(37, b.layout.t_max - 1)
        assert oracle.expand_runs(norm_runs(b, direction, cut)) == raw[1:cut + 1]
    assert oracle.closed_norms(b) == oracle.backward_norms(b)


@pytest.mark.parametrize("j_max", J_VALUES)
def test_audit_equals_per_index_route(j_max):
    b = build(j_max)
    got, want = verify_inequalities(b), oracle.verify_inequalities(b)
    assert got == want
    assert canonical_json(got) == canonical_json(want)  # ints stay ints


@pytest.mark.parametrize("j_max", J_VALUES)
@pytest.mark.parametrize("t_range", [3, 8])
def test_witness_equals_per_index_route(j_max, t_range):
    b = build(j_max)
    got, want = hypercyclicity_witness(b, t_range), oracle.hypercyclicity_witness(b, t_range)
    assert got == want
    assert canonical_json(got) == canonical_json(want)


@pytest.mark.parametrize("j_max", J_VALUES)
@pytest.mark.parametrize("vector", ["e-1-forward", "e1-backward"])
def test_density_report_equals_per_index_route(j_max, vector):
    b = build(j_max)
    got, want = distributional_report(b, vector), oracle.distributional_report(b, vector)
    assert got == want
    assert canonical_json(got) == canonical_json(want)
    if j_max == 4:
        return  # the per-index route takes seconds here; the grids are covered below J = 4
    grids = dict(k_grid=[2, 9, 100], tau_grid=[F(1, 2), F(1, 7), F(3, 5)],
                 n_horizon=b.layout.t_max - 5, n0=3)
    assert distributional_report(b, vector, **grids) == oracle.distributional_report(
        b, vector, **grids)


@pytest.mark.parametrize("j_max", J_VALUES)
@pytest.mark.parametrize("side", ["op", "inverse"])
def test_cesaro_trace_equals_per_index_route(j_max, side):
    # the CSV's running_average column is the route to the Cesàro means
    b = build(j_max)
    vector = "e-1-forward" if side == "op" else "e1-backward"
    got = [row.split(",")[2] for row in density_rows(b, vector, b.layout.t_max, [], [])]
    want = oracle.cesaro_values(b, "e-1-forward", side)
    assert got == [repr(float(v)) for v in want]


def test_orbit_past_the_table_raises_the_table_error():
    b = build(2)
    for direction, index in (("backward", -173), ("forward", 174)):
        with pytest.raises(UndefinedWeightError) as table_error:
            b.value(index)
        with pytest.raises(UndefinedWeightError) as orbit_error:
            norm_runs(b, direction, 173)
        assert str(orbit_error.value) == str(table_error.value)


@pytest.mark.parametrize("j_max", (2, 3))
def test_audit_checks_the_table_against_its_runs(j_max):
    b = build(j_max)
    assert verify_inequalities(b).all_passed
    runs = list(b.runs)
    i = next(i for i in range(len(runs) // 2, len(runs)) if runs[i][1] > 1)
    start, n, v = runs[i]
    head, tail = runs[:i], runs[i + 1:]
    for tampered in (head + [(start, n, v * 2)] + tail,  # a changed value
                     head + [(start, n - 1, v)] + tail,  # a shortened run
                     head + tail,  # a dropped run
                     runs + [(b.layout.t_max + 2, 1, F(1))]):  # an extra run
        audit = verify_inequalities(dataclasses.replace(b, runs=tuple(tampered)))
        assert audit.violations == ("weight table disagrees with its runs",)


def test_blocks_shorthand_is_the_build(capsys):
    assert parse_weights("blocks:3") == build(3)
    assert main(["density", "--weights", "constant:2"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: density works on the synthesized block weights (blocks:<J>)\n")


# ---------------------------------------------------------------------------
# run helpers against brute force
# ---------------------------------------------------------------------------

values = st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(4)])
value_runs = st.lists(st.tuples(values, st.integers(1, 6)), min_size=1, max_size=12)


def _prefix(seq):
    out = [F(0)]
    for v in seq:
        out.append(out[-1] + v)
    return out


@settings(max_examples=300, deadline=None)
@given(value_runs, st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), F(3)]), st.data())
def test_first_below_matches_per_index(runs, c, data):
    seq = oracle.expand_runs(runs)
    lo = data.draw(st.integers(1, len(seq)))
    hi = data.draw(st.integers(lo, len(seq)))
    assert blocks._first_below(runs, c, lo, hi) == oracle.first_below(_prefix(seq), c, lo, hi)


@pytest.mark.parametrize("j_max", [2, 3])
def test_first_below_on_the_orbit_matches_per_index(j_max):
    # eq4 at larger constants fails inside long runs and at run ends
    b = build(j_max)
    runs = norm_runs(b, "backward")
    prefix = _prefix(oracle.backward_norms(b)[1:])
    t_max = b.layout.t_max
    for c in (F(1), F(2), F(3), F(7, 2), F(5), F(8), F(40)):
        for lo, hi in ((1, t_max), (7, t_max // 2), (t_max // 3, t_max), (t_max, t_max)):
            assert blocks._first_below(runs, c, lo, hi) == oracle.first_below(prefix, c, lo, hi)


@settings(max_examples=300, deadline=None)
@given(value_runs, values, st.data())
def test_first_other_matches_per_index(runs, value, data):
    seq = oracle.expand_runs(runs)
    lo = data.draw(st.integers(1, len(seq)))
    hi = data.draw(st.integers(lo, len(seq)))
    want = next((n for n in range(lo, hi + 1) if seq[n - 1] != value), None)
    assert blocks._first_other(runs, value, lo, hi) == want


@settings(max_examples=300, deadline=None)
@given(value_runs, values, st.booleans(), st.data())
def test_run_density_matches_per_index(runs, threshold, large, data):
    seq = oracle.expand_runs(runs)
    n_max = data.draw(st.integers(1, len(seq)))
    n0 = data.draw(st.integers(1, n_max))
    runs_cut = blocks._head(runs, n_max)

    def pred(v):
        return v >= threshold if large else v <= threshold

    got = _run_density(runs_cut, pred, n_max, n0)
    want = oracle.upper_density([pred(v) for v in seq], n_max, n0)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(value_runs, st.integers(0, 60), st.data())
def test_run_terms_are_maximal_and_head_cuts_them(terms, cut, data):
    seq = oracle.expand_runs(terms)
    split = data.draw(st.integers(0, len(terms)))
    runs = blocks._run_terms(blocks._run_terms([], terms[:split]), terms[split:])
    # the runs spell the same sequence, no two neighbours share a value, and
    # they depend on the sequence alone
    assert oracle.expand_runs(runs) == seq
    assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))
    assert blocks._run_terms([], [(v, 1) for v in seq]) == runs
    head = blocks._head(runs, cut)
    assert oracle.expand_runs(head) == seq[:cut]
    assert head == blocks._run_terms([], [(v, 1) for v in seq[:cut]])


@settings(max_examples=200, deadline=None)
@given(st.integers(-172, 173), st.integers(0, 120))
def test_window_product_matches_weight_by_weight(lo, width):
    from shiftlab.shifts import weight_product

    b = build(2)
    hi = min(lo + width, 173)
    assert weight_product(b, lo, hi) == oracle.weight_product(b, lo, hi)


def _layout(params):
    """A layout with the given (k_j, i_j), offsets placed as build_blocks
    places them; no minimality, so the inequalities may fail."""
    blocks_, t_prev = [], 0
    for j, (k, i) in enumerate(params, 1):
        r = blocks.r_of(j)
        a, b = 4 * k + 2 ** k, 2 * r + i - 1
        n_mid = t_prev + 4 * k + 2 ** (k - 1)
        blocks_.append(blocks.BlockParams(j, k, i, r, a, b, t_prev + a, t_prev + a + b, n_mid,
                                          F(0)))
        t_prev += a + b
    layout = blocks.BlockLayout(tuple(blocks_))
    return blocks.BlockWeights(tuple(layout.weight_runs()), "error", -layout.t_max,
                               layout.t_max + 1, layout)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(2, 5), st.integers(1, 60)), min_size=1, max_size=3))
def test_failing_layouts_audit_like_the_per_index_route(params):
    # arbitrary (k_j, i_j) break eq1..eq4 and the witness in many places;
    # both routes must report the same failures at the same n
    b = _layout(params)
    assert verify_inequalities(b) == oracle.verify_inequalities(b)
    assert hypercyclicity_witness(b, 3) == oracle.hypercyclicity_witness(b, 3)
    for vector in ("e-1-forward", "e1-backward"):
        assert distributional_report(b, vector) == oracle.distributional_report(b, vector)


def test_failing_layouts_reach_eq4_violations():
    # the generator above does produce eq4 failures, not only eq1..eq3 ones
    for params, first in (([(2, 20), (2, 5), (3, 3)], 46), ([(2, 60), (2, 1), (3, 3)], 83)):
        b = _layout(params)
        report = verify_inequalities(b)
        assert report.eq4_first_violation == first
        assert report == oracle.verify_inequalities(b)


def test_eq4_is_checked_on_the_documented_bands(monkeypatch):
    # [t_{j-1} + 4 k_j, t_j + 4 k_{j+1}] for j = 1..J-1, with bound j + 1; the
    # band ends are never the first failing n in reachable layouts, so they
    # are pinned here directly
    b, seen = build(4), []
    real = blocks._first_below

    def spy(runs, c, lo, hi):
        seen.append((c, lo, hi))
        return real(runs, c, lo, hi)

    monkeypatch.setattr(blocks, "_first_below", spy)
    verify_inequalities(b)
    layout = b.layout
    assert seen == [(j + 1, layout[j].t - layout[j].a - layout[j].b + 4 * layout[j].k,
                     layout[j].t + 4 * layout[j + 1].k) for j in range(1, 4)]
