"""Every weight is read as runs, through one run reader.

Random tables, with gaps for the 'error' tail and without for 'hold', random
geometric weights, over j and over |j|, and the duals of both are read over
random windows, including windows that cross a table's ends and its gaps.
The log2 window, the exact weight product and the error each must equal what
a plain dict lookup or the geometric formula, one index at a time, gives.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.scalars import log2_exact
from shiftlab.shifts import (
    DualWeights,
    UndefinedWeightError,
    geometric_weights,
    table_weights,
    weight_product,
    weights_from_json,
)
from shiftlab.spaces import InvalidSpecError

F = Fraction
VALUES = st.sampled_from([F(1, 3), F(1, 2), F(1), F(2), F(5, 2)])


@st.composite
def tables(draw):
    """(dict, tail): a table over [lo, lo + size) whose error-tail form may
    leave gaps; repeated values make runs longer than one index."""
    tail = draw(st.sampled_from(["error", "hold"]))
    lo = draw(st.integers(-15, 15))
    size = draw(st.integers(1, 25))
    entries = draw(st.lists(st.one_of(VALUES, st.none()) if tail == "error" else VALUES,
                            min_size=size, max_size=size))
    entries[0] = entries[0] or F(1)
    entries[-1] = entries[-1] or F(2)
    return {lo + i: v for i, v in enumerate(entries) if v is not None}, tail


def _lookup(table, tail):
    """j -> w(j) by dict lookup, raising the table's error."""
    lo, hi = min(table), max(table)

    def one(j):
        if j in table:
            return table[j]
        if tail == "hold" and not lo <= j <= hi:
            return table[lo if j < lo else hi]
        raise UndefinedWeightError(f"weight table spans [{lo}, {hi}], got {j}")

    return one


@st.composite
def families(draw):
    """(weights, j -> w(j)): a drawn table with its dict lookup, or a geometric
    weight with its formula."""
    if draw(st.booleans()):
        table, tail = draw(tables())
        return table_weights(table, tail), _lookup(table, tail)
    coef, ratio, abs_index = draw(VALUES), draw(VALUES), draw(st.booleans())
    return (geometric_weights(coef, ratio, abs_index),
            lambda j: coef * ratio ** (abs(j) if abs_index else j))


def _per_index(f, lo, hi):
    """[f(lo), ..., f(hi)], or the message of the first error."""
    try:
        return [f(j) for j in range(lo, hi + 1)], None
    except UndefinedWeightError as exc:
        return None, str(exc)


def _outcome(call):
    try:
        return call(), None
    except UndefinedWeightError as exc:
        return None, str(exc)


windows = st.lists(st.tuples(st.integers(-30, 30), st.integers(-1, 30)), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(families(), st.sampled_from([None, 1, -1]), windows)
def test_runs_read_like_a_dict(family, shift, wins):
    w, base = family
    one = base
    if shift is not None:
        w = DualWeights(base=w, shift=shift)
        one = lambda j: 1 / base(j + shift)  # noqa: E731
    for lo, width in wins:
        hi = lo + width
        values, message = _per_index(one, lo, hi)
        logs, got_message = _outcome(lambda: w.log2_window(lo, hi))
        assert got_message == message
        product, got_message = _outcome(lambda: weight_product(w, lo, hi))
        assert got_message == message
        assert [_outcome(lambda: w.value(j)) for j in range(lo, hi + 1)] == [
            _outcome(lambda: one(j)) for j in range(lo, hi + 1)]
        if message is None:
            spelled = [(a + i, v) for a, n, v in w._runs(lo, hi) for i in range(n)]
            assert spelled == list(zip(range(lo, hi + 1), values))
            want = np.array([log2_exact(v) for v in values], dtype=np.float64)
            assert logs.tobytes() == want.tobytes()
            assert product == math.prod(values, start=F(1))


@settings(max_examples=100, deadline=None)
@given(tables())
def test_table_json_roundtrip(drawn):
    w = table_weights(*drawn)
    assert weights_from_json(w.to_json()) == w
    runs = w.runs
    assert all(a + n < b or v != u for (a, n, v), (b, _, u) in zip(runs, runs[1:]))  # maximal


def test_hold_table_with_a_gap_is_rejected():
    with pytest.raises(InvalidSpecError) as error:
        table_weights({0: 1, 2: 3}, tail="hold")
    assert str(error.value) == "hold weight table has no weight at 1 in [0, 2]"
    with pytest.raises(InvalidSpecError, match="tail must be 'error' or 'hold', got 'wrap'"):
        table_weights({0: 1}, tail="wrap")
    gappy = table_weights({0: 1, 2: 3})  # the error tail keeps its gap
    assert gappy.value(2) == 3
    with pytest.raises(UndefinedWeightError, match=r"spans \[0, 2\], got 1"):
        gappy.log2_window(0, 3)
