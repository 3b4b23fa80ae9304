"""Cached log2 rows and weight windows against per-index conversion.

KotheMatrix.log2_row serves rows from what each matrix family holds, and
WeightSequence.log2_window slices of one lazily grown array per object;
every result must be bitwise equal to the per-index entry_log2 / log2
reference, fail where the reference fails, and leave the cache usable
afterwards.  _orbit_log2 builds its orbit norms with np.cumsum over those
slices and must match the sequential per-step walk, bit for bit; the
running-average terms and the basis diagnostic read that one curve.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftlab._kernels import Log2Cache
from shiftlab.blocks import build_blocks
from shiftlab import criteria, spaces
from shiftlab.criteria import HorizonConfig, _avg_term_logs, _orbit_log2, check_criterion
from shiftlab.scalars import ZERO_LOG2, InvalidSpecError, log2_exact
from shiftlab.shifts import (
    DualWeights,
    ShiftOperator,
    UndefinedWeightError,
    constant_weights,
    dual_form,
    geometric_weights,
    parse_weights,
    table_weights,
)
from shiftlab.spaces import (
    HalflineMatrix,
    PowerMatrix,
    ScaledMatrix,
    SpaceSpec,
    constant_matrix,
    parse_space,
    preset,
    table_matrix,
)

F = Fraction
# non-dyadic values: their log2 sums round differently in different orders
ODD_VALUES = (F(1, 3), F(5, 2), F(8, 3), F(3, 8), F(2, 5), F(2), F(1))


def _weight_table(lo, hi):
    return {j: ODD_VALUES[(j * j + 3 * j) % len(ODD_VALUES)] for j in range(lo, hi + 1)}


def _matrix_rows(lo, hi):
    rows = {}
    for j in range(lo, hi + 1):
        first = F(0) if j % 3 == 0 else ODD_VALUES[j % 4]
        rows[j] = [first, first + F(1, 3), first + F(5, 2)][: 2 + j % 2]
    return rows


MATRICES = {
    "constant-Z": lambda: constant_matrix(F(5, 3)),
    "constant-N": lambda: constant_matrix(F(5, 3), "N"),
    "power": PowerMatrix,
    "power-N": lambda: PowerMatrix("N"),
    "halfline": HalflineMatrix,
    "table-error": lambda: table_matrix(_matrix_rows(-15, 15), -15, 15),
    "table-hold": lambda: table_matrix(_matrix_rows(-15, 15), -15, 15, tail="hold"),
    "scaled": lambda: ScaledMatrix(PowerMatrix(), lambda j: F(2 * j + 1, 7)),
}

WEIGHTS = {
    "constant": lambda: constant_weights(F(8, 3)),
    "geometric": lambda: geometric_weights(F(1, 3), F(5, 2)),
    "geometric-abs": lambda: geometric_weights(3, F(2, 5), abs_index=True),
    "table-error": lambda: table_weights(_weight_table(-25, 25)),
    "table-hold": lambda: table_weights(_weight_table(-25, 25), tail="hold"),
    "blocks": lambda: build_blocks(2),
    "dual-table": lambda: DualWeights(base=table_weights(_weight_table(-25, 25)), shift=1),
    "dual-geometric": lambda: DualWeights(base=geometric_weights(F(1, 3), F(5, 2)), shift=-1),
}


# the closed forms written out, independent of the run reader that
# WeightSequence.value and .log2 go through
FORMULAS = {
    "geometric": lambda j: F(1, 3) * F(5, 2) ** j,
    "geometric-abs": lambda j: 3 * F(2, 5) ** abs(j),
    "dual-geometric": lambda j: 1 / (F(1, 3) * F(5, 2) ** (j - 1)),
}


def _weight_log2(name, w):
    """The per-index log2 reference of WEIGHTS[name]: its formula if it has
    one, else w.log2."""
    formula = FORMULAS.get(name)
    return w.log2 if formula is None else lambda j: log2_exact(formula(j))


def _reference(one, lo, hi):
    """Per-index values, or the exception type the first bad index raises."""
    try:
        return np.array([one(j) for j in range(lo, hi + 1)], dtype=np.float64)
    except (IndexError, UndefinedWeightError) as exc:
        return type(exc)


def _row_reference(m, k, lo, hi):
    """Where entry raises IndexError (past an 'error' tail table), the row
    fill raises InvalidSpecError: the horizon outran the input."""
    ref = _reference(lambda j: ZERO_LOG2 if m.index_set == "N" and j < 1
                     else m.entry_log2(j, k), lo, hi)
    return InvalidSpecError if ref is IndexError else ref


def _check(cached, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            cached()
        return
    got = cached()
    assert got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


requests = st.lists(st.tuples(st.integers(-200, 200), st.integers(-1, 60), st.integers(1, 4)),
                    min_size=1, max_size=12)


class TestLog2Cache:
    def test_fresh_cache_answers_an_empty_request_then_a_first_window(self):
        cache, fills = Log2Cache(), []

        def fill(a, b):
            fills.append((a, b))
            return np.arange(a, b + 1, dtype=np.float64)

        empty = cache.window(4, 3, fill)
        assert empty.dtype == np.float64 and empty.size == 0 and fills == []
        assert cache.window(-2, 3, fill).tolist() == [-2, -1, 0, 1, 2, 3]
        assert cache.window(0, 1, fill).tolist() == [0, 1]
        assert fills == [(-2, 3)]

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_matrix_holds_no_array_before_its_first_row(self, name):
        # each family holds only what it converts: a constant matrix its one
        # value, a power matrix a row over |j| per level, the others a row
        # per level
        m = MATRICES[name]()
        assert m._log2_rows == {} and getattr(m, "_log2_half_rows", {}) == {}
        assert "_log2_value" not in vars(m)
        m.log2_row(2, 1, 3)
        family = name.split("-")[0]
        if family == "constant":
            assert m._log2_rows == {} and vars(m)["_log2_value"] == log2_exact(F(5, 3))
        elif family == "power":
            assert m._log2_rows == {} and list(m._log2_half_rows) == [2]
            assert isinstance(m._log2_half_rows[2], Log2Cache)
        else:
            assert list(m._log2_rows) == [2] and isinstance(m._log2_rows[2], Log2Cache)

    def test_each_value_is_converted_once_per_level(self, monkeypatch):
        # a power level grown across zero converts a(j, k) = a(-j, k) once;
        # a constant matrix converts its value once for every level
        calls = []
        monkeypatch.setattr(spaces, "log2_exact", lambda q: calls.append(q) or log2_exact(q))
        power = PowerMatrix()
        power.log2_row(3, -11_000, 1_000)
        power.log2_row(3, -1_000, 11_000)
        assert len(calls) == 11_001
        calls.clear()
        constant = constant_matrix(F(5, 3))
        for k in (1, 2, 3):
            constant.log2_row(k, -5, 5)
            constant.log2_row(k, 100, 200)
        assert calls == [F(5, 3)]

    def test_constant_rows_are_read_only_views(self):
        # one value at every index: no row is made, and no caller may write it
        row = constant_matrix(F(5, 3)).log2_row(2, -5, 5)
        assert row.tolist() == [log2_exact(F(5, 3))] * 11 and row.strides == (0,)
        assert not row.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.0

    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_weights_hold_no_array_before_their_first_window(self, name):
        w = WEIGHTS[name]()
        assert w._log2_cache is None
        w.log2_window(1, 3)
        assert isinstance(w._log2_cache, Log2Cache)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(MATRICES)), requests)
    def test_matrix_rows_match_entry_log2(self, name, reqs):
        m = MATRICES[name]()
        for lo, width, k in reqs:
            hi = lo + width
            _check(lambda: m.log2_row(k, lo, hi), _row_reference(m, k, lo, hi))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(WEIGHTS)), requests)
    def test_weight_windows_match_log2(self, name, reqs):
        w = WEIGHTS[name]()
        for lo, width, _ in reqs:
            hi = lo + width
            _check(lambda: w.log2_window(lo, hi), _reference(_weight_log2(name, w), lo, hi))

    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_growing_then_shrinking_windows(self, name):
        w = WEIGHTS[name]()
        spans = [(0, 3), (-2, 3), (-2, 9), (-20, 20), (1, 1), (-5, 0), (4, 3), (-20, 21)]
        for lo, hi in spans:
            _check(lambda: w.log2_window(lo, hi), _reference(_weight_log2(name, w), lo, hi))

    def test_error_leaves_cache_usable(self):
        w = table_weights(_weight_table(-25, 25))
        assert w.log2_window(-10, 10).tobytes() == _reference(w.log2, -10, 10).tobytes()
        with pytest.raises(UndefinedWeightError):
            w.log2_window(-30, 5)
        with pytest.raises(UndefinedWeightError):
            w.log2_window(0, 26)
        assert w.log2_window(-25, 25).tobytes() == _reference(w.log2, -25, 25).tobytes()
        m = table_matrix(_matrix_rows(-15, 15), -15, 15)
        assert m.log2_row(2, -3, 3).tobytes() == _row_reference(m, 2, -3, 3).tobytes()
        with pytest.raises(InvalidSpecError):
            m.log2_row(2, -3, 16)
        assert m.log2_row(2, -15, 15).tobytes() == _row_reference(m, 2, -15, 15).tobytes()

    def test_disjoint_requests_skip_the_gap(self):
        # positions 0..4 are undefined; no request touches them
        w = table_weights({**_weight_table(-9, -1), **_weight_table(5, 9)})
        for lo, hi in ((-9, -1), (5, 9), (-9, -5), (6, 9)):
            _check(lambda: w.log2_window(lo, hi), _reference(w.log2, lo, hi))
        with pytest.raises(UndefinedWeightError):
            w.log2_window(-1, 5)

    def test_writes_to_results_do_not_reach_the_cache(self):
        w = geometric_weights(F(1, 3), F(5, 2))
        m = PowerMatrix()
        for get, ref in ((lambda: w.log2_window(-4, 4), _reference(w.log2, -4, 4)),
                         (lambda: m.log2_row(2, -4, 4), _row_reference(m, 2, -4, 4))):
            out = get()
            try:
                out[:] = 123.0
            except ValueError:
                pass  # read-only view
            assert get().tobytes() == ref.tobytes()

    def test_equality_ignores_the_cache(self):
        a, b = PowerMatrix(), PowerMatrix()
        a.log2_row(1, 0, 5)
        assert a == b
        v, u = constant_weights(2), constant_weights(2)
        v.log2_window(0, 5)
        assert v == u


# bases of the dual weights whose log2 windows convert one value per base run:
# constants, tables with either tail, the block table
DUAL_BASES = {
    "constant:2": lambda: constant_weights(2),
    "constant:1/2": lambda: constant_weights(F(1, 2)),
    "table-error": lambda: table_weights(_weight_table(-25, 25)),
    "table-hold": lambda: table_weights(_weight_table(-25, 25), tail="hold"),
    "blocks:3": lambda: build_blocks(3),
}


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize("name", sorted(DUAL_BASES))
def test_dual_windows_match_per_index_values(name, shift):
    base = DUAL_BASES[name]()
    lo, hi = getattr(base, "lo", -25) - shift, getattr(base, "hi", 25) - shift
    for a, b in ((lo - 3, lo + 3), (hi - 3, hi + 3), (lo - 1, hi + 1), (lo, hi), (hi + 2, hi + 9)):
        w = DualWeights(base=base, shift=shift)
        try:
            want = np.array([log2_exact(w.value(j)) for j in range(a, b + 1)])
        except UndefinedWeightError as exc:
            with pytest.raises(UndefinedWeightError) as got:
                w.log2_window(a, b)
            assert str(got.value) == str(exc)
            continue
        assert w.log2_window(a, b).tobytes() == want.tobytes(), (a, b)


def _orbit_walk_loop(op, j0, k, n, sign):
    """log2 ||T^(sign i) e_{j0}||_k for i = 1..n, one step at a time through
    w.log2 and m.entry_log2: the bitwise reference of the orbit walk.  T^i
    e_{j0} meets the weights j0, j0 + d, ..., T^-i e_{j0} the weights j0 - d,
    j0 - 2d, ... (d = -1 backward, +1 forward)."""
    m = op.space.matrix
    w = op.weights
    d = -1 if op.direction == "backward" else 1
    out = np.empty(n, dtype=np.float64)
    acc, j = 0.0, j0
    for i in range(n):
        if sign > 0:
            acc += w.log2(j)
            j += d
        else:
            j -= d
            acc += w.log2(j)
        entry = ZERO_LOG2 if m.index_set == "N" and j < 1 else m.entry_log2(j, k)
        out[i] = entry + acc if sign > 0 else entry - acc
    return out


def _avg_term_logs_loop(op, k, branch, n_eff):
    """The branch terms from the walk: e_0 under T ('left') or T^-1
    ('right'); ||e_1||_k, then the orbit of e_1 ('unilateral')."""
    if branch == "unilateral":
        head = [op.space.matrix.entry_log2(1, k)]
        return np.concatenate((head, _orbit_walk_loop(op, 1, k, n_eff - 1, 1)))
    return _orbit_walk_loop(op, 0, k, n_eff, 1 if branch == "left" else -1)


AVG_WEIGHTS = {
    "odd-table-hold": lambda: table_weights(_weight_table(-40, 40), tail="hold"),
    "geometric": lambda: geometric_weights(F(1, 3), F(5, 2), abs_index=True),
    "constant": lambda: constant_weights(F(8, 3)),
    "blocks": lambda: build_blocks(3),
}


class TestAvgTermLogs:
    @pytest.mark.parametrize("weights", sorted(AVG_WEIGHTS))
    @pytest.mark.parametrize("space", ["c0_Z", "s_Z", "halfline_Z"])
    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_bilateral_branches_bitwise(self, weights, space, direction):
        op = ShiftOperator(direction, AVG_WEIGHTS[weights](), preset(space))
        for n_eff in (1, 2, 97, 300):
            for k, terms in zip((1, 3), _avg_term_logs(op, (1, 3), n_eff)):
                for branch in ("left", "right"):
                    want = _avg_term_logs_loop(op, k, branch, n_eff)
                    assert terms[branch].tobytes() == want.tobytes(), (branch, k, n_eff)

    @pytest.mark.parametrize("weights", sorted(AVG_WEIGHTS))
    @pytest.mark.parametrize("matrix", ["constant", "power"])
    def test_unilateral_branch_bitwise(self, weights, matrix):
        m = constant_matrix(1, "N") if matrix == "constant" else PowerMatrix("N")
        op = ShiftOperator("forward", AVG_WEIGHTS[weights](), SpaceSpec(m, 1))
        for n_eff in (1, 2, 150):
            for k, terms in zip((1, 2), _avg_term_logs(op, (1, 2), n_eff)):
                want = _avg_term_logs_loop(op, k, "unilateral", n_eff)
                assert terms["unilateral"].tobytes() == want.tobytes(), (k, n_eff)

    def test_dual_form_branches_bitwise(self):
        op = dual_form(ShiftOperator("backward", AVG_WEIGHTS["odd-table-hold"](),
                                     preset("s_Z")))
        for branch, got in next(_avg_term_logs(op, [2], 200)).items():
            assert got.tobytes() == _avg_term_logs_loop(op, 2, branch, 200).tobytes()


def _check_walk(op, j0, levels, n):
    # both orbits start at ||e_{j0}||_k, n = 0; one call serves every level
    for k, (pos, neg) in zip(levels, _orbit_log2(op, j0, levels, n)):
        assert pos[0] == op.space.matrix.entry_log2(j0, k)
        assert pos[1:].tobytes() == _orbit_walk_loop(op, j0, k, n, 1).tobytes(), (j0, k, n)
        if op.bilateral:
            assert neg[0] == pos[0]
            assert neg[1:].tobytes() == _orbit_walk_loop(op, j0, k, n, -1).tobytes(), (j0, k, n)
        else:
            assert neg is None


class TestOrbitLog2:
    @pytest.mark.parametrize("weights", sorted(AVG_WEIGHTS))
    @pytest.mark.parametrize("space", ["c0_Z", "s_Z", "halfline_Z"])
    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_bilateral_walk_bitwise(self, weights, space, direction):
        op = ShiftOperator(direction, AVG_WEIGHTS[weights](), preset(space))
        for j0 in (-50, -7, 0, 13, 50):
            for n in (0, 1, 2, 150):
                _check_walk(op, j0, (1, 3), n)

    @pytest.mark.parametrize("weights", sorted(AVG_WEIGHTS))
    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_unilateral_walk_bitwise(self, weights, direction):
        # backward orbits leave the index set and read -inf from there on
        op = ShiftOperator(direction, AVG_WEIGHTS[weights](), SpaceSpec(PowerMatrix("N"), 1))
        for j0 in (1, 13, 50):
            for n in (1, 2, 97):
                _check_walk(op, j0, (1, 2), n)

    def test_dual_form_walk_bitwise(self):
        op = dual_form(ShiftOperator("backward", AVG_WEIGHTS["odd-table-hold"](),
                                     preset("s_Z")))
        for j0 in (-50, -7, 0, 13, 50):
            _check_walk(op, j0, [2], 120)

    @pytest.mark.parametrize("weights", ["blocks:4", "constant:5/2", "constant:2/3"])
    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_e_diagnostic_reads_the_ae_terms_at_e0(self, weights, direction):
        # no threshold is reachable, so the diagnostic tries every level of
        # e_-1, e_0 and e_1 in turn; its e_0 norms are a(0, k) followed by the
        # larger of the ae left and right terms, bit for bit
        op = ShiftOperator(direction, parse_weights(weights), parse_space("lp_Z:2"))
        cfg = HorizonConfig(n_max=400, basis_window=1, m_grid=(2.0 ** 1020,))
        with mock.patch.object(criteria, "_first_crossings",
                               wraps=criteria._first_crossings) as spy:
            check_criterion(op, "e", cfg)
        assert spy.call_count == 9
        for k, branch_terms in zip((1, 2, 3), _avg_term_logs(op, (1, 2, 3), 400)):
            norms = spy.call_args_list[2 + k].args[0]
            terms = np.maximum(*branch_terms.values())
            want = np.concatenate((op.space.matrix.log2_row(k, 0, 0), terms))
            assert norms.tobytes() == want.tobytes(), k
