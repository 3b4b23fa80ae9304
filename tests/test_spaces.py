from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shiftlab.spaces import (
    HalflineMatrix,
    InvalidSpecError,
    PowerMatrix,
    SpaceSpec,
    constant_matrix,
    parse_space,
    preset,
    space_from_json,
    space_to_json,
    table_matrix,
)
from vector_oracle import basis_vector, seminorm

PRESETS = {
    "c0_Z": preset("c0_Z"),
    "lp_Z(2)": preset("lp_Z", 2),
    "c0_N": preset("c0_N"),
    "lp_N(1)": preset("lp_N", 1),
    "s_Z": preset("s_Z"),
    "halfline_Z": preset("halfline_Z"),
}


class TestPresets:
    def test_s_Z_entries(self):
        m = PRESETS["s_Z"].matrix
        assert m.entry(5, 2) == 36
        assert m.entry(-3, 1) == 4
        assert PRESETS["s_Z"].p == 1

    def test_lp_unit_matrix(self):
        sp = PRESETS["lp_Z(2)"]
        assert sp.p == 2 and sp.matrix.entry(123456, 7) == 1

    def test_halfline_step(self):
        m = PRESETS["halfline_Z"].matrix
        assert m.entry(0, 1) == 1
        assert m.entry(-1, 1) == 0
        assert m.entry(-1, 2) == 1

    def test_unknown_name(self):
        with pytest.raises(InvalidSpecError):
            preset("weird")

    def test_parse_shorthand(self):
        sp = parse_space("lp_Z:2")
        assert sp.p == 2

    @given(st.sampled_from(sorted(PRESETS)), st.integers(-30, 30), st.integers(1, 5))
    def test_level_monotonicity(self, name, j, k):
        sp = PRESETS[name]
        if sp.index_set == "N":
            j = abs(j) + 1
        assert sp.matrix.entry(j, k) <= sp.matrix.entry(j, k + 1)


class TestSeminorm:
    """The exact seminorm of tests/vector_oracle.py, on basis vectors and
    small sparse vectors."""

    def test_basis_on_s_Z(self):
        assert seminorm(basis_vector(5), 2, PRESETS["s_Z"]) == 36

    @given(st.sampled_from(sorted(PRESETS)), st.integers(-20, 20), st.integers(1, 4))
    def test_basis_vector_gives_entry(self, name, j, k):
        sp = PRESETS[name]
        if sp.index_set == "N":
            j = abs(j) + 1
        assert seminorm(basis_vector(j), k, sp) == sp.matrix.entry(j, k)

    def test_two_coordinates_l1(self):
        assert seminorm({0: Fraction(1), 1: Fraction(1)}, 1, preset("lp_Z", 1)) == 2

    def test_two_coordinates_sup(self):
        assert seminorm({0: Fraction(1, 2), 3: Fraction(2)}, 1, PRESETS["c0_Z"]) == 2

    def test_p2_multi_support_is_log(self):
        # not rational: the exact power sum 1 + 1 with p = 2, i.e. sqrt(2)
        v = seminorm({0: Fraction(1), 1: Fraction(1)}, 1, PRESETS["lp_Z(2)"])
        assert v == (2, 2)

    def test_p2_one_nonzero_term_is_exact(self):
        # a(-2, 1) = 0 on halfline_Z, so only the term at 1 is left: |4| * 1
        v = seminorm({-2: Fraction(3), 1: Fraction(4)}, 1, preset("halfline_Z", 2))
        assert isinstance(v, Fraction) and v == 4

    def test_zero_vector(self):
        assert seminorm({}, 3, PRESETS["s_Z"]) == 0

    @given(st.integers(-10, 10), st.fractions(min_value=-9, max_value=9, max_denominator=64))
    def test_p0_equals_p1_on_single_support(self, j, c):
        x = {j: c} if c else {}
        a = seminorm(x, 2, preset("lp_Z", 1))
        b = seminorm(x, 2, preset("c0_Z"))
        assert a == b


class TestPowerLog2Row:
    def test_mixed_sign_windows_convert_each_magnitude_once(self):
        from shiftlab import spaces

        m = PowerMatrix()
        with mock.patch.object(spaces, "log2_exact", wraps=spaces.log2_exact) as conv:
            rows = {k: m.log2_row(k, -7, 30) for k in (1, 3)}
            rows[3] = m.log2_row(3, -40, 12)  # grows the cached rows on both sides
        assert conv.call_count == 31 + 41  # |j| <= 30 at level 1, |j| <= 40 at level 3
        for k, (lo, hi) in ((1, (-7, 30)), (3, (-40, 12))):
            want = np.array([m.entry_log2(j, k) for j in range(lo, hi + 1)])
            assert rows[k].tobytes() == want.tobytes()


class TestTableMatrix:
    def test_tail_error(self):
        m = table_matrix({0: [1, 2], 1: [1, 1]}, 0, 1)
        assert m.entry(0, 2) == 2
        with pytest.raises(IndexError):
            m.entry(5, 1)

    def test_tail_hold(self):
        m = table_matrix({0: [1, 2], 1: [3, 4]}, 0, 1, tail="hold")
        assert m.entry(9, 1) == 3

    def test_rejects_bad_rows(self):
        with pytest.raises(InvalidSpecError):
            table_matrix({0: [2, 1]}, 0, 0)
        with pytest.raises(InvalidSpecError):
            table_matrix({0: [0, 0]}, 0, 0)

    def test_rejects_unknown_tail(self):
        with pytest.raises(InvalidSpecError, match="tail must be 'error' or 'hold', got 'wrap'"):
            table_matrix({0: [1]}, 0, 0, tail="wrap")
        one = {"num": "1", "den": "1"}
        spec = {"family": "table", "params": {"lo": 0, "hi": 0, "tail": "wrap", "rows": {"0": [one]}}}
        with pytest.raises(InvalidSpecError, match="'wrap'"):
            space_from_json(spec)

    def test_rejects_missing_row(self):
        with pytest.raises(InvalidSpecError, match="index 1 "):
            table_matrix({0: [1], 2: [1]}, 0, 2)
        one = {"num": "1", "den": "1"}
        spec = {"family": "table", "params": {"lo": -1, "hi": 1, "rows": {"-1": [one], "1": [one]}}}
        with pytest.raises(InvalidSpecError, match="index 0 "):
            space_from_json(spec)


RATIO_FAMILIES = [constant_matrix(1), constant_matrix(3, "N"), HalflineMatrix(),
                  PowerMatrix(), PowerMatrix("N")]


def _entry_or_zero(m, j, k):
    return m.entry(j, k) if m.index_set == "Z" or j >= 1 else Fraction(0)


class TestRatioMinimisers:
    """The docstring claim of each attested family, in exact arithmetic:
    over a run of valid columns, the least r(j) = a(j + s, l) / a(j, k) is at
    a run end or at a named column clipped to the run."""

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(RATIO_FAMILIES), st.integers(1, 4), st.integers(0, 6),
           st.integers(1, 60), st.booleans(), st.integers(-120, 60), st.integers(0, 60))
    @example(PowerMatrix(), 1, 1, 10, True, -20, 19)  # least at -u* = -9, inside the run
    def test_least_ratio_is_at_a_named_column(self, m, k, dl, n, b_form, lo, width):
        level, s = k + dl, -n if b_form else n
        if m.index_set == "N":
            lo = max(lo, 1)
        if isinstance(m, HalflineMatrix):
            lo = max(lo, 1 - k)
        run = range(lo, lo + width + 1)  # a(j, k) > 0 on it

        def r(j):
            return _entry_or_zero(m, j + s, level) / m.entry(j, k)

        columns, ratio = m.ratio_minimisers(k, level, s)
        named = [min(max(int(j), run[0]), run[-1]) for j in (run[0], run[-1], *columns)]
        assert min(r(j) for j in named) == min(r(j) for j in run)
        finite = {j: r(j) for j in run if r(j) != 0}
        if ratio is None:
            assert len(set(finite.values())) <= 1
        else:
            assert all(ratio(j, s) == value for j, value in finite.items())


def test_json_roundtrip():
    for name in ("c0_Z", "s_Z", "halfline_Z"):
        sp = PRESETS.get(name) or preset(name)
        again = space_from_json(space_to_json(sp))
        assert again.p == sp.p
        for j in (-3, 0, 2):
            for k in (1, 2):
                assert again.matrix.entry(j, k) == sp.matrix.entry(j, k)


def test_halfline_json_needs_the_bilateral_index_set():
    # the halfline matrix is defined on Z only; "N" must not load as Z
    assert space_from_json({"family": "halfline", "index_set": "Z"}).index_set == "Z"
    with pytest.raises(InvalidSpecError, match="halfline space JSON needs index_set 'Z', got 'N'"):
        space_from_json({"family": "halfline", "index_set": "N"})


def test_bool_exponent_rejected():
    # bool is an int subclass: p = True must not pass as the lp_1 exponent
    for p in (True, False):
        with pytest.raises(InvalidSpecError, match=f"got {p!r}"):
            SpaceSpec(constant_matrix(1, "Z"), p)
        with pytest.raises(InvalidSpecError, match=f"got {p!r}"):
            space_from_json({"family": "constant", "p": p})
