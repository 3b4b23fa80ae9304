from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from shiftlab.blocks import build_blocks
from shiftlab.criteria import HorizonConfig
from shiftlab.shifts import (
    NotInvertibleError,
    ShiftOperator,
    basis_orbit_norm,
    conjugate_to_unweighted,
    constant_weights,
    dual_form,
    geometric_weights,
    parse_weights,
    table_weights,
    weight_product,
    weights_from_json,
    window_check,
)
from shiftlab.spaces import SpaceSpec, parse_space, preset, table_matrix
from vector_oracle import apply, basis_vector, seminorm

CFG = HorizonConfig(n_max=64, window=60, m_grid=(1, 2, 4), k_max=2)
BUILD = build_blocks(2)


def op_backward(w, space="c0_Z", p=None):
    return ShiftOperator("backward", w, preset(space, p))


def op_forward(w, space="c0_Z", p=None):
    return ShiftOperator("forward", w, preset(space, p))


def oracle_norm(op, j0, n, k):
    """||T^n e_{j0}||_k by the per-vector route of tests/vector_oracle.py."""
    return seminorm(apply(op, basis_vector(j0), n), k, op.space)


def outcome(f, *args):
    """f(*args), or NotInvertibleError where the call raises it."""
    try:
        return f(*args)
    except NotInvertibleError:
        return NotInvertibleError


class TestWeightProduct:
    def test_block_table_segment(self):
        # positions -1..-4 of the first synthesized block all carry 2
        assert weight_product(BUILD, -4, -1) == 16

    def test_empty_range(self):
        assert weight_product(constant_weights(3), 5, 4) == 1

    def test_constant_power(self):
        assert weight_product(constant_weights(2), 1, 10) == 2 ** 10

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
    def test_cocycle_law(self, a, b, c):
        a, b, c = sorted((a, b, c))
        w = geometric_weights(Fraction(3, 2), Fraction(1, 2), abs_index=True)
        assert (weight_product(w, a, c)
                == weight_product(w, a, b) * weight_product(w, b + 1, c))


class TestApply:
    """The one-step route of tests/vector_oracle.py."""

    def test_step_on_block_weights(self):
        got = apply(op_backward(BUILD), basis_vector(-1), 1)
        assert got == {-2: Fraction(2)}

    def test_identity(self):
        x = {0: Fraction(1), 5: Fraction(-2, 3)}
        assert apply(op_forward(constant_weights(7)), x, 0) == x

    def test_forward_unit(self):
        got = apply(op_forward(constant_weights(1)), basis_vector(0), 5)
        assert got == basis_vector(5)

    def test_inverse_composition(self):
        op = op_backward(constant_weights(Fraction(5, 3)))
        x = {-2: Fraction(1), 3: Fraction(7, 2)}
        assert apply(op, apply(op, x, 3), -3) == x

    def test_unilateral_backward_kills_edge(self):
        op = ShiftOperator("backward", constant_weights(2), preset("lp_N", 1))
        assert apply(op, basis_vector(1), 1) == {}
        assert apply(op, basis_vector(3), 2) == {1: Fraction(4)}

    def test_unilateral_backward_no_inverse(self):
        op = ShiftOperator("backward", constant_weights(2), preset("lp_N", 1))
        with pytest.raises(NotInvertibleError):
            apply(op, basis_vector(1), -1)

    def test_unilateral_forward_partial_inverse(self):
        op = ShiftOperator("forward", constant_weights(2), preset("lp_N", 1))
        assert apply(op, basis_vector(3), -2) == {1: Fraction(1, 4)}
        with pytest.raises(NotInvertibleError):
            apply(op, basis_vector(1), -1)


class TestBasisOrbitNorm:
    def test_first_block_display(self):
        op = op_backward(BUILD)
        got = [basis_orbit_norm(op, -1, n, 1) for n in range(1, 9)]
        assert got == [2, 4, 8, 16, 16, 8, 4, 2]

    def test_n0_gives_entry(self):
        assert basis_orbit_norm(op_forward(constant_weights(9), "s_Z"), 3, 0, 2) == 16

    def test_s_Z_unweighted_forward(self):
        assert basis_orbit_norm(op_forward(constant_weights(1), "s_Z"), 0, 5, 2) == 36

    # the closed form must agree exactly with stepping the operator n times
    # and taking the seminorm, and raise NotInvertibleError on the same calls;
    # on a unilateral space e_{j0} is e_{|j0|+1}
    @settings(max_examples=80)
    @given(st.sampled_from(["c0_Z", "s_Z", "halfline_Z", "lp_Z", "lp_Z:2", "c0_N", "lp_N:1"]),
           st.sampled_from(["backward", "forward"]),
           st.integers(-50, 50), st.integers(-200, 200), st.integers(1, 5))
    @example("c0_N", "forward", 2, -2, 1)  # F^{-2} e_3 = e_1 / (w_1 w_2)
    @example("c0_N", "forward", 2, -3, 1)  # e_1 has no preimage
    @example("lp_N:1", "backward", 2, 3, 1)  # B^3 e_3 = 0
    @example("lp_N:1", "backward", 0, -1, 1)  # no inverse at all
    def test_oracle_equivalence_vs_apply(self, name, direction, j0, n, k):
        space = parse_space(name)
        if not space.bilateral:
            j0 = abs(j0) + 1
        for w in (constant_weights(2), constant_weights(Fraction(1, 2))):
            op = ShiftOperator(direction, w, space)
            assert outcome(basis_orbit_norm, op, j0, n, k) == outcome(oracle_norm, op, j0, n, k)

    @settings(max_examples=40)
    @given(st.sampled_from(["c0_Z", "c0_N"]), st.sampled_from(["backward", "forward"]),
           st.integers(-30, 30), st.integers(-40, 40), st.integers(1, 2))
    def test_oracle_equivalence_block_weights(self, name, direction, j0, n, k):
        space = preset(name)
        if not space.bilateral:
            j0 = abs(j0) + 1
        op = ShiftOperator(direction, BUILD, space)
        assert outcome(basis_orbit_norm, op, j0, n, k) == outcome(oracle_norm, op, j0, n, k)


class TestWellPosedInvertible:
    def test_unit_matrix_constant_weights(self):
        op = op_backward(constant_weights(2))
        rep = window_check(op, "defined", 1, CFG)
        assert rep.ok and rep.level == 1 and rep.window_sup == "2"
        rep = window_check(op, "invertible", 1, CFG)
        assert rep.ok and rep.level == 1 and rep.window_sup == "1/2"

    def test_halfline_forward_needs_next_level(self):
        # at l = k the zero pattern breaks at the step edge (entry 2/0);
        # l = k+1 clears it with ratio sup 2 under the 0/0 = 1 convention
        op = op_forward(constant_weights(2), "halfline_Z")
        rep = window_check(op, "defined", 1, CFG)
        assert rep.ok and rep.level == 2 and rep.window_sup == "2"

    def test_halfline_forward_invertible_same_level(self):
        # off the support both entries vanish, so the 0/0 = 1 convention
        # pins the sup at 1 (the live ratios are 1/2)
        op = op_forward(constant_weights(2), "halfline_Z")
        rep = window_check(op, "invertible", 1, CFG)
        assert rep.ok and rep.level == 1 and rep.window_sup == "1"

    def test_s_Z_unweighted_forward_invertible(self):
        op = op_forward(constant_weights(1), "s_Z")
        rep = window_check(op, "invertible", 2, CFG)
        # ratio ((|j|+1)/(|j+1|+1))^k peaks at j = -1 with value 2^k
        assert rep.ok and rep.level == 2 and rep.window_sup == "4"

    def test_growing_weights_inconclusive(self):
        op = op_backward(geometric_weights(1, 2, abs_index=True))
        rep = window_check(op, "defined", 1, CFG)
        assert rep.status == "inconclusive"
        assert rep.sup_at_boundary

    @staticmethod
    def _levels_tried(monkeypatch):
        """The levels at which the window check builds its ratio terms."""
        from shiftlab import shifts

        levels, real = [], shifts._ratio_terms

        def recorded(op, condition, k, level, window):
            levels.append(level)
            return real(op, condition, k, level, window)

        monkeypatch.setattr(shifts, "_ratio_terms", recorded)
        return levels

    def test_unattested_search_stops_at_first_clean_level(self, monkeypatch):
        # geometric weights have no tail attestation, so no later level can
        # turn 'inconclusive' into 'holds': level 1 breaks at the step edge,
        # level 2 is clean and ends the search
        levels = self._levels_tried(monkeypatch)
        op = op_forward(geometric_weights(1, 2), "halfline_Z")
        rep = window_check(op, "defined", 1, HorizonConfig(k_max=3))
        assert rep.status == "inconclusive" and rep.level == 2
        assert levels == [1, 2]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_attested_search_passes_a_violating_level(self, monkeypatch, k):
        levels = self._levels_tried(monkeypatch)
        op = op_forward(constant_weights(2), "halfline_Z")
        rep = window_check(op, "defined", k, HorizonConfig(window=16, k_max=3))
        assert rep.ok and rep.level == k + 1
        assert levels == [k, k + 1]

    def test_window_past_an_error_table_reads_the_table(self):
        # the window [-10, 10] reaches past the weights on [-3, 3]; the
        # check reads the indices they cover and skips the rest
        op = op_backward(table_weights({j: 2 for j in range(-3, 4)}))
        rep = window_check(op, "defined", 1, HorizonConfig(window=10, k_max=1))
        assert rep.status == "inconclusive" and rep.level == 1 and rep.window_sup == "2"

    def test_no_weights_on_window(self):
        op = op_backward(table_weights({50: 2}))
        rep = window_check(op, "defined", 1, HorizonConfig(window=5, k_max=1))
        assert (rep.status, rep.level, rep.detail) == ("inconclusive", None, "no weights on window")

    def test_zero_row_through_l_max_fails(self):
        # a(0, l) = 0 for every l <= l_max = 3 while a(-1, 1) = 1: B e_0
        # has norm 1 at level 1, which no level of ||e_0|| bounds
        rows = {j: [1] for j in range(-3, 4)}
        rows[0] = [0, 0, 0, 1]
        space = SpaceSpec(table_matrix(rows, -3, 3, tail="hold"), 0)
        op = ShiftOperator("backward", constant_weights(1), space)
        rep = window_check(op, "defined", 1, HorizonConfig(window=2, k_max=1, l_max=3))
        assert (rep.status, rep.level) == ("fails", None)
        assert rep.detail == "zero-pattern implication fails for every level <= 3 on the window"

    def test_unilateral_forward_not_invertible(self):
        op = ShiftOperator("forward", constant_weights(2), preset("lp_N", 1))
        rep = window_check(op, "invertible", 1, CFG)
        assert rep.ok is False


class TestConjugacy:
    def test_constant_two(self):
        op = op_backward(constant_weights(2))
        new_space, unweighted, v = conjugate_to_unweighted(op)
        for j in range(-6, 7):
            assert v(j) == Fraction(2) ** (-j)
            assert seminorm(basis_vector(j), 1, new_space) == Fraction(2) ** (-j)

    def test_unit_weights_identity(self):
        op = op_backward(constant_weights(1))
        _, _, v = conjugate_to_unweighted(op)
        assert all(v(j) == 1 for j in range(-5, 6))

    def test_orbit_transfer_exact(self):
        # ||B^n e_j||' == |v_j| * ||B_w^n e_j|| for the transferred space
        op = op_backward(BUILD)
        new_space, unweighted, v = conjugate_to_unweighted(op)
        for j0 in (-4, -1, 0, 2):
            for n in range(-6, 7):
                got = basis_orbit_norm(unweighted, j0, n, 1)
                want = abs(v(j0)) * basis_orbit_norm(op, j0, n, 1)
                assert got == want

    def test_block_weights_left_products(self):
        # ||e_{-n}||'_1 = |w_{-n+1} ... w_0| checked against the raw product
        op = op_backward(BUILD)
        new_space, _, _ = conjugate_to_unweighted(op)
        for n in range(1, 17):
            want = weight_product(BUILD, -n + 1, 0)
            assert seminorm(basis_vector(-n), 1, new_space) == want

    def test_diagonal_recurrences(self):
        # v(0) = 1 and v(m) = v(m+1) w(m+1), equivalently v(-j-1) = w(-j) v(-j)
        # and v(j+1) = v(j) / w(j+1), for every weight family
        families = {
            "constant:2": constant_weights(2),
            "geometric": geometric_weights(Fraction(1, 3), Fraction(5, 2)),
            "geometric-abs": geometric_weights(3, Fraction(2, 5), abs_index=True),
            "table-hold": table_weights({-2: 3, -1: Fraction(1, 2), 0: 2, 1: Fraction(5, 3)},
                                        tail="hold"),
            "blocks:3": build_blocks(3),
        }
        for name, w in families.items():
            _, _, v = conjugate_to_unweighted(op_backward(w))
            assert v(0) == 1, name
            for j in range(-30, 31):
                assert v(j) == v(j + 1) * w.value(j + 1), (name, j)
                assert v(-abs(j) - 1) == w.value(-abs(j)) * v(-abs(j)), (name, j)
        # a wide window: w_j = (3/2)^j gives v_j = (2/3)^(j(j+1)/2) for j > 0
        # and v_{-j} = (2/3)^(j(j-1)/2), each index one step from the last
        w = geometric_weights(1, Fraction(3, 2))
        _, _, v = conjugate_to_unweighted(op_backward(w))
        assert v(500) == Fraction(2, 3) ** (500 * 501 // 2)
        assert v(-500) == Fraction(2, 3) ** (500 * 499 // 2)
        for j in range(-500, 501):
            assert v(j) == v(j + 1) * w.value(j + 1), j


class TestDualForm:
    def test_constant_forward(self):
        dual = dual_form(op_forward(constant_weights(2)))
        assert dual.direction == "backward"
        assert dual.weights.value(7) == Fraction(1, 2)

    def test_apply_matches_inverse(self):
        op = op_backward(BUILD)
        dual = dual_form(op)
        x = {1: Fraction(1), -3: Fraction(2, 5)}
        for n in range(-8, 9):
            assert apply(dual, x, n) == apply(op, x, -n)

    def test_block_inverse_value(self):
        # w_2 = 1/2 so B^{-1} e_1 = e_2 / w_2 = 2 e_2, via both routes
        op = op_backward(BUILD)
        assert apply(op, basis_vector(1), -1) == {2: Fraction(2)}
        assert apply(dual_form(op), basis_vector(1), 1) == {2: Fraction(2)}

    def test_double_dual_restores_magnitudes(self):
        op = op_backward(BUILD)
        dd = dual_form(dual_form(op))
        for j in range(-10, 11):
            assert dd.weights.value(j) == BUILD.value(j)


def test_weight_json_roundtrip():
    for w in (constant_weights(Fraction(3, 7)),
              geometric_weights(2, Fraction(1, 2), abs_index=True),
              table_weights({-1: 2, 0: Fraction(1, 3), 1: 1})):
        again = weights_from_json(w.to_json())
        for j in (-1, 0, 1):
            assert again.value(j) == w.value(j)


def test_parse_weights_shorthand():
    assert parse_weights("constant:1/2").value(3) == Fraction(1, 2)
    assert parse_weights("geometric:1:2").value(3) == 8
    assert parse_weights("blocks:1").value(-1) == 2


def test_undefined_weight_error_is_a_key_error_with_plain_text():
    with pytest.raises(KeyError) as error:
        table_weights({0: 1, 1: 2}).value(2)
    assert str(error.value) == "weight table spans [0, 1], got 2"
