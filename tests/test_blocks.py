"""Golden and audit tests for the block construction.

Derived goldens (k_3, i_3, k_4, i_4, layout offsets, exact sums) were frozen
from an independent brute-force enumeration of the inequalities over raw
weight products before this suite was written; the j = 2 values also appear
as printed reductions (2^k >= 17 + 4k and (26 + i)/(112 + i) >= 1/2).
"""

from fractions import Fraction

import pytest

from block_oracle import backward_norms, expand_runs, forward_norms
from shiftlab.blocks import (
    BlockWeights,
    SearchCapExceeded,
    build_blocks,
    closed_form_norms,
    hypercyclicity_witness,
    r_of,
    verify_inequalities,
)

F = Fraction

GOLDEN_A1 = [F(1), F(1), F(1), F(1, 4), F(1, 2), F(1, 2), F(1, 2), F(1),
             F(2), F(2), F(2), F(2)]
GOLDEN_B1 = [F(1, 2), F(1, 2), F(1), F(2), F(2)]
GOLDEN_C1 = [F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1), F(2), F(2), F(2), F(4),
             F(1), F(1), F(1)]

# (j, k, i, r, a, b, s, t, n_mid), oracle-frozen
GOLDEN_LAYOUT = {
    1: (2, 2, 2, 12, 5, 12, 17, 10),
    2: (6, 60, 4, 88, 67, 105, 172, 73),
    3: (9, 1106, 4, 548, 1113, 720, 1833, 464),
    4: (13, 29634, 5, 8244, 29643, 10077, 39720, 5981),
}


@pytest.fixture(scope="module")
def build4() -> BlockWeights:
    return build_blocks(4)


class TestRof:
    def test_exact_powers(self):
        assert r_of(1) == 2  # 2 log2 2 = 2 exactly
        assert r_of(3) == 4  # 2 log2 4 = 4 exactly

    def test_rounds_up(self):
        assert r_of(2) == 4  # 2 log2 3 ~ 3.17

    @pytest.mark.parametrize("j,want", [(4, 5), (7, 6), (15, 8), (31, 10)])
    def test_more_values(self, j, want):
        assert r_of(j) == want

    def test_integer_characterization(self):
        for j in range(1, 200):
            r = r_of(j)
            assert 2 ** r >= (j + 1) ** 2
            assert r == 1 or 2 ** (r - 1) < (j + 1) ** 2


class TestGoldenBlocks:
    def test_printed_templates(self, build4):
        a, b, c = map(expand_runs, build4.layout.templates(1))
        assert a == GOLDEN_A1
        assert b == GOLDEN_B1
        assert c == GOLDEN_C1

    def test_layout_numbers(self, build4):
        for j, (k, i, r, a, b, s, t, n_mid) in GOLDEN_LAYOUT.items():
            p = build4.layout[j]
            assert (p.k, p.i, p.r, p.a, p.b, p.s, p.t, p.n_mid) == (k, i, r, a, b, s, t, n_mid)

    def test_weight_positions_first_block(self, build4):
        w = build4
        assert [w.value(j) for j in range(-12, 0)] == GOLDEN_A1
        assert [w.value(j) for j in range(-17, -12)] == GOLDEN_B1
        assert [w.value(j) for j in range(2, 14)] == GOLDEN_C1
        assert w.value(0) == 1 and w.value(1) == 1

    def test_alpha_values(self, build4):
        assert build4.layout[1].alpha == F(31, 6)
        # exact total over the first 105 norms, frozen from the oracle
        assert build4.layout[2].alpha * 105 == F(49679, 6)

    def test_weight_value_set(self, build4):
        w = build4
        lo, hi = -build4.layout.t_max, build4.layout.t_max + 1
        allowed = {F(1), F(2), F(1, 2), F(4), F(1, 4)}
        allowed |= {F(j, 2 * (j + 1)) for j in range(1, 5)}
        allowed |= {F(2 * (j + 1), j) for j in range(1, 5)}
        seen = {w.value(j) for j in range(lo, hi + 1)}
        assert seen <= allowed
        assert all(F(1, 4) <= v <= 4 for v in seen)


class TestClosedFormNorms:
    def test_first_range_j1(self, build4):
        first, second = map(expand_runs, closed_form_norms(build4.layout, 1))
        assert first == [F(2), F(4), F(8), F(16), F(16), F(8), F(4), F(2),
                         F(1, 2), F(1, 2), F(1, 2), F(1, 2)]
        assert second == [F(1), F(2), F(2), F(1), F(1, 2)]

    def test_matches_raw_products(self, build4):
        nb = backward_norms(build4)
        for j in range(1, 5):
            p = build4.layout[j]
            t_prev = p.t - p.a - p.b
            first, second = map(expand_runs, closed_form_norms(build4.layout, j))
            assert first == nb[t_prev + 1:p.s + 1]
            assert second == nb[p.s + 1:p.t + 1]

    def test_backward_forward_symmetry(self, build4):
        assert backward_norms(build4) == forward_norms(build4)


class TestSearchMinimality:
    def test_eq1_reduction_at_j2(self):
        # 2^k >= 17 + 4k: k = 6 is minimal above k_1 = 2
        for k in range(3, 6):
            assert 2 ** k < 17 + 4 * k
        assert 2 ** 6 >= 17 + 4 * 6

    def test_eq3_reduction_at_j2(self, build4):
        # (26 + i) / (112 + i) >= 1/2 first holds at i = 60
        assert F(26 + 60, 112 + 60) >= F(1, 2)
        assert F(26 + 59, 112 + 59) < F(1, 2)

    def test_direct_eq1_enumeration_j2(self, build4):
        nb = backward_norms(build4, 105)
        card = sum(1 for n in range(1, 106) if nb[n] <= F(1, 3))
        assert card == 64
        assert F(card, 105) >= F(1, 2)

    def test_strict_monotonicity(self, build4):
        ks = [build4.layout[j].k for j in range(1, 5)]
        is_ = [build4.layout[j].i for j in range(1, 5)]
        assert ks == sorted(set(ks)) and is_ == sorted(set(is_))

    def test_search_cap_raises(self):
        with pytest.raises(SearchCapExceeded):
            build_blocks(3, k_cap=7)

    @pytest.mark.parametrize("j_max,kit", [(6, (23, 42_393_034, 52_142_520)),
                                            (7, (29, 3_229_915_912, 3_818_929_471))])
    def test_blocks_6_and_7_build_and_pass_both_audits(self, j_max, kit):
        # the i search is an affine solve and the table is its runs, so an
        # i_j in the billions costs no more than a small one
        build = build_blocks(j_max)
        p = build.layout[j_max]
        assert (p.k, p.i, p.t) == kit
        assert verify_inequalities(build).all_passed
        assert hypercyclicity_witness(build).certified


class TestAudit:
    def test_full_audit_passes(self, build4):
        report = verify_inequalities(build4)
        assert report.all_passed
        assert report.closed_form_matches_products
        assert report.symmetry_holds
        assert report.eq4_ok

    def test_eq2_value_j2(self, build4):
        report = verify_inequalities(build4)
        assert report.eq2[2]["value"] == str(F(49679, 6) / 121)
        assert report.eq2[2]["ok"]

    def test_eq1_ratio_j2(self, build4):
        report = verify_inequalities(build4)
        assert report.eq1[2]["ratio"] == "64/105"

    def test_eq4_probe_j1_n8(self, build4):
        nb = backward_norms(build4, 8)
        assert sum(nb[1:9], F(0)) / 8 == F(15, 2)
        assert F(15, 2) >= 2

    def test_eq2_reported_at_j1(self, build4):
        report = verify_inequalities(build4)
        assert report.eq2_at_j1 == {"value": "31/10", "holds": True}


class TestWitness:
    def test_first_window(self, build4):
        p = build4.layout[1]
        assert p.n_mid == 10
        nb = backward_norms(build4, 12)
        assert all(nb[n] == F(1, 2) for n in range(9, 13))

    @pytest.mark.parametrize("j_max, audited", [(1, []), (2, [0])])
    def test_certifies_only_when_a_shift_is_audited(self, j_max, audited):
        # a shift is audited once two blocks reach it: none at J = 1, t = 0
        # alone at J = 2
        audit = hypercyclicity_witness(build_blocks(j_max), t_range=8)
        assert [t for t in range(-8, 9) if t not in audit.skipped_shifts] == audited
        assert audit.certified is bool(audited)
        assert audit.violations == (() if audited else (
            "no shift audited: each has fewer than two blocks in reach",))

    def test_audit_certifies(self, build4):
        audit = hypercyclicity_witness(build4, t_range=8)
        assert audit.certified
        assert audit.plateau_ok
        assert audit.inverse_products_match

    def test_t_minus_1_exactly_hyperbolic(self, build4):
        audit = hypercyclicity_witness(build4, t_range=8)
        # at t = -1 the product is exactly 1/(j+1)
        assert audit.c_values[-1] == 1
        for j, v in audit.products[-1].items():
            assert v == F(1, j + 1)

    def test_t0_bounded_by_4_over_jplus1(self, build4):
        audit = hypercyclicity_witness(build4, t_range=8)
        for j, v in audit.products[0].items():
            assert v <= F(4, j + 1)

    def test_schedule_covers_smallest_threshold(self, build4):
        audit = hypercyclicity_witness(build4, t_range=8)
        for t, schedule in audit.schedules.items():
            assert schedule[-1]["threshold"] == "1/1024"
            assert schedule[-1]["first_j"] is not None
