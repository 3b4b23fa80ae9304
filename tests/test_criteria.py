import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shiftlab.blocks import build_blocks
from shiftlab.criteria import (
    HorizonConfig,
    VerdictKind,
    _avg_n_eff,
    check_criterion,
    hierarchy_audit,
)
from shiftlab.shifts import ShiftOperator, constant_weights, table_weights
from shiftlab.spaces import InvalidSpecError, PowerMatrix, SpaceSpec, preset, table_matrix

F = Fraction
CFG = HorizonConfig(n_max=256, window=128, m_grid=(1, 2, 4, 16, 2 ** 10), k_max=2,
                    basis_window=8)


@pytest.fixture(scope="module")
def build4():
    return build_blocks(4)


@pytest.fixture(scope="module")
def blocks_op(build4):
    return ShiftOperator("backward", build4.weights, preset("c0_Z"))


def blocks_cfg(build4, **kw):
    base = dict(n_max=build4.layout.t_max, window=300, m_grid=(1, 2, 4), k_max=2,
                basis_window=6)
    base.update(kw)
    return HorizonConfig(**base)


class TestHorizonConfig:
    def test_defaults(self):
        cfg = HorizonConfig()
        assert cfg.n_max == 10_000 and cfg.window == 1_000
        assert cfg.m_grid[0] == 1 and cfg.m_grid[-1] == 2 ** 20
        assert cfg.l_max == cfg.k_max + 5

    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            HorizonConfig(n_max=0)
        with pytest.raises(InvalidSpecError):
            HorizonConfig(m_grid=(4, 2))
        with pytest.raises(InvalidSpecError):
            HorizonConfig(k_max=3, l_max=2)


class TestAvgExpansive:
    def test_doubling_backward_left(self):
        op = ShiftOperator("backward", constant_weights(2), preset("c0_Z"))
        v = check_criterion(op, "ae", CFG)
        assert v.certified and v.branch == "left"
        # closed form g(n) = (2^{n+1} - 2)/n: first crossings must match the
        # exact enumeration
        left = [e for e in v.evidence if e.label == "left" and e.k == 1][0]
        for crossing in left.crossings:
            M = F(int(crossing.threshold))
            want = next(n for n in range(1, 300) if F(2 ** (n + 1) - 2, n) >= M)
            assert crossing.first_n == want

    def test_unit_weights_bounded(self):
        op = ShiftOperator("backward", constant_weights(1), preset("c0_Z"))
        v = check_criterion(op, "ae", CFG)
        assert v.kind is VerdictKind.BOUNDED_WITNESS
        assert all(e.bound_log2 == 0.0 for e in v.evidence)

    def test_blocks_both_branches(self, build4, blocks_op):
        v = check_criterion(blocks_op, "ae", blocks_cfg(build4))
        assert v.certified and v.branch == "both"

    def test_forward_doubling(self):
        op = ShiftOperator("forward", constant_weights(2), preset("lp_Z", 1))
        v = check_criterion(op, "ae", CFG)
        assert v.certified and v.branch == "left"

    def test_forward_unit_bounded(self):
        op = ShiftOperator("forward", constant_weights(1), preset("lp_Z", 1))
        assert check_criterion(op, "ae", CFG).kind is VerdictKind.BOUNDED_WITNESS

    def test_s_Z_unweighted_polynomial_averages(self):
        op = ShiftOperator("forward", constant_weights(1), preset("s_Z"))
        cfg = HorizonConfig(n_max=2048, window=64, m_grid=(1, 2, 4, 16, 64), k_max=2)
        v = check_criterion(op, "ae", cfg)
        assert v.certified
        # polynomial-sum oracle at k = 1: averages (1/n) sum (j+1) = (n+3)/2
        left = [e for e in v.evidence if e.label == "left" and e.k == 1][0]
        for crossing in left.crossings:
            M = F(int(crossing.threshold))
            want = next(n for n in range(1, 5000) if F(n + 3, 2) >= M)
            assert crossing.first_n == want

    def test_halfline_vanishing_left_terms(self):
        op = ShiftOperator("backward", constant_weights(1), preset("halfline_Z"))
        v = check_criterion(op, "ae", CFG)
        assert v.kind is VerdictKind.BOUNDED_WITNESS

    def test_wrong_direction_rejected(self):
        # ae, ue and mixing need a bilateral shift, mixing a backward one too
        cases = [(c, side, "c0_N") for c in ("ae", "ue", "mixing")
                 for side in ("backward", "forward")] + [("mixing", "forward", "c0_Z")]
        for criterion, side, space in cases:
            op = ShiftOperator(side, constant_weights(2), preset(space))
            message = f"criterion '{criterion}' needs a bilateral"
            with pytest.raises(InvalidSpecError, match=message):
                check_criterion(op, criterion, CFG)

    def test_determinism(self, build4, blocks_op):
        cfg = blocks_cfg(build4)
        a = check_criterion(blocks_op, "ae", cfg).to_json()
        b = check_criterion(blocks_op, "ae", cfg).to_json()
        assert a == b

    def test_monotone_evidence_in_n_max(self):
        op = ShiftOperator("backward", constant_weights(2), preset("c0_Z"))
        small = check_criterion(op, "ae", CFG)
        big = check_criterion(
            op, "ae", HorizonConfig(n_max=CFG.n_max * 4, window=CFG.window,
                                    m_grid=CFG.m_grid, k_max=CFG.k_max))
        assert small.certified and big.certified
        for e1, e2 in zip(small.evidence, big.evidence):
            assert [c.first_n for c in e1.crossings] == [c.first_n for c in e2.crossings]

    def test_monotone_evidence_in_window(self):
        # attested window values are true extrema: widening the window moves
        # neither the certificates nor the crossing schedule
        op = ShiftOperator("forward", constant_weights(1), preset("s_Z"))
        base = HorizonConfig(n_max=100, window=500, m_grid=(1, 2, 4, 16), k_max=2)
        wide = HorizonConfig(n_max=100, window=900, m_grid=(1, 2, 4, 16), k_max=2)
        v1 = check_criterion(op, "ue", base)
        v2 = check_criterion(op, "ue", wide)
        assert v1.property_label == v2.property_label == "C" and v1.certified and v2.certified
        c1 = [(e.label, [c.first_n for c in e.crossings]) for e in v1.evidence if e.certified]
        c2 = [(e.label, [c.first_n for c in e.crossings]) for e in v2.evidence if e.certified]
        assert c1 == c2


class TestAvgPosExpansive:
    def test_branch_duality(self, build4, blocks_op):
        cfg = blocks_cfg(build4)
        for op in (ShiftOperator("backward", constant_weights(2), preset("c0_Z")),
                   ShiftOperator("backward", constant_weights(F(1, 2)), preset("c0_Z")),
                   blocks_op):
            use = cfg if op is blocks_op else CFG
            full = check_criterion(op, "ae", use)
            left = check_criterion(op, "ape", use)
            right = check_criterion(op, "ape-inverse", use)
            assert left.certified == (full.branch in ("left", "both"))
            assert right.certified == (full.branch in ("right", "both"))

    def test_blocks_certified_both_sides(self, build4, blocks_op):
        cfg = blocks_cfg(build4)
        assert check_criterion(blocks_op, "ape", cfg).certified
        assert check_criterion(blocks_op, "ape-inverse", cfg).certified

    def test_unit_weights_bounded(self):
        op = ShiftOperator("backward", constant_weights(1), preset("c0_Z"))
        assert check_criterion(op, "ape", CFG).kind is VerdictKind.BOUNDED_WITNESS

    def test_unilateral_forward(self):
        op = ShiftOperator("forward", constant_weights(2), preset("lp_N", 1))
        v = check_criterion(op, "ape", CFG)
        assert v.certified
        # terms 2^{j-1}: averages (2^n - 1)/n
        ev = v.evidence[0]
        for crossing in ev.crossings:
            M = F(int(crossing.threshold))
            want = next(n for n in range(1, 300) if F(2 ** n - 1, n) >= M)
            assert crossing.first_n == want

    def test_unilateral_backward_never(self):
        op = ShiftOperator("backward", constant_weights(2), preset("lp_N", 1))
        v = check_criterion(op, "ape", CFG)
        assert v.kind is VerdictKind.BOUNDED_WITNESS


def _avg_n_eff_loop(op, cfg):
    """The step-by-step search _avg_n_eff's closed form replaced: from n_max
    down, the first n whose branch terms read only weights in the table's
    reach (w(-n+1..n) backward, w(-n..n-1) forward, w(1..n-1) on a
    unilateral forward shift)."""
    if op.direction == "backward":
        need_lo, need_hi = (lambda n: -n + 1), (lambda n: n)
    elif op.bilateral:
        need_lo, need_hi = (lambda n: -n), (lambda n: n - 1)
    else:
        need_lo, need_hi = (lambda n: 1), (lambda n: n - 1)
    reach = op.weights.defined_range()
    n = cfg.n_max
    if reach is None:
        return n
    lo, hi = reach
    while n >= 1 and not (need_lo(n) >= lo and need_hi(n) <= hi):
        n -= 1
    if n < 1:
        raise InvalidSpecError("weight table too small for the requested horizon")
    return n


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.none(), st.tuples(st.integers(-12, 12), st.integers(0, 30))),
       st.integers(1, 40), st.sampled_from(["backward", "forward"]),
       st.sampled_from(["c0_Z", "c0_N"]))
@example((1, 3), 9, "forward", "c0_N")  # a unilateral table from 1 is cut at hi + 1
@example((2, 3), 9, "forward", "c0_N")  # one from 2 misses w(1)
def test_avg_n_eff_closed_form_matches_the_loop(reach, n_max, direction, space):
    # reach None: constant weights, defined everywhere; else a table on
    # [lo, lo + width]
    weights = (constant_weights(2) if reach is None
               else table_weights({j: 2 for j in range(reach[0], sum(reach) + 1)}))
    op = ShiftOperator(direction, weights, preset(space))
    cfg = HorizonConfig(n_max=n_max, window=8)
    try:
        want = _avg_n_eff_loop(op, cfg)
    except InvalidSpecError as exc:
        with pytest.raises(InvalidSpecError) as got:
            _avg_n_eff(op, cfg)
        assert str(got.value) == str(exc)
        return
    assert _avg_n_eff(op, cfg) == want


class TestUnifExpansiveForward:
    def test_doubling_is_A(self):
        op = ShiftOperator("forward", constant_weights(2), preset("lp_Z", 2))
        v = check_criterion(op, "ue", CFG)
        assert v.property_label == "A" and v.certified
        # ratio 2^n: the level-1 inf curve crossings are exact
        ev = [e for e in v.evidence if e.label == "A:Z" and e.k == 1][0]
        assert ev.level == 1
        for crossing in ev.crossings:
            M = int(crossing.threshold)
            want = next(n for n in range(1, 100) if 2 ** n >= M)
            assert crossing.first_n == want

    def test_halving_is_B(self):
        op = ShiftOperator("forward", constant_weights(F(1, 2)), preset("lp_Z", 2))
        v = check_criterion(op, "ue", CFG)
        assert v.property_label == "B" and v.certified

    def test_halfline_is_A(self):
        op = ShiftOperator("forward", constant_weights(2), preset("halfline_Z"))
        v = check_criterion(op, "ue", CFG)
        assert v.property_label == "A"
        assert all(e.level == e.k for e in v.evidence if e.certified)

    def test_s_Z_is_C_with_next_level(self):
        op = ShiftOperator("forward", constant_weights(1), preset("s_Z"))
        cfg = HorizonConfig(n_max=1200, window=1000, m_grid=(1, 2, 4, 16, 256), k_max=3)
        v = check_criterion(op, "ue", cfg)
        assert v.property_label == "C"
        certified = [e for e in v.evidence if e.certified]
        assert certified and all(e.level == e.k + 1 for e in certified)

    def test_s_Z_window_inf_value(self):
        # direct minimization oracle: at k=1, l=2, n=3 the positive-split
        # infimum is (j+n+1)^2/(j+1) minimized at j=2: 36/3 = 12
        import math

        from shiftlab.criteria import _ue_curve

        op = ShiftOperator("forward", constant_weights(1), preset("s_Z"))
        cfg = HorizonConfig(n_max=10, window=100, m_grid=(1,), k_max=1)
        curve, usable = _ue_curve(op, 1, 2, "N", "A", cfg, 10)
        brute = min(F((j + 3 + 1) ** 2, j + 1) for j in range(1, 101))
        assert brute == 12
        assert curve[2] == pytest.approx(math.log2(12), rel=1e-12)
        assert usable[2]

    def test_s_Z_window_inf_dominates_n(self):
        from shiftlab.criteria import _ue_curve
        import math

        op = ShiftOperator("forward", constant_weights(1), preset("s_Z"))
        cfg = HorizonConfig(n_max=100, window=1000, m_grid=(1,), k_max=3)
        for k in (1, 2, 3):
            curve, usable = _ue_curve(op, k, k + 1, "N", "A", cfg, 100)
            for n in range(1, 101):
                assert curve[n - 1] >= math.log2(n) - 1e-9
                assert usable[n - 1]

    def test_empty_support_split_certifies_immediately(self):
        # halfline at k=1 has no negative support: the (-N)-split infimum is
        # over the empty set, +inf by convention, so it crosses at n = 1
        import numpy as np

        from shiftlab.criteria import _ue_curve

        op = ShiftOperator("forward", constant_weights(2), preset("halfline_Z"))
        cfg = HorizonConfig(n_max=8, window=50, m_grid=(1,), k_max=1)
        curve, usable = _ue_curve(op, 1, 1, "-N", "B", cfg, 8)
        assert np.all(np.isinf(curve)) and np.all(usable)

    def test_blocks_has_no_regime(self, build4):
        op = ShiftOperator("forward", build4.weights, preset("c0_Z"))
        cfg = HorizonConfig(n_max=256, window=300, m_grid=(1, 2, 4), k_max=2)
        v = check_criterion(op, "ue", cfg)
        assert v.property_label == "none" and not v.certified


class TestUnifExpansiveBackward:
    def test_doubling_is_a_and_upe(self):
        op = ShiftOperator("backward", constant_weights(2), preset("lp_Z", 2))
        v = check_criterion(op, "ue", CFG)
        assert v.property_label == "a" and v.certified
        assert any("uniformly positively expansive" in note for note in v.notes)

    def test_halving_is_b(self):
        op = ShiftOperator("backward", constant_weights(F(1, 2)), preset("lp_Z", 2))
        v = check_criterion(op, "ue", CFG)
        assert v.property_label == "b" and v.certified

    def test_blocks_none(self, build4, blocks_op):
        cfg = blocks_cfg(build4, n_max=512)
        v = check_criterion(blocks_op, "ue", cfg)
        assert v.property_label == "none" and not v.certified


class TestUnifPosExpansive:
    def test_forward_doubling(self):
        op = ShiftOperator("forward", constant_weights(2), preset("lp_Z", 2))
        assert check_criterion(op, "upe", CFG).certified

    def test_backward_doubling_via_regime_a(self):
        op = ShiftOperator("backward", constant_weights(2), preset("lp_Z", 2))
        v = check_criterion(op, "upe", CFG)
        assert v.certified and v.property_label == "a"

    def test_s_Z_not_upe(self):
        op = ShiftOperator("forward", constant_weights(1), preset("s_Z"))
        cfg = HorizonConfig(n_max=1200, window=1000, m_grid=(1, 2, 4, 16, 256), k_max=3)
        v = check_criterion(op, "upe", cfg)
        assert not v.certified

    def test_unilateral_tripling(self):
        op = ShiftOperator("forward", constant_weights(3), preset("lp_N", 1))
        v = check_criterion(op, "upe", CFG)
        assert v.certified

    def test_unilateral_backward_never(self):
        op = ShiftOperator("backward", constant_weights(3), preset("lp_N", 1))
        v = check_criterion(op, "upe", CFG)
        assert v.kind is VerdictKind.BOUNDED_WITNESS


class TestBasisDiagnostic:
    def test_doubling_certified(self):
        op = ShiftOperator("backward", constant_weights(2), preset("lp_Z", 1))
        v = check_criterion(op, "e", CFG)
        assert v.certified
        assert any("diagnostic" in note for note in v.notes)

    def test_unit_weights_bounded(self):
        op = ShiftOperator("backward", constant_weights(1), preset("lp_Z", 1))
        v = check_criterion(op, "e", CFG)
        assert v.kind is VerdictKind.BOUNDED_WITNESS

    def test_blocks_certified(self, build4, blocks_op):
        v = check_criterion(blocks_op, "e", blocks_cfg(build4, n_max=4000))
        assert v.certified


class TestMixing:
    def test_halving_not_mixing(self):
        op = ShiftOperator("backward", constant_weights(F(1, 2)), preset("c0_Z"))
        v = check_criterion(op, "mixing", CFG)
        assert v.property_label == "not-mixing"
        # the left sequence does certify null; only the right one blocks
        left = [e for e in v.evidence if e.label == "null:left" and e.k == 1][0]
        right = [e for e in v.evidence if e.label == "null:right" and e.k == 1][0]
        assert left.certified and not right.certified

    def test_blocks_not_mixing_to_full_horizon(self, build4, blocks_op):
        v = check_criterion(blocks_op, "mixing", blocks_cfg(build4))
        assert v.property_label == "not-mixing"

    def test_piecewise_doubling_halving(self):
        # w = 2 on j <= 0 and 1/2 on j >= 1: left terms 2^j block mixing
        table = {j: F(2) for j in range(-64, 1)}
        table.update({j: F(1, 2) for j in range(1, 65)})
        op = ShiftOperator("backward", table_weights(table, tail="hold"), preset("c0_Z"))
        cfg = HorizonConfig(n_max=60, window=32, m_grid=(1, 2, 4, 16), k_max=1)
        v = check_criterion(op, "mixing", cfg)
        assert v.property_label == "not-mixing"

    def test_exclusion_on_certified_family(self, build4, blocks_op):
        cfg = blocks_cfg(build4)
        assert check_criterion(blocks_op, "ae", cfg).certified
        v = check_criterion(blocks_op, "mixing", cfg)
        assert v.property_label != "mixing"
        # per level: never both sides certified null
        for k in range(1, cfg.k_max + 1):
            sides = {e.label: e.certified for e in v.evidence if e.k == k}
            assert not (sides["null:left"] and sides["null:right"])


class TestTraces:
    def test_average_trace_closed_form(self):
        import math

        from shiftlab import _kernels
        from shiftlab.criteria import _avg_term_logs

        op = ShiftOperator("backward", constant_weights(2), preset("c0_Z"))
        averages = _kernels.running_log2_average(_avg_term_logs(op, 1, "left", 40))
        for n in (1, 5, 20, 40):
            want = math.log2((2 ** (n + 1) - 2) / n)
            assert averages[n - 1] == pytest.approx(want, rel=1e-12)

    def test_window_infimum_trace_matches_checker_route(self):
        from shiftlab.criteria import _ue_curve

        op = ShiftOperator("forward", constant_weights(2), preset("lp_Z", 2))
        cfg = HorizonConfig(n_max=30, window=16, m_grid=(1,))
        curve, _ = _ue_curve(op, 1, 1, "Z", "A", cfg, 30)
        for n in range(1, 31):
            assert curve[n - 1] == pytest.approx(float(n), abs=1e-12)


class TestHonestNonCertification:
    def test_halfline_shrinking_forward_has_no_regime(self):
        # mass drains into the dead zone: no uniform regime can certify
        op = ShiftOperator("forward", constant_weights(F(1, 2)), preset("halfline_Z"))
        v = check_criterion(op, "ue", CFG)
        assert v.property_label == "none" and not v.certified

    def test_signed_geometric_collapses_both_branches(self):
        from shiftlab.shifts import geometric_weights

        # w_j = (3/2)^j: both branch products vanish superexponentially, so
        # nothing certifies, and without a tail attestation the bounded side
        # stays honest rather than claimed
        op = ShiftOperator("backward", geometric_weights(1, F(3, 2)), preset("c0_Z"))
        cfg = HorizonConfig(n_max=128, window=32, m_grid=(1, 2, 4, 16), k_max=1)
        assert check_criterion(op, "ae", cfg).kind is VerdictKind.INCONCLUSIVE

    def test_abs_geometric_avg_certifies_without_attestation(self):
        from shiftlab.shifts import geometric_weights

        # w_j = 2^{|j|}: left products 2^{j(j-1)/2} grow, and average sums
        # are complete (no tail attestation needed to certify); the uniform
        # checks stay inconclusive for unattested weight families
        op = ShiftOperator("backward", geometric_weights(1, 2, abs_index=True),
                           preset("c0_Z"))
        cfg = HorizonConfig(n_max=128, window=32, m_grid=(1, 2, 4, 16), k_max=1)
        assert check_criterion(op, "ae", cfg).certified
        v = check_criterion(op, "ue", cfg)
        assert v.kind is VerdictKind.INCONCLUSIVE
        assert any("attestation" in note for note in v.notes)


class TestHierarchy:
    def test_doubling_all_certified(self):
        op = ShiftOperator("backward", constant_weights(2), preset("lp_Z", 2))
        rep = hierarchy_audit(op, CFG)
        assert rep.consistent
        assert rep.ue.certified and rep.ae.certified and rep.e_diag.certified

    def test_blocks_one_directional(self, build4, blocks_op):
        rep = hierarchy_audit(blocks_op, blocks_cfg(build4, n_max=4000))
        assert rep.consistent
        assert not rep.ue.certified and rep.ae.certified and rep.e_diag.certified

    def test_unit_weights_nothing(self):
        op = ShiftOperator("backward", constant_weights(1), preset("lp_Z", 2))
        rep = hierarchy_audit(op, CFG)
        assert rep.consistent
        assert not rep.ue.certified and not rep.ae.certified and not rep.e_diag.certified


def _ue_curve_two_pass(op, k, level, split, form, cfg, n_eff):
    """The two-pass tail-edge check: the kernel over the full mask, then
    again over the edge-trimmed mask, usable where the two agree."""
    from shiftlab import _kernels
    from shiftlab.criteria import _split_window

    m = op.space.matrix
    lo, hi, tail_edges = _split_window(op, split, cfg)
    ext_lo, ext_hi = (lo, hi + n_eff) if form == "A" else (lo - n_eff, hi)
    base = min(ext_lo, lo) - 1
    wlogs = op.weights.log2_window(base, max(ext_hi, hi) + 1)
    prefix = np.concatenate(([0.0], np.cumsum(wlogs)))
    la_k = m.log2_row(k, lo, hi)
    valid = la_k != -np.inf
    g = m.log2_row(level, ext_lo, ext_hi) + prefix[np.arange(ext_lo, ext_hi + 1) - base]
    h = la_k + prefix[np.arange(lo, hi + 1) - base]
    if form == "B":
        g, h, valid = g[::-1].copy(), h[::-1].copy(), valid[::-1].copy()
    if not valid.any():
        return np.full(n_eff, np.inf), np.ones(n_eff, dtype=bool)
    curve = _kernels.window_inf_curve(g, h, valid, n_eff)
    trimmed = valid.copy()
    edges = tail_edges if form == "A" else tuple({"lo": "hi", "hi": "lo"}[e] for e in tail_edges)
    nz = np.nonzero(trimmed)[0]
    for edge in edges:
        trimmed[nz[0] if edge == "lo" else nz[-1]] = False
    if not trimmed.any():
        return curve, np.zeros(n_eff, dtype=bool)
    curve2 = _kernels.window_inf_curve(g, h, trimmed, n_eff)
    return curve, curve2 == curve


def _single_support_space():
    # level 1 is nonzero at j = 3 only, so a window holds one valid index
    # and the edge-trimmed mask is empty
    rows = {j: [F(0), F(1)] for j in range(-20, 21)}
    rows[3] = [F(2, 3), F(5, 2)]
    return SpaceSpec(table_matrix(rows, -20, 20, tail="hold"), 0)


def _odd_table_weights():
    odd = (F(1, 3), F(5, 2), F(8, 3), F(3, 8), F(2, 5), F(2))
    return table_weights({j: odd[(j * j + 3 * j) % len(odd)] for j in range(-60, 61)},
                         tail="hold")


class TestUeCurveSinglePass:
    """_ue_curve runs the kernel once, on the edge-trimmed mask, and folds
    the tail-edge columns in afterwards; curve and usable must be bitwise
    the two-pass result."""

    CFG = HorizonConfig(n_max=40, window=12, m_grid=(1,), k_max=2)
    SPACES = {
        "c0_Z": lambda: preset("c0_Z"),
        "s_Z": lambda: preset("s_Z"),
        "halfline_Z": lambda: preset("halfline_Z"),
        "single": _single_support_space,
        "lp_N": lambda: preset("lp_N", 2),
        "s_N": lambda: SpaceSpec(PowerMatrix("N"), 1),
    }
    WEIGHTS = {"constant": lambda: constant_weights(F(5, 2)), "odd-table": _odd_table_weights}

    @pytest.mark.parametrize("weights", sorted(WEIGHTS))
    @pytest.mark.parametrize("space", sorted(SPACES))
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_matches_two_pass_bitwise(self, direction, space, weights):
        from shiftlab.criteria import _ue_curve

        op = ShiftOperator(direction, self.WEIGHTS[weights](), self.SPACES[space]())
        splits = ("Z", "N", "-N") if op.bilateral else ("N",)
        n_eff = 30
        for split in splits:
            for form in ("A", "B"):
                for k, level in ((1, 1), (1, 2), (2, 3)):
                    curve, usable = _ue_curve(op, k, level, split, form, self.CFG, n_eff)
                    want_curve, want_usable = _ue_curve_two_pass(
                        op, k, level, split, form, self.CFG, n_eff)
                    assert curve.tobytes() == want_curve.tobytes(), (split, form, k, level)
                    assert np.array_equal(usable, want_usable), (split, form, k, level)

    def test_single_valid_index_is_never_usable(self):
        from shiftlab.criteria import _ue_curve

        op = ShiftOperator("forward", constant_weights(2), _single_support_space())
        for split, form in (("Z", "A"), ("Z", "B"), ("N", "A"), ("N", "B")):
            curve, usable = _ue_curve(op, 1, 2, split, form, self.CFG, 30)
            assert np.all(np.isfinite(curve)) and not usable.any()


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty curve memo, and the list of kernel calls made through it."""
    from shiftlab import _kernels, criteria

    calls = []
    real = _kernels.window_inf_curve

    def counted(g, h, valid, n_max):
        calls.append(n_max)
        return real(g, h, valid, n_max)

    monkeypatch.setattr(criteria, "_curve_memo", {})
    monkeypatch.setattr(_kernels, "window_inf_curve", counted)
    return calls


def _grid(n_eff=6, width=9, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=width + n_eff)
    h = rng.normal(size=width)
    return g, h, np.ones(width, dtype=bool)


class TestCurveMemo:
    """_ue_curve sweeps each byte-distinct interior grid once; hits must be
    bitwise what the kernel returns and must not depend on call order."""

    CFG = HorizonConfig(n_max=40, window=12, m_grid=(1,), k_max=2)

    @pytest.mark.parametrize("space", [("lp_Z", 2), ("s_Z",), ("c0_Z",)])
    def test_warm_memo_matches_cold(self, cold_memo, space):
        from shiftlab.criteria import _ue_curve

        op = ShiftOperator("forward", constant_weights(F(5, 2)), preset(*space))
        args = [(k, level, split, form) for k, level in ((1, 1), (1, 2))
                for split in ("Z", "N", "-N") for form in ("A", "B")]
        cold = [_ue_curve(op, *a, self.CFG, 30) for a in args]
        swept = len(cold_memo)
        warm = [_ue_curve(op, *a, self.CFG, 30) for a in args]
        assert len(cold_memo) == swept  # 12 grids fit in the memo: all hits
        for (c_curve, c_usable), (w_curve, w_usable) in zip(cold, warm):
            assert w_curve.tobytes() == c_curve.tobytes()
            assert np.array_equal(w_usable, c_usable)

    def test_level_independent_rows_share_one_sweep(self, cold_memo):
        from shiftlab.criteria import _ue_curve

        op = ShiftOperator("forward", constant_weights(2), preset("lp_Z", 2))
        for k, level in ((1, 1), (1, 2), (2, 2), (2, 3)):
            _ue_curve(op, k, level, "Z", "A", self.CFG, 30)
        assert len(cold_memo) == 1

    def test_hits_are_read_only_and_unaffected_by_copies(self, cold_memo):
        from shiftlab import _kernels
        from shiftlab.criteria import _interior_curve, _ue_curve

        g, h, valid = _grid()
        first = _interior_curve(g, h, valid, 6)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        mine = first.copy()
        mine[:] = 7.0
        again = _interior_curve(g, h, valid, 6)
        assert len(cold_memo) == 1
        assert again.tobytes() == _kernels.window_inf_curve(g, h, valid, 6).tobytes()
        op = ShiftOperator("forward", constant_weights(2), preset("s_Z"))
        curve, usable = _ue_curve(op, 1, 2, "Z", "A", self.CFG, 30)
        want = curve.tobytes(), usable.tobytes()
        curve[:], usable[:] = 0.0, False
        curve, usable = _ue_curve(op, 1, 2, "Z", "A", self.CFG, 30)
        assert (curve.tobytes(), usable.tobytes()) == want

    def test_byte_distinct_inputs_miss(self, cold_memo):
        from shiftlab import _kernels
        from shiftlab.criteria import _interior_curve

        g, h, valid = _grid()
        h[4] = 0.0
        _interior_curve(g, h, valid, 6)
        negative_zero = h.copy()
        negative_zero[4] = -0.0
        _interior_curve(g, negative_zero, valid, 6)
        assert len(cold_memo) == 2
        holed = valid.copy()
        holed[5] = False
        got = _interior_curve(g, h, holed, 6)
        assert len(cold_memo) == 3
        _interior_curve(g, h, valid, 5)
        assert len(cold_memo) == 4
        assert got.tobytes() == _kernels.window_inf_curve(g, h, holed, 6).tobytes()

    def test_memo_is_bounded_and_evicts_the_oldest(self, cold_memo):
        from shiftlab import criteria

        bound = criteria._CURVE_MEMO_SIZE
        grids = [_grid(seed=s) for s in range(bound + 3)]
        for grid in grids:
            criteria._interior_curve(*grid, 6)
            assert len(criteria._curve_memo) <= bound
        assert len(cold_memo) == bound + 3
        criteria._interior_curve(*grids[-1], 6)  # newest: a hit
        assert len(cold_memo) == bound + 3
        criteria._interior_curve(*grids[0], 6)  # oldest: evicted, swept again
        assert len(cold_memo) == bound + 4

    def test_reports_do_not_depend_on_run_order(self, tmp_path):
        from shiftlab.cli import EXIT_OK, main

        args = ["check", "--weights", "constant:2", "--criterion", "ue", "--n-max", "64",
                "--window", "32", "--m-grid", "1,2,4,16", "--no-timestamp"]
        spaces = ("lp_Z:2", "c0_Z", "halfline_Z")  # lp_Z and c0_Z sweep the same grids
        for space in spaces:
            out = tmp_path / f"fresh-{space}.json"
            _python("-m", "shiftlab.cli", *args, "--space", space, "--out", str(out))
        for order in (spaces, spaces[::-1]):
            for space in order:
                out = tmp_path / "in-process.json"
                assert main(args + ["--space", space, "--out", str(out)]) == EXIT_OK
                assert out.read_bytes() == (tmp_path / f"fresh-{space}.json").read_bytes()


def _python(*args) -> str:
    """stdout of a fresh interpreter that imports shiftlab from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src}).stdout


def test_cli_import_loads_no_hashlib():
    # the curve memo keys on raw bytes; hashlib would load OpenSSL (+4 MiB RSS)
    code = "import sys, shiftlab.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    assert _python("-c", code).strip() == "[]"


# Prints the log-lane modules loaded after a bare `import shiftlab`, then after
# each command line (a JSON list in argv[2]) run through cli.main.
LANE_PROBE = """
import json, sys
import shiftlab

def loaded():
    lane = {"numpy", "shiftlab._kernels", "shiftlab.criteria", "shiftlab.algebra"}
    print(json.dumps(sorted(lane & set(sys.modules))))

loaded()
from shiftlab.cli import main
for i, args in enumerate(json.loads(sys.argv[2])):
    assert main([*args, "--no-timestamp", "--out", f"{sys.argv[1]}/{i}"]) == 0
    loaded()
"""


def test_exact_lane_loads_no_log_lane(tmp_path):
    # synthesize and density run on Fractions alone; check needs the log lane,
    # so the last line shows that the probe sees it load
    runs = [["synthesize", "--blocks", "2"],
            ["density", "--weights", "blocks:2", "--format", "csv"],
            ["density", "--weights", "blocks:2", "--format", "json"],
            ["check", "--space", "lp_Z:2", "--weights", "constant:2", "--criterion", "ue",
             "--n-max", "64", "--window", "16"]]
    out = _python("-c", LANE_PROBE, str(tmp_path), json.dumps(runs))
    assert [json.loads(line) for line in out.splitlines()] == [
        [], [], [], [], ["numpy", "shiftlab._kernels", "shiftlab.criteria"]]


class TestSearchStopsWhenDecided:
    """No uniform regime certifies without a tail attestation, so an
    unattested check sweeps no window-infimum curve."""

    CFG = HorizonConfig(n_max=200, window=20, m_grid=(1, 2, 4), k_max=3)

    @pytest.mark.parametrize("criterion", ["ue", "upe", "hierarchy"])
    @pytest.mark.parametrize("side", ["backward", "forward"])
    @pytest.mark.parametrize("space, weights", [("s_Z", "geometric:1:2"), ("c0_Z", "blocks:3")])
    def test_unattested_pair_sweeps_no_curve(self, cold_memo, space, weights, side, criterion):
        from shiftlab.shifts import parse_weights
        from shiftlab.spaces import parse_space

        op = ShiftOperator(side, parse_weights(weights), parse_space(space))
        if criterion == "hierarchy":
            ue = hierarchy_audit(op, self.CFG).ue
        else:
            ue = check_criterion(op, criterion, self.CFG)
        assert cold_memo == []
        assert ue.kind is VerdictKind.INCONCLUSIVE
        assert [(ev.k, ev.level, ev.certified) for ev in ue.evidence] == [
            (1, None, False)] * len(ue.evidence)

    def test_attested_pair_sweeps(self, cold_memo):
        op = ShiftOperator("backward", constant_weights(2), preset("lp_Z", 2))
        assert check_criterion(op, "ue", self.CFG).certified
        assert cold_memo
