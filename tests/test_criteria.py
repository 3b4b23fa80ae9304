import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shiftlab import criteria, shifts
from shiftlab.blocks import build_blocks
from shiftlab.criteria import (
    CROSS_EPS,
    Crossing,
    HorizonConfig,
    VerdictKind,
    _first_crossings,
    _orbit_log2,
    _walk_n_eff,
    check_criterion,
    hierarchy_audit,
)
from shiftlab.shifts import (
    ShiftOperator,
    UndefinedWeightError,
    basis_orbit_norm,
    constant_weights,
    geometric_weights,
    parse_weights,
    table_weights,
)
from shiftlab.spaces import (
    InvalidSpecError,
    PowerMatrix,
    SpaceSpec,
    parse_space,
    preset,
    table_matrix,
)
from test_kernels import ue_curve_reference

F = Fraction
CFG = HorizonConfig(n_max=256, window=128, m_grid=(1, 2, 4, 16, 2 ** 10), k_max=2,
                    basis_window=8)


@pytest.fixture(scope="module")
def build4():
    return build_blocks(4)


@pytest.fixture(scope="module")
def blocks_op(build4):
    return ShiftOperator("backward", build4, preset("c0_Z"))


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

    @pytest.mark.parametrize("grid", [(1,), (F(1, 2), 1), (F(1, 4),)], ids=str)
    def test_grid_needs_a_threshold_above_1(self, grid):
        # a ratio that reaches only M <= 1 shows no growth, so regimes A, B
        # and C of ue could all certify at once
        with pytest.raises(InvalidSpecError, match="m_grid needs a threshold above 1"):
            HorizonConfig(m_grid=grid)
        HorizonConfig(m_grid=grid + (F(3, 2),))


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


def _walk_n_eff_loop(op, cfg, radius):
    """The step-by-step search _walk_n_eff solves in closed form: from n_max
    down, the first n whose walks from the window ([-r, r], or [1, r] on a
    unilateral shift) read only weights in the table's reach: w(-r-n+1..r+n)
    backward, w(-r-n..r+n-1) forward and w(1..r+n-1) on a unilateral forward
    shift (radius 0: the averages' n - 1 steps from e_1); None when none
    does."""
    if op.direction == "backward":
        need_lo, need_hi = (lambda n: -radius - n + 1), (lambda n: radius + n)
    elif op.bilateral:
        need_lo, need_hi = (lambda n: -radius - n), (lambda n: radius + n - 1)
    else:
        need_lo, need_hi = (lambda n: 1), (lambda n: radius + n - 1)
    reach = op.weights.defined_range()
    n = cfg.n_max
    if reach is None:
        return n
    lo, hi = reach
    while n >= 1 and not (need_lo(n) >= lo and need_hi(n) <= hi):
        n -= 1
    return n if n >= 1 else None


def _reach_weights(reach):
    """reach None: constant weights, defined everywhere; else an 'error'
    table on [lo, lo + width]."""
    return (constant_weights(2) if reach is None
            else table_weights({j: 2 for j in range(reach[0], sum(reach) + 1)}))


REACHES = st.one_of(st.none(), st.tuples(st.integers(-80, 60), st.integers(0, 200)))


@settings(max_examples=400, deadline=None)
@given(REACHES, st.integers(1, 40), st.sampled_from([0, 1, 7, 50]),
       st.sampled_from([("backward", "c0_Z"), ("forward", "c0_Z"), ("forward", "c0_N")]))
@example((1, 3), 9, 0, ("forward", "c0_N"))  # a unilateral table from 1 is cut at hi + 1
@example((2, 3), 9, 0, ("forward", "c0_N"))  # one from 2 misses w(1)
@example((-80, 200), 40, 50, ("backward", "c0_Z"))  # radius 50 leaves 31 steps below
def test_walk_n_eff_closed_form_matches_the_loop(reach, n_max, radius, shift):
    op = ShiftOperator(shift[0], _reach_weights(reach), preset(shift[1]))
    cfg = HorizonConfig(n_max=n_max, window=8)
    want = _walk_n_eff_loop(op, cfg, radius)
    assert _walk_n_eff(op, cfg, radius) == want
    if radius == 0 and want is None:  # the averages keep their message
        with pytest.raises(InvalidSpecError) as got:
            check_criterion(op, "ape", cfg)
        assert str(got.value) == "weight table too small for the requested horizon"


def _walks_read_inside(op, radius, n):
    """Whether the orbit walks of n steps from every basis index within
    radius read only weights of the table, which raises otherwise."""
    try:
        for j0 in range(-radius if op.bilateral else 1, radius + 1):
            next(_orbit_log2(op, j0, [1], n))
    except UndefinedWeightError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(REACHES, st.integers(1, 40), st.sampled_from([1, 7, 50]),
       st.sampled_from(["backward", "forward"]), st.sampled_from(["c0_Z", "c0_N"]))
@example((2, 5), 40, 7, "backward", "c0_N")  # w(2..7) holds every walk from e_1..e_7
@example((3, 60), 40, 7, "backward", "c0_N")  # a table from 3 misses w(2), read by T e_2
@example((-80, 100), 40, 7, "forward", "c0_Z")  # the table's top binds
@example((-30, 150), 40, 7, "backward", "c0_Z")  # its bottom binds
def test_walk_n_eff_is_the_longest_walk_inside_the_table(reach, n_max, radius,
                                                        direction, space):
    op = ShiftOperator(direction, _reach_weights(reach), preset(space))
    n = _walk_n_eff(op, HorizonConfig(n_max=n_max, window=8), radius)
    assert n is None or _walks_read_inside(op, radius, n)
    if (n or 0) < n_max:
        assert not _walks_read_inside(op, radius, (n or 0) + 1)
    if direction == "backward" and space == "c0_N":
        # B e_1 = 0, so T^n e_j reads w(j..2) at any n: the walks from [1, r]
        # read w(2..r), and either all n_max steps fit or none does
        fits = radius < 2 or reach is None or reach[0] <= 2 and radius <= sum(reach)
        assert n == (n_max if fits else None)


def test_unilateral_backward_walks_stop_where_the_orbit_dies():
    # a table of 2s on [1, 200] holds every weight the orbits of e_1..e_50
    # meet before B e_1 = 0 ends them, so e reads it as it reads constant 2s
    # up to the horizon; the bounds are set aside, since constant weights
    # are attested and an error table is not
    cfg = HorizonConfig(n_max=100)

    def evidence(weights):
        verdict = check_criterion(ShiftOperator("backward", weights, preset("c0_N")), "e", cfg)
        return [replace(ev, bound_log2=None, attestation=None) for ev in verdict.evidence]

    got = evidence(table_weights({j: 2 for j in range(1, 201)}))
    assert {ev.n_eff for ev in got} == {100}
    assert got == evidence(constant_weights(2))


class TestFirstCrossings:
    # log2 values against the thresholds M = 1 and M = 4 (log2 M = 0 and 2)
    GRID = (1, 4)

    @staticmethod
    def firsts(curve, usable=None):
        crossings, certified = _first_crossings(np.array(curve), TestFirstCrossings.GRID,
                                                None if usable is None else np.array(usable))
        return [c.first_n for c in crossings], certified

    def test_a_sup_keeps_its_first_crossing(self):
        assert self.firsts([0.5, 2.5, 1.0, 2.5, 3.0]) == ([1, 2], True)

    def test_a_limit_counts_after_the_last_usable_step_below(self):
        assert self.firsts([0.5, 2.5, 1.0, 2.5, 3.0], [True] * 5) == ([1, 4], True)

    def test_a_curve_that_crosses_and_falls_back_is_not_certified(self):
        assert self.firsts([0.5, 2.5, 3.0, 1.0], [True] * 4) == ([1, None], False)

    def test_an_unusable_dip_does_not_refute(self):
        assert self.firsts([0.5, 2.5, 1.0, 2.5, 3.0],
                           [True, True, False, True, True]) == ([1, 2], True)

    def test_an_unusable_crossing_does_not_confirm(self):
        assert self.firsts([0.5, 2.5, 3.0], [True, True, False]) == ([1, 2], True)
        assert self.firsts([0.5, 1.0, 3.0], [True, True, False]) == ([1, None], False)

    def test_a_sup_from_step_zero_reports_the_step(self):
        crossings, _ = _first_crossings(np.array([0.0, 2.5]), self.GRID, n0=0)
        assert [c.first_n for c in crossings] == [0, 1]


def _first_crossings_loop(values, m_grid, usable=None):
    """Reference for _first_crossings: one mask per threshold."""
    crossings = []
    for m in m_grid:
        mask = values >= math.log2(float(m)) - CROSS_EPS
        if usable is not None:
            below = np.nonzero(usable & ~mask)[0]
            mask &= usable
            if below.size:
                mask[:below[-1] + 1] = False
        hit = np.nonzero(mask)[0]
        crossings.append(Crossing(float(m), int(hit[0]) + 1 if hit.size else None))
    return tuple(crossings), all(c.first_n is not None for c in crossings)


_CROSS_GRID = (1, 2, 3, 4, 1024)
# every threshold as the tie guard moves it, one ulp on either side of it, the
# threshold itself, and the ends of the curves' range
_CROSS_VALUES = sorted({v for m in _CROSS_GRID
                        for x in (math.log2(m) - CROSS_EPS,)
                        for v in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf),
                                  math.log2(m))} | {-math.inf, math.inf, -0.5, 11.0})


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_first_crossings_match_the_loop(data):
    values = np.array(data.draw(st.lists(st.sampled_from(_CROSS_VALUES), max_size=40)), float)
    usable = data.draw(st.one_of(
        st.none(), st.just(np.zeros(values.size, bool)),
        st.lists(st.booleans(), min_size=values.size, max_size=values.size).map(
            lambda flags: np.array(flags, bool))))
    grid = data.draw(st.permutations(_CROSS_GRID))
    assert _first_crossings(values, grid, usable) == _first_crossings_loop(values, grid, usable)


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
        cfg = HorizonConfig(n_max=10, window=100, m_grid=(1, 2), k_max=1)
        curve, usable = _ue_curve(op, 1, 2, "N", "A", cfg, 10)
        brute = min(F((j + 3 + 1) ** 2, j + 1) for j in range(1, 101))
        assert brute == 12
        assert curve[2] == pytest.approx(math.log2(12), rel=1e-12)
        assert usable[2]

    def test_s_Z_window_inf_dominates_n(self):
        from shiftlab.criteria import _ue_curve
        import math

        op = ShiftOperator("forward", constant_weights(1), preset("s_Z"))
        cfg = HorizonConfig(n_max=100, window=1000, m_grid=(1, 2), k_max=3)
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
        cfg = HorizonConfig(n_max=8, window=50, m_grid=(1, 2), k_max=1)
        curve, usable = _ue_curve(op, 1, 1, "-N", "B", cfg, 8)
        assert np.all(np.isinf(curve)) and np.all(usable)

    def test_blocks_has_no_regime(self, build4):
        op = ShiftOperator("forward", build4, preset("c0_Z"))
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

    @pytest.mark.parametrize("criterion", ["ue", "upe", "hierarchy"])
    def test_reads_the_shift_itself(self, criterion, monkeypatch):
        # the regimes are read off the shift's own walk sum, as ae and e read
        # it, not off its inverse rebuilt as a dual shift, whose weights
        # log2(1/w) round otherwise than -log2(w)
        def refuse(*args):
            raise AssertionError("a uniform criterion built the dual form")

        monkeypatch.setattr(shifts, "dual_form", refuse)
        monkeypatch.setattr(shifts.DualWeights, "_runs", refuse)
        op = ShiftOperator("backward", constant_weights(F(5, 2)), preset("lp_Z", 2))
        result = check_criterion(op, criterion, CFG)
        prop = result.ue_property if criterion == "hierarchy" else result.property_label
        assert prop == "a"


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


def test_uniform_certificates_hold_at_four_times_the_horizon():
    # a uniform certificate stands for a limit in n: every one made at a short
    # horizon keeps its regime at 4x that horizon, and no check certifies two
    # regimes (a regime holds when it has certified evidence at k_max)
    short = HorizonConfig(n_max=150, window=15, m_grid=(1, 2, 4))
    long = replace(short, n_max=4 * short.n_max)
    certified, moved = [], []
    for space, weights, side in product(("lp_Z:2", "c0_Z", "s_Z", "halfline_Z", "lp_N:2", "c0_N"),
                                        ("constant:2", "constant:1/2", "constant:1",
                                         "constant:5/2", "constant:2/3"),
                                        ("backward", "forward")):
        op = ShiftOperator(side, parse_weights(weights), parse_space(space))
        for criterion in ("ue", "upe") if op.bilateral else ("upe",):
            case = (space, weights, side, criterion)
            verdict = check_criterion(op, criterion, short)
            regimes = {ev.label.split(":")[0] for ev in verdict.evidence
                       if ev.certified and ev.k == short.k_max}
            assert len(regimes) <= 1, case
            if verdict.certified:
                certified.append(case)
                again = check_criterion(op, criterion, long)
                if not (again.certified and again.property_label == verdict.property_label):
                    moved.append((case, verdict.property_label, again.property_label))
    assert moved == []
    assert len(certified) == 46


@st.composite
def hold_tables(draw):
    """(lo, hi, rows) of a one-level hold matrix table of at most 6 runs of
    values in [1/4, 4]: inside [-20, 20], or wholly on one side of e_0, its
    near edge within 12 of it, so that walks leave it on one side first."""
    value = st.fractions(F(1, 4), F(4), max_denominator=8)
    runs = draw(st.lists(st.tuples(st.integers(1, 4), value), min_size=1, max_size=6))
    values = [v for length, v in runs for _ in range(length)]
    place = draw(st.sampled_from(["inside", "left", "right"]))
    if place == "inside":
        lo = draw(st.integers(-20, 20))
        values = values[:21 - lo]
    else:
        near = draw(st.integers(1, 12))
        lo = near if place == "right" else -near - len(values) + 1
    return lo, lo + len(values) - 1, {lo + i: [v] for i, v in enumerate(values)}


# F4: a(j, 1) = 2^-|j| on [-2, 2] falls faster than the weights 3/2 grow,
# so walks inside the table fall, and rise once they have left it
F4_TABLE = (-2, 2, {j: [F(1, 2 ** abs(j))] for j in range(-2, 3)})


@settings(max_examples=150, deadline=None)
@given(hold_tables(), st.sampled_from([F(1, 2), F(2, 3), F(1), F(3, 2), F(2)]),
       st.sampled_from(["backward", "forward"]), st.sampled_from(["ae", "ape", "e"]),
       st.integers(-12, 12))
@example(F4_TABLE, F(3, 2), "forward", "ape", 0)
@example(F4_TABLE, F(3, 2), "backward", "ae", 0)
@example((-100, 100, {j: [F(1, 2 ** abs(j))] for j in range(-100, 101)}),
         F(3, 2), "forward", "e", -50)
# the walk has left the table, but its last step rises: 6 at n = 1, then
# 9/16, 27/32, ..., 6561/1024 at n = 8
@example((1, 2, {1: [F(4)], 2: [F(1, 4)]}), F(3, 2), "forward", "ape", 3)
def test_hold_table_bounds_hold_past_the_table(table, c, side, criterion, past):
    # a hold table vouches for its profile only past its edges: every
    # stated bound, whatever the verdict, is the exact maximum of its
    # window's terms and at least every exact term up to four times past the
    # far table edge; the horizon ends up to 12 steps before or after it
    lo, hi, rows = table
    n_max = max(1, max(abs(lo), abs(hi)) + past)
    op = ShiftOperator(side, constant_weights(c), SpaceSpec(table_matrix(rows, lo, hi, "hold"), 1))
    cfg = HorizonConfig(n_max=n_max, window=4, m_grid=(2 ** 64,), k_max=1, basis_window=2)
    reach = max(n_max, 4 * (max(abs(lo), abs(hi)) + cfg.basis_window + 1))
    _assert_bounds_hold(op, check_criterion(op, criterion, cfg), criterion, n_max, reach)


def test_a_walk_past_its_own_edge_is_attested():
    # the forward walk from e_0 leaves a hold table of ones on [-100, 5] at
    # step 6 and halves at each step: ape bounds its terms by the first,
    # 1/2, though the horizon never reaches the table's far edge
    ones = table_matrix({j: [1] for j in range(-100, 6)}, -100, 5, "hold")
    op = ShiftOperator("forward", constant_weights(F(1, 2)), SpaceSpec(ones, 1))
    verdict = check_criterion(op, "ape", HorizonConfig(n_max=50, k_max=1))
    assert verdict.kind is VerdictKind.BOUNDED_WITNESS
    assert [ev.bound_log2 for ev in verdict.evidence] == [-1.0]
    _assert_bounds_hold(op, verdict, "ape", 50, 200)


def _assert_bounds_hold(op, verdict, criterion, n_max, reach):
    """Each stated bound is the exact maximum of its window's terms (the
    orbit norms of e_j for e, a branch's terms for ae and ape) and at least
    every exact term up to `reach` steps."""
    for ev in verdict.evidence:
        if ev.bound_log2 is None:
            continue
        j0 = int(ev.label[2:]) if criterion == "e" else 0
        sign = {"left": 1, "right": -1}.get(ev.label)
        window, beyond = ((range(sign, sign * (n + 1), sign) for n in (n_max, reach)) if sign
                          else (range(-n, n + 1) for n in (n_max, reach)))
        bound = max(basis_orbit_norm(op, j0, n, ev.k) for n in window)
        want = math.log2(bound) if bound else -math.inf
        assert ev.bound_log2 == pytest.approx(want, abs=1e-9), ev.label
        late = [n for n in beyond if basis_orbit_norm(op, j0, n, ev.k) > bound]
        assert late == [], (ev.label, late[:3])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["s_Z", "halfline_Z"]),
       st.sampled_from([F(1, 2), F(2, 3), F(1), F(11, 10), F(3, 2), F(2)]),
       st.sampled_from(["backward", "forward"]), st.sampled_from(["ae", "ape", "e"]),
       st.integers(5, 60), st.integers(1, 12), st.integers(1, 2))
# orbits of e_j, j < 0, that fall towards the kink of s_Z at 0 and rise past it
@example("s_Z", F(11, 10), "forward", "e", 45, 50, 1)
# orbits of e_j, j <= -21, that read 0 until they pass the step of halfline_Z
@example("halfline_Z", F(2), "forward", "e", 20, 50, 1)
def test_preset_bounds_hold_past_the_horizon(space, c, side, criterion, n_max, radius, k_max):
    # every stated bound, whatever the verdict, is at least every exact term
    # up to four times the horizon: a power or step row changes shape at its
    # edges (KotheMatrix.edges), so only walks past them are attested
    op = ShiftOperator(side, constant_weights(c), parse_space(space))
    cfg = HorizonConfig(n_max=n_max, window=4, m_grid=(2 ** 64,), k_max=k_max,
                        basis_window=radius)
    _assert_bounds_hold(op, check_criterion(op, criterion, cfg), criterion, n_max, 4 * n_max)


def test_hierarchy_is_consistent_over_presets_and_weight_families():
    # every bilateral preset x constant and geometric weights (coef and ratio
    # from {1/2, 1, 3/2, 2}, abs_index both ways) x both sides: the audit
    # never raises, no certificate sits above a BoundedWitness, and ue
    # certifies at most one regime
    cfg = HorizonConfig(n_max=150, window=15, m_grid=(1, 2, 4))
    steps = (F(1, 2), F(1), F(3, 2), F(2))
    weights = [parse_weights(w) for w in ("constant:2", "constant:1/2", "constant:1")]
    weights += [geometric_weights(c, r, abs_index) for c, r, abs_index
                in product(steps, steps, (False, True))]
    certified = []
    for space, w, side in product(("lp_Z:2", "c0_Z", "s_Z", "halfline_Z"), weights,
                                  ("backward", "forward")):
        case = (space, w.to_json(), side)
        report = check_criterion(ShiftOperator(side, w, parse_space(space)), "hierarchy", cfg)
        for upper, lower in ((report.ue, report.ae), (report.ae, report.e_diag)):
            assert not (upper.certified and lower.kind is VerdictKind.BOUNDED_WITNESS), case
        assert report.consistent, case
        regimes = {ev.label.split(":")[0] for ev in report.ue.evidence
                   if ev.certified and ev.k == cfg.k_max}
        assert len(regimes) <= 1, case
        if report.ue.certified:
            certified.append(case)
    # constant weights only: a geometric family has no tail attestation, even at ratio 1
    assert len(certified) == 16
    assert all(w["family"] == "constant" for _, w, _ in certified)


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

    def test_a_sup_rising_at_the_window_edge_gives_no_bound(self):
        # ||B^n e_j|| = c^n is unbounded; at n = 10 000 it has only reached e
        op = ShiftOperator("backward", constant_weights(F(10001, 10000)), preset("lp_Z", 2))
        v = check_criterion(op, "e", HorizonConfig(basis_window=2))
        assert v.kind is VerdictKind.INCONCLUSIVE
        assert all(e.bound_log2 is None and e.attestation is None for e in v.evidence)


@pytest.mark.parametrize("space", ["lp_Z:2", "c0_Z", "s_Z", "halfline_Z", "c0_N"])
@pytest.mark.parametrize("side", ["backward", "forward"])
@pytest.mark.parametrize("c", [F(2), F(1, 2)])
def test_basis_first_n_is_the_exact_orbit_step(space, side, c):
    # first_n is the least orbit step n >= 0 (n = 0 is ||e_j||_k itself) at
    # which max over m <= n of ||T^m e_j||_k, and of ||T^-m e_j||_k on a
    # bilateral space, reaches M, in Fractions
    op = ShiftOperator(side, constant_weights(c), parse_space(space))
    verdict = check_criterion(op, "e", HorizonConfig(n_max=40, basis_window=3))
    signs = (1, -1) if op.bilateral else (1,)
    for ev in verdict.evidence:
        j, sups = int(ev.label[2:]), []
        for n in range(ev.n_eff + 1):
            sups.append(max([*sups[-1:], *(basis_orbit_norm(op, j, s * n, ev.k) for s in signs)]))
        for cr in ev.crossings:
            want = next((n for n, sup in enumerate(sups) if sup >= F(cr.threshold)), None)
            assert cr.first_n == want, (ev.label, ev.k, cr.threshold)
            assert cr.first_n is None or cr.first_n <= ev.n_eff


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

    def test_weights_that_miss_e0_are_an_input_error(self):
        # an error table on [5, 10] holds no weight of the walks from e_0
        op = ShiftOperator("backward", table_weights({j: 2 for j in range(5, 11)}), preset("c0_Z"))
        with pytest.raises(InvalidSpecError, match="weight table too small for the requested horizon"):
            check_criterion(op, "mixing", HorizonConfig(n_max=8, window=4))

    def test_exclusion_on_certified_family(self, build4, blocks_op):
        cfg = blocks_cfg(build4)
        assert check_criterion(blocks_op, "ae", cfg).certified
        v = check_criterion(blocks_op, "mixing", cfg)
        assert v.property_label != "mixing"
        # per level: never both sides certified null
        for k in range(1, cfg.k_max + 1):
            sides = {e.label: e.certified for e in v.evidence if e.k == k}
            assert not (sides["null:left"] and sides["null:right"])


@pytest.mark.parametrize("criterion", ["ae", "mixing"])
def test_average_criteria_read_one_orbit_per_level(criterion, monkeypatch):
    # both branches' terms come from one orbit of e_0, which serves every level
    calls = []
    real = criteria._orbit_log2
    monkeypatch.setattr(criteria, "_orbit_log2", lambda op, j0, levels, n: (
        calls.append((j0, tuple(levels))) or real(op, j0, levels, n)))
    check_criterion(ShiftOperator("backward", constant_weights(2), preset("c0_Z")), criterion, CFG)
    assert calls == [(0, tuple(range(1, CFG.k_max + 1)))]


@pytest.mark.parametrize("criterion, walks", [("ae", 2), ("ape", 2), ("mixing", 2), ("e", 10)])
def test_walks_are_summed_once_per_basis_index(criterion, walks, monkeypatch):
    # the walk sums do not depend on the level: each orbit sums its T and
    # T^-1 walks once, 2 per basis index (e_0, or e_-2 ... e_2 for e), not
    # once per index and level (6 for ae at k_max 3)
    calls = []
    real = criteria._walk_log2
    monkeypatch.setattr(criteria, "_walk_log2", lambda *args: calls.append(args) or real(*args))
    cfg = HorizonConfig(n_max=200, k_max=3, basis_window=2, m_grid=(2.0 ** 1020,))
    check_criterion(ShiftOperator("backward", constant_weights(2), preset("lp_Z", 2)),
                    criterion, cfg)
    assert len(calls) == walks


class TestTraces:
    def test_average_trace_closed_form(self):
        import math

        from shiftlab import _kernels
        from shiftlab.criteria import _avg_term_logs

        op = ShiftOperator("backward", constant_weights(2), preset("c0_Z"))
        averages = _kernels.running_log2_average(next(_avg_term_logs(op, [1], 40))["left"])
        for n in (1, 5, 20, 40):
            want = math.log2((2 ** (n + 1) - 2) / n)
            assert averages[n - 1] == pytest.approx(want, rel=1e-12)

    def test_window_infimum_trace_matches_checker_route(self):
        from shiftlab.criteria import _ue_curve

        op = ShiftOperator("forward", constant_weights(2), preset("lp_Z", 2))
        cfg = HorizonConfig(n_max=30, window=16, m_grid=(1, 2))
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


class TestUeCurveOnPresets:
    """_ue_curve reads only the columns the matrix family names; on the
    attested presets with dyadic weights its curve and usable must be
    bitwise the full sweep's (tests/test_kernels.py)."""

    CFG = HorizonConfig(n_max=40, window=12, m_grid=(1, 2), k_max=2)
    SPACES = {
        "c0_Z": lambda: preset("c0_Z"),
        "s_Z": lambda: preset("s_Z"),
        "halfline_Z": lambda: preset("halfline_Z"),
        "lp_N": lambda: preset("lp_N", 2),
        "s_N": lambda: SpaceSpec(PowerMatrix("N"), 1),
    }

    @pytest.mark.parametrize("c", [2, F(1, 2)])
    @pytest.mark.parametrize("space", sorted(SPACES))
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_matches_sweep_bitwise(self, direction, space, c):
        from shiftlab.criteria import _ue_curve

        op = ShiftOperator(direction, constant_weights(c), self.SPACES[space]())
        splits = ("Z", "N", "-N") if op.bilateral else ("N",)
        n_eff = 30
        for split in splits:
            for form in ("A", "B"):
                for k, level in ((1, 1), (1, 2), (2, 3)):
                    case = (op, k, level, split, form, self.CFG, n_eff)
                    curve, usable = _ue_curve(*case)
                    want_curve, want_usable = ue_curve_reference(*case)
                    assert curve.tobytes() == want_curve.tobytes(), (split, form, k, level)
                    assert np.array_equal(usable, want_usable), (split, form, k, level)

    def test_near_tie_with_the_edge_is_decided_exactly(self):
        from shiftlab.criteria import _TIE_LOG2, _ue_curve

        # s_Z, k = 1, l = 3 on the N split of radius 48: at n = 97 the ratio
        # (j + 98)**3 / (j + 1) is least at j* = 47.5, between the last
        # interior column and the tail edge, which is less by under 2^-20
        op = ShiftOperator("forward", constant_weights(1), preset("s_Z"))
        cfg = HorizonConfig(n_max=100, window=48, m_grid=(1, 2), k_max=1)
        _, usable = _ue_curve(op, 1, 3, "N", "A", cfg, 100)
        interior, edge = F(47 + 98) ** 3 / 48, F(48 + 98) ** 3 / 49
        assert 0 < math.log2(interior / edge) <= _TIE_LOG2
        assert not usable[96] and usable[95]

    @pytest.mark.parametrize("c", [F(5, 2), F(2, 3), F(3), F(1001, 1000), F(7, 5)], ids=str)
    def test_usable_matches_exact_ratios(self, c):
        from shiftlab.criteria import _split_window, _ue_curve

        # with constant weights the weight product is the same in every column,
        # so usable is the exact matrix ratio a(j + s, l)/a(j, k) of the
        # interior reaching the least tail edge's; the float sweep gets this
        # wrong on these weights, where the log prefix sums round
        def entry(m, j, k):
            return F(0) if m.index_set == "N" and j < 1 else m.entry(j, k)

        for space, window, (k, level) in product(sorted(self.SPACES), (3, 10),
                                                 ((1, 1), (1, 2), (2, 3), (1, 4))):
            op = ShiftOperator("forward", constant_weights(c), self.SPACES[space]())
            m, cfg = op.space.matrix, HorizonConfig(n_max=24, window=window)
            for split, form in product(("Z", "N", "-N") if op.bilateral else ("N",), "AB"):
                _, usable = _ue_curve(op, k, level, split, form, cfg, 24)
                lo, hi, tails = _split_window(split, cfg)
                valid = [j for j in range(lo, hi + 1) if entry(m, j, k) > 0]
                edges = {valid[0] if t == "lo" else valid[-1] for t in tails} if valid else set()
                want = []
                for n in range(1, 25):
                    s = n if form == "A" else -n
                    r = {j: entry(m, j + s, level) / entry(m, j, k) for j in valid}
                    inner = [r[j] for j in valid if j not in edges]
                    want.append(not valid or (bool(inner) and all(
                        min(inner) <= r[e] for e in edges)))
                assert usable.tolist() == want, (space, window, k, level, split, form)

    def test_no_valid_column_gives_inf(self):
        from shiftlab.criteria import _ue_curve

        # halfline_Z at k = 1 is nonzero from j = 0 on: the -N split holds none
        op = ShiftOperator("forward", constant_weights(2), preset("halfline_Z"))
        for form in ("A", "B"):
            case = (op, 1, 2, "-N", form, self.CFG, 30)
            curve, usable = _ue_curve(*case)
            assert np.all(curve == np.inf) and usable.all()
            want_curve, want_usable = ue_curve_reference(*case)
            assert curve.tobytes() == want_curve.tobytes()
            assert np.array_equal(usable, want_usable)

    def test_single_valid_index_is_never_usable(self):
        from shiftlab.criteria import _ue_curve

        # halfline_Z at k = 2 is nonzero from j = -1 on: the -N split holds one
        # valid column, its tail edge, and the trimmed interior is empty
        op = ShiftOperator("forward", constant_weights(2), preset("halfline_Z"))
        for form in ("A", "B"):
            case = (op, 2, 3, "-N", form, self.CFG, 30)
            curve, usable = _ue_curve(*case)
            assert not usable.any()
            assert curve.tobytes() == ue_curve_reference(*case)[0].tobytes()


@pytest.mark.parametrize("space", ["lp_Z:2", "halfline_Z"])
@pytest.mark.parametrize("side, c", [("forward", F(5, 2)), ("forward", F(3)),
                                     ("forward", F(7, 5)), ("backward", F(2, 3))])
def test_uniform_first_n_is_the_exact_crossing(space, side, c):
    # on a constant or step matrix every finite ratio column at step n is
    # |c|^n (|1/c|^n on the backward dual), whatever the rounding of the log
    # prefix sums, so first_n is the first n at which that power reaches M
    growth = abs(c) if side == "forward" else abs(1 / c)
    m_grid = (1, 2, 3, 4, 16, 1000)
    want = [next(n for n in range(1, 100) if growth ** n >= m) for m in m_grid]
    op = ShiftOperator(side, constant_weights(c), parse_space(space))
    for window in range(2, 11):
        verdict = check_criterion(op, "ue", HorizonConfig(n_max=64, window=window, m_grid=m_grid))
        rows = [ev for ev in verdict.evidence if ev.label == "A:Z"]
        assert verdict.certified and len(rows) == 3, window
        assert all([cr.first_n for cr in ev.crossings] == want for ev in rows), window


@pytest.fixture
def ue_curves(monkeypatch):
    """The list of (k, level, split, form) of every _ue_curve call."""
    from shiftlab import criteria

    calls = []
    real = criteria._ue_curve

    def counted(op, k, level, split, form, cfg, n_eff):
        calls.append((k, level, split, form))
        return real(op, k, level, split, form, cfg, n_eff)

    monkeypatch.setattr(criteria, "_ue_curve", counted)
    return calls


def test_reports_do_not_depend_on_run_order(tmp_path):
    from shiftlab.cli import EXIT_OK, main

    args = ["check", "--weights", "constant:2", "--criterion", "ue", "--n-max", "64",
            "--window", "32", "--m-grid", "1,2,4,16", "--no-timestamp"]
    spaces = ("lp_Z:2", "c0_Z", "halfline_Z")  # lp_Z and c0_Z read the same log rows
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
    # hashlib would load OpenSSL (+4 MiB RSS)
    code = "import sys, shiftlab.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    assert _python("-c", code).strip() == "[]"


# Prints the lazily loaded modules present after a bare `import shiftlab`, after
# `import shiftlab.cli`, then after each command line (a JSON list in argv[2])
# run through cli.main.
LANE_PROBE = """
import json, sys
import shiftlab

def loaded():
    lazy = {"numpy", "shiftlab._kernels", "shiftlab.criteria", "shiftlab.blocks",
            "shiftlab.density"}
    print(json.dumps(sorted(lazy & set(sys.modules))))

loaded()
from shiftlab.cli import main
loaded()
for i, args in enumerate(json.loads(sys.argv[2])):
    assert main([*args, "--no-timestamp", "--out", f"{sys.argv[1]}/{i}"]) == 0
    loaded()
"""
LOG_LANE = {"numpy", "shiftlab._kernels", "shiftlab.criteria"}
BLOCKS, DENSITY = {"shiftlab.blocks"}, {"shiftlab.density"}


def _probe(tmp_path, runs) -> list[set]:
    out = _python("-c", LANE_PROBE, str(tmp_path), json.dumps(runs))
    return [set(json.loads(line)) for line in out.splitlines()]


def test_exact_lane_loads_no_log_lane(tmp_path):
    # synthesize, density and props run on Fractions alone; check needs the
    # log lane, so the last line shows that the probe sees it load
    runs = [["synthesize", "--blocks", "2"],
            ["density", "--weights", "blocks:2", "--format", "csv"],
            ["density", "--weights", "blocks:2", "--format", "json"],
            ["props"],
            ["check", "--space", "lp_Z:2", "--weights", "constant:2", "--criterion", "ue",
             "--n-max", "64", "--window", "16"]]
    assert _probe(tmp_path, runs) == [
        set(), set(), BLOCKS, BLOCKS | DENSITY, BLOCKS | DENSITY, BLOCKS | DENSITY,
        BLOCKS | DENSITY | LOG_LANE]


def test_check_loads_the_block_construction_only_for_block_weights(tmp_path):
    # neither the package nor the CLI compiles blocks or density up front
    horizon = ["--criterion", "ue", "--n-max", "64", "--window", "16"]
    runs = [["check", "--space", "lp_Z:2", "--weights", "constant:2", *horizon],
            ["check", "--space", "lp_Z:2", "--weights", "blocks:2", *horizon]]
    assert _probe(tmp_path, runs) == [set(), set(), LOG_LANE, LOG_LANE | BLOCKS]


class TestSearchStopsWhenDecided:
    """No uniform regime certifies without a tail attestation, so an
    unattested check sweeps no window-infimum curve."""

    CFG = HorizonConfig(n_max=200, window=20, m_grid=(1, 2, 4), k_max=3)

    @pytest.mark.parametrize("criterion", ["ue", "upe", "hierarchy"])
    @pytest.mark.parametrize("side", ["backward", "forward"])
    @pytest.mark.parametrize("space, weights", [("s_Z", "geometric:1:2"), ("c0_Z", "blocks:3")])
    def test_unattested_pair_sweeps_no_curve(self, ue_curves, space, weights, side, criterion):
        from shiftlab.shifts import parse_weights
        from shiftlab.spaces import parse_space

        op = ShiftOperator(side, parse_weights(weights), parse_space(space))
        if criterion == "hierarchy":
            ue = hierarchy_audit(op, self.CFG).ue
        else:
            ue = check_criterion(op, criterion, self.CFG)
        assert ue_curves == []
        assert ue.kind is VerdictKind.INCONCLUSIVE
        assert [(ev.k, ev.level, ev.certified) for ev in ue.evidence] == [
            (1, None, False)] * len(ue.evidence)

    def test_attested_pair_sweeps(self, ue_curves):
        op = ShiftOperator("backward", constant_weights(2), preset("lp_Z", 2))
        assert check_criterion(op, "ue", self.CFG).certified
        assert ue_curves
