"""Acceptance suite: one test per criterion, exact tolerances pinned.

Every check is golden-value or property-based; zero tolerance wherever the
underlying quantity is exact (rational arithmetic end to end).  Run with
`pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import random
from fractions import Fraction

import pytest

from shiftlab.algebra import PowerShift, power_orbit_norm
from block_oracle import backward_norms, expand_runs, forward_norms
from vector_oracle import apply, basis_vector, seminorm
from shiftlab.blocks import (
    build_blocks,
    closed_form_norms,
    hypercyclicity_witness,
    verify_inequalities,
)
from shiftlab.criteria import (
    HorizonConfig,
    VerdictKind,
    check_criterion,
    hierarchy_audit,
)
from shiftlab.shifts import (
    ShiftOperator,
    basis_orbit_norm,
    conjugate_to_unweighted,
    constant_weights,
    dual_form,
)
from shiftlab.spaces import preset
from shiftlab.density import distributional_report

F = Fraction


@pytest.fixture(scope="module")
def build4():
    return build_blocks(4)


def _passed(num, text):
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def test_01_synthesis_golden(build4):
    a, b, c = map(expand_runs, build4.layout.templates(1))
    assert a == [F(1), F(1), F(1), F(1, 4), F(1, 2), F(1, 2), F(1, 2), F(1),
                 F(2), F(2), F(2), F(2)]
    assert b == [F(1, 2), F(1, 2), F(1), F(2), F(2)]
    assert c == [F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1), F(2), F(2), F(2),
                 F(4), F(1), F(1), F(1)]
    p1 = build4.layout[1]
    assert (p1.a, p1.b, p1.s, p1.t) == (12, 5, 12, 17)
    _passed(1, "printed blocks A1/B1/C1 and layout (a1,b1,s1,t1)=(12,5,12,17), exact")


def test_02_oracle_equivalence(build4):
    nb = backward_norms(build4)
    nf = forward_norms(build4)
    assert nb == nf  # backward/forward symmetry, zero tolerance
    for j in range(1, 5):
        p = build4.layout[j]
        t_prev = p.t - p.a - p.b
        first, second = map(expand_runs, closed_form_norms(build4.layout, j))
        assert first == nb[t_prev + 1:p.s + 1]
        assert second == nb[p.s + 1:p.t + 1]
    _passed(2, f"closed forms == raw products and orbit symmetry for all n <= {build4.layout.t_max}")


def test_03_inequality_audits(build4):
    assert build4.layout[2].k == 6 and build4.layout[2].i == 60
    report = verify_inequalities(build4)
    assert report.all_passed
    for j in (2, 3, 4):
        assert report.eq1[j]["ok"] and report.eq2[j]["ok"] and report.eq3[j]["ok"]
    assert report.eq4_ok and report.eq4_first_violation is None
    _passed(3, "eq1/eq2/eq3 exact for j=2..4 at minimal (k_j, i_j); eq4 band exact for j<=3")


def test_04_hypercyclicity_witness(build4):
    audit = hypercyclicity_witness(build4, t_range=8)
    assert audit.plateau_ok
    nb = backward_norms(build4)
    nf = forward_norms(build4)
    for j in range(1, 5):
        p = build4.layout[j]
        half = 2 ** (p.k - 1)
        for n in range(p.n_mid - half + 1, p.n_mid + half + 1):
            assert nb[n] == F(1, j + 1) and nf[n] == F(1, j + 1)
    assert audit.certified and not audit.skipped_shifts
    for t in range(-8, 9):
        assert audit.hyperbolic_exact[t]
        blocks = sorted(audit.products[t])
        assert all(audit.products[t][a] > audit.products[t][b]
                   for a, b in zip(blocks, blocks[1:]))
        last = audit.schedules[t][-1]
        assert last["threshold"] == str(F(1, 1024)) and last["first_j"] is not None
    _passed(4, "plateau norms exactly 1/(j+1) on the witness windows; shifted products "
               "certified decreasing with the exact c_t/(j+1) form scheduling below 2^-10")


def test_05_density_claims(build4):
    for j in range(2, 5):
        p, K, tau = build4.layout[j], j + 1, F(1, j + 1)
        small = distributional_report(build4, k_grid=[K], tau_grid=[tau], n_horizon=p.s)
        large = distributional_report(build4, k_grid=[K], tau_grid=[tau], n_horizon=p.t)
        assert F(small["small"][str(tau)]["value"]) >= 1 - F(1, j)
        assert F(large["large"][str(K)]["value"]) >= 1 - F(1, j)
    _passed(5, "small- and large-norm upper densities reach 1 - 1/j at block horizons, exact ratios")


def test_06_criteria_battery(build4):
    cfg = HorizonConfig(n_max=256, window=128, m_grid=(1, 2, 4, 16, 2 ** 10), k_max=2,
                        basis_window=8)
    for space in (preset("lp_Z", 2), preset("c0_Z")):
        op = ShiftOperator("backward", constant_weights(2), space)
        ue = check_criterion(op, "ue", cfg)
        assert ue.property_label == "a" and ue.certified
        assert check_criterion(op, "upe", cfg).certified
        assert check_criterion(op, "ae", cfg).certified
        assert check_criterion(op, "e", cfg).certified
        fop = ShiftOperator("forward", constant_weights(2), space)
        fue = check_criterion(fop, "ue", cfg)
        assert fue.property_label == "A" and fue.certified

        unit = ShiftOperator("backward", constant_weights(1), space)
        assert check_criterion(unit, "ae", cfg).kind is VerdictKind.BOUNDED_WITNESS

    s_cfg = HorizonConfig(n_max=1200, window=1000, m_grid=(1, 2, 4, 16, 256), k_max=3)
    s_op = ShiftOperator("forward", constant_weights(1), preset("s_Z"))
    ue = check_criterion(s_op, "ue", s_cfg)
    assert ue.property_label == "C"
    assert all(e.level == e.k + 1 for e in ue.evidence if e.certified)
    assert not check_criterion(s_op, "upe", s_cfg).certified  # property A fails
    from shiftlab.criteria import _ue_curve
    import math
    for k in (1, 2, 3):
        curve, usable = _ue_curve(s_op, k, k + 1, "N", "A", s_cfg, 100)
        for n in range(1, 101):
            assert usable[n - 1] and curve[n - 1] >= math.log2(n) - 1e-9

    hl = ShiftOperator("forward", constant_weights(2), preset("halfline_Z"))
    hue = check_criterion(hl, "ue", cfg)
    assert hue.property_label == "A" and hue.certified
    _passed(6, "battery: w=2 -> (a)/(A)+UPE+AE+E-diag; w=1 -> BoundedWitness; "
               "s_Z -> (C) at l=k+1 with window-inf >= n; halfline -> (A)")


def test_07_mixing_exclusion(build4):
    cfg = HorizonConfig(n_max=256, window=128, m_grid=(1, 2, 4, 16), k_max=2)
    battery = [
        ("w=2 on c0_Z", ShiftOperator("backward", constant_weights(2), preset("c0_Z")), cfg),
        ("w=2 on lp_Z(1)", ShiftOperator("backward", constant_weights(2), preset("lp_Z", 1)), cfg),
        ("w=1/2 on c0_Z", ShiftOperator("backward", constant_weights(F(1, 2)), preset("c0_Z")), cfg),
        ("blocks on c0_Z", ShiftOperator("backward", build4, preset("c0_Z")),
         HorizonConfig(n_max=build4.layout.t_max, window=300, m_grid=(1, 2, 4), k_max=2)),
    ]
    for name, op, use in battery:
        ae = check_criterion(op, "ae", use)
        assert ae.certified, name
        mix = check_criterion(op, "mixing", use)
        assert mix.property_label != "mixing", name
        for k in range(1, use.k_max + 1):
            sides = {e.label: e.certified for e in mix.evidence if e.k == k}
            assert not (sides["null:left"] and sides["null:right"]), name
    _passed(7, "no AE-certified family certifies both null sequences "
               "(block weights checked to the full table horizon)")


def test_08_growth_envelope():
    space = preset("s_Z")
    op = ShiftOperator("forward", constant_weights(1), space)
    rng = random.Random(20250808)
    for _ in range(100):
        support = rng.sample(range(-20, 21), rng.randint(1, 5))
        coeffs = {j: F(rng.randint(-9, 9), rng.randint(1, 16)) for j in support}
        x = {j: c for j, c in coeffs.items() if c}
        if not x:
            x = basis_vector(0)
        norms = {k: seminorm(x, k, space) for k in (1, 2, 3)}
        for step in (1, -1):  # walk each half-orbit one step at a time
            y = x
            for m in range(1, 101):
                y = apply(op, y, step)
                for k in (1, 2, 3):
                    assert seminorm(y, k, space) <= (m + 1) ** k * norms[k]
    _passed(8, "||F^n x||_k <= (|n|+1)^k ||x||_k exactly for 100 random sparse vectors, "
               "|n| <= 100, k <= 3")


def test_09_algebra_laws(build4):
    lp2 = preset("lp_Z", 2)
    fams = {"2": constant_weights(2), "1/2": constant_weights(F(1, 2)),
            "1": constant_weights(1)}

    for w in fams.values():  # inversion orbit-norm symmetry
        op = ShiftOperator("backward", w, lp2)
        inv = dual_form(op)
        for j0 in (-3, 0, 2):
            for n in range(-6, 7):
                assert basis_orbit_norm(inv, j0, n, 2) == basis_orbit_norm(op, j0, -n, 2)

    for w in fams.values():  # power lattice law, m in {2, 3}
        op = ShiftOperator("backward", w, lp2)
        for m in (2, 3):
            p = PowerShift(op, m)
            for j0 in (-2, 0, 3):
                for n in range(-5, 6):
                    assert power_orbit_norm(p, j0, n, 1) == basis_orbit_norm(op, j0, m * n, 1)
    blocks_op = ShiftOperator("backward", build4, preset("c0_Z"))
    p2 = PowerShift(blocks_op, 2)
    for n in range(0, build4.layout[3].t // 2, 97):
        assert power_orbit_norm(p2, -1, n, 1) == basis_orbit_norm(blocks_op, -1, 2 * n, 1)

    for weights in (constant_weights(2), build4):  # conjugacy invariance
        op = ShiftOperator("backward", weights, preset("c0_Z"))
        _, unweighted, v = conjugate_to_unweighted(op)
        for j0 in (-4, -1, 0, 2):
            for n in range(-8, 9):
                assert (basis_orbit_norm(unweighted, j0, n, 1)
                        == abs(v(j0)) * basis_orbit_norm(op, j0, n, 1))
    _passed(9, "inversion/power/conjugacy laws all exact")


def test_10_hierarchy_audit(build4):
    cfg = HorizonConfig(n_max=256, window=128, m_grid=(1, 2, 4, 16), k_max=2, basis_window=8)
    battery = [
        ("backward w=2 lp2", ShiftOperator("backward", constant_weights(2), preset("lp_Z", 2)), cfg),
        ("backward w=1/2 lp2", ShiftOperator("backward", constant_weights(F(1, 2)), preset("lp_Z", 2)), cfg),
        ("backward w=1 c0", ShiftOperator("backward", constant_weights(1), preset("c0_Z")), cfg),
        ("forward w=2 c0", ShiftOperator("forward", constant_weights(2), preset("c0_Z")), cfg),
        ("forward s_Z", ShiftOperator("forward", constant_weights(1), preset("s_Z")),
         HorizonConfig(n_max=1200, window=1000, m_grid=(1, 2, 4, 16, 256), k_max=2,
                       basis_window=8)),
        ("forward halfline w=2", ShiftOperator("forward", constant_weights(2),
                                               preset("halfline_Z")), cfg),
        ("blocks c0", ShiftOperator("backward", build4, preset("c0_Z")),
         HorizonConfig(n_max=4000, window=300, m_grid=(1, 2, 4), k_max=2, basis_window=6)),
    ]
    for name, op, use in battery:
        rep = hierarchy_audit(op, use)
        assert rep.consistent, (name, rep.violations)
        if rep.ue.certified:
            assert rep.ae.certified, name
        if rep.ae.certified:
            assert rep.e_diag.certified, name
    _passed(10, "hierarchy never inverted across the preset battery "
                "(uniform => average => basis diagnostic)")
