from fractions import Fraction

import pytest

from shiftlab.algebra import PowerShift, power_orbit_norm, run_props_suite
from shiftlab.blocks import build_blocks
from shiftlab.criteria import HorizonConfig, check_criterion
from shiftlab.shifts import (
    ShiftOperator,
    basis_orbit_norm,
    conjugate_to_unweighted,
    constant_weights,
    dual_form,
    geometric_weights,
)
from shiftlab.spaces import InvalidSpecError, preset

F = Fraction
CFG = HorizonConfig(n_max=128, window=64, m_grid=(1, 2, 4, 16), k_max=2, basis_window=6)


def backward(w):
    return ShiftOperator("backward", constant_weights(w), preset("lp_Z", 2))


@pytest.fixture(scope="module")
def build4():
    return build_blocks(4)


class TestInvert:
    def test_involution_on_orbit_norms(self):
        op = backward(F(2, 3))
        twice = dual_form(dual_form(op))
        for j0 in (-2, 0, 3):
            for n in range(-6, 7):
                assert basis_orbit_norm(op, j0, n, 2) == basis_orbit_norm(twice, j0, n, 2)

    def test_inverse_swaps_regimes(self):
        prop_fwd = check_criterion(dual_form(backward(2)), "ue", CFG)
        assert prop_fwd.certified
        # B_w with w = 2 is regime (a); its inverse is the forward regime (B)
        assert prop_fwd.property_label == "B"

    def test_blocks_both_average_expansive(self, build4):
        op = ShiftOperator("backward", build4, preset("c0_Z"))
        cfg = HorizonConfig(n_max=build4.layout.t_max, window=300, m_grid=(1, 2, 4), k_max=1)
        assert check_criterion(op, "ae", cfg).certified
        assert check_criterion(dual_form(op), "ae", cfg).certified


# The verdicts that the deleted direct-sum tests read through their summands,
# checked on each shift itself. ||B_w^n x|| = w^n ||x||: w > 1 expands forward
# in time, w < 1 only backward, and w = 1 is an isometry.
@pytest.mark.parametrize("w, certified, ue_label", [
    (2, {"e", "ae", "ue", "ape", "upe"}, "a"),
    (3, {"e", "ae", "ue", "ape", "upe"}, "a"),
    (F(1, 2), {"e", "ae", "ue"}, "b"),
    (1, set(), "none"),
], ids=["w=2", "w=3", "w=1/2", "w=1"])
def test_constant_weight_verdicts(w, certified, ue_label):
    op = backward(w)
    verdicts = {crit: check_criterion(op, crit, CFG) for crit in ("e", "ae", "ue", "ape", "upe")}
    assert {crit for crit, v in verdicts.items() if v.certified} == certified
    assert verdicts["ue"].property_label == ue_label


class TestPower:
    def test_identity_power(self):
        op = backward(F(3, 5))
        for n in range(-4, 5):
            assert power_orbit_norm(PowerShift(op, 1), 2, n, 1) == basis_orbit_norm(op, 2, n, 1)
        with pytest.raises(InvalidSpecError):
            PowerShift(op, 0)

    def test_grouped_weights_constant(self):
        p = PowerShift(backward(2), 3)
        assert p.grouped_weight(0) == 8
        assert power_orbit_norm(p, 0, 2, 1) == 2 ** 6

    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_grouped_weights_follow_the_walk(self, direction):
        # a geometric weight differs at every index, so a grouped product
        # read one index off would break the power law on either side
        op = ShiftOperator(direction, geometric_weights(F(2, 3), F(5, 4)), preset("s_Z"))
        for m in (2, 3):
            p = PowerShift(op, m)
            for j0 in (-4, 0, 5):
                for n in range(-3, 4):
                    assert power_orbit_norm(p, j0, n, 2) == basis_orbit_norm(op, j0, m * n, 2)

    def test_lattice_law_blocks(self, build4):
        op = ShiftOperator("backward", build4, preset("c0_Z"))
        p = PowerShift(op, 2)
        half = build4.layout[3].t // 2
        for n in list(range(0, 40)) + [half // 2, half]:
            assert power_orbit_norm(p, -1, n, 1) == basis_orbit_norm(op, -1, 2 * n, 1)

    def test_lattice_law_negative_steps(self):
        op = ShiftOperator("backward", constant_weights(F(5, 4)), preset("lp_Z", 1))
        p = PowerShift(op, 3)
        for j0 in (-2, 0, 1):
            for n in range(-6, 7):
                assert power_orbit_norm(p, j0, n, 1) == basis_orbit_norm(op, j0, 3 * n, 1)


class TestConjugacy:
    def test_transfer_preserves_orbits(self, build4):
        for weights in (constant_weights(2), build4):
            op = ShiftOperator("backward", weights, preset("c0_Z"))
            _, unweighted, v = conjugate_to_unweighted(op)
            for j0 in (-3, -1, 0, 2):
                for n in range(-6, 7):
                    assert (basis_orbit_norm(unweighted, j0, n, 1)
                            == abs(v(j0)) * basis_orbit_norm(op, j0, n, 1))

    def test_unit_diagonal_is_identity(self):
        op = backward(1)
        _, unweighted, v = conjugate_to_unweighted(op)
        assert all(v(j) == 1 for j in range(-5, 6))
        for j0 in (-2, 0, 3):
            assert basis_orbit_norm(unweighted, j0, 4, 2) == basis_orbit_norm(op, j0, 4, 2)


def test_props_suite_passes():
    results = run_props_suite()
    assert sorted(results) == ["all_passed", "conjugacy-invariance", "inversion-orbit-symmetry",
                               "power-lattice"]
    assert results["all_passed"], results
