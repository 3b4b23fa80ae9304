"""Verdicts of constant-weight shifts against their closed forms.

With w_j = c and a(j, k) = 1 (c0, l^1, l^2 on Z or N), every basis vector
has norm 1 at every level and the orbits are known exactly:

    ||T^n e_j||_k = c^n,    ||T^-n e_j||_k = c^-n    (n >= 0, every j, k).

Each expected verdict below follows from these two lines alone, so the
table is an oracle that shares no code with the checkers.  The horizon is
short (n_max 600, window 60, basis window 8) and the threshold grid the
default one, up to 2^20; every c != 1 here has c^600 and c^-600 far past it.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from shiftlab.criteria import HorizonConfig, VerdictKind, check_criterion
from shiftlab.shifts import ShiftOperator, constant_weights
from shiftlab.spaces import InvalidSpecError, parse_space

CFG = HorizonConfig(n_max=600, window=60, basis_window=8)
CONSTANTS = [Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(2), Fraction(5, 2)]
SIDES = ["backward", "forward"]
CU, BW, INC = VerdictKind.CERTIFIED_UNBOUNDED, VerdictKind.BOUNDED_WITNESS, VerdictKind.INCONCLUSIVE


def _verdict(space: str, side: str, c: Fraction, criterion: str):
    return check_criterion(ShiftOperator(side, constant_weights(c), parse_space(space)),
                           criterion, CFG)


def _kind(certified: bool, otherwise: VerdictKind = BW) -> VerdictKind:
    return CU if certified else otherwise


def _bilateral(side: str, c: Fraction, criterion: str):
    """(kind, property) of one criterion on a bilateral space."""
    # ae: one branch averages c^n, the other c^-n; one diverges iff c != 1,
    # and for c = 1 both are the constant 1, attested nonincreasing.
    # e: sup over n in Z of c^n is infinite iff c != 1; bounded by 1 at c = 1.
    if criterion in ("ae", "e"):
        return _kind(c != 1), None
    # ape: the averages of c^n diverge iff c > 1; for c <= 1 the terms are
    # at most 1 and nonincreasing.  ape-inverse: the same for c^-n, so c < 1.
    if criterion == "ape":
        return _kind(c > 1), None
    if criterion == "ape-inverse":
        return _kind(c < 1), None
    # ue: inf over j of ||T^n e_j|| / ||e_j|| is c^n.  Forward, T^n e_j lands
    # at e_{j+n} (regime A) and T^-n e_j = c^-n e_{j-n} (regime B); backward,
    # B^n e_j = c^n e_{j-n} is regime (a) and B^-n e_j = c^-n e_{j+n} is (b).
    # c = 1 gives no growth at all.
    if criterion == "ue":
        if c == 1:
            return INC, "none"
        grows = "A" if (c > 1) == (side == "forward") else "B"
        return CU, grows if side == "forward" else {"A": "b", "B": "a"}[grows]
    # upe: the shift's own orbits c^n grow uniformly iff c > 1: A forward,
    # a backward.
    assert criterion == "upe"
    return (CU, "A" if side == "forward" else "a") if c > 1 else (INC, "none")


@pytest.mark.parametrize("criterion", ["ae", "ape", "ape-inverse", "e", "ue", "upe"])
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("space", ["c0_Z", "lp_Z:1", "lp_Z:2"])
def test_bilateral_constant_weights(space, side, criterion):
    for c in CONSTANTS:
        verdict = _verdict(space, side, c, criterion)
        kind, prop = _bilateral(side, c, criterion)
        assert verdict.kind is kind, c
        if prop is not None:
            assert verdict.property_label == prop, c


@pytest.mark.parametrize("criterion", ["ape", "upe", "e"])
@pytest.mark.parametrize("side", SIDES)
def test_unilateral_constant_weights(side, criterion):
    # on N, F^n e_j = c^n e_{j+n}: ape (terms c^n), upe (regime A) and e
    # certify iff c > 1; otherwise the terms and orbit norms are at most 1,
    # and upe, which never bounds, is Inconclusive.  B^n e_j = 0 for n >= j,
    # so every orbit of the backward shift dies: bounded for every c.
    for c in CONSTANTS:
        verdict = _verdict("lp_N:2", side, c, criterion)
        if side == "backward":
            assert verdict.kind is BW, c
        else:
            assert verdict.kind is _kind(c > 1, INC if criterion == "upe" else BW), c
        if criterion == "upe":
            assert verdict.property_label == ("A" if verdict.certified else "none"), c


@pytest.mark.parametrize("side", SIDES)
def test_unilateral_shift_has_no_inverse_to_average(side):
    # a unilateral forward shift misses e_1 and a backward one kills it:
    # neither has an inverse, so ape-inverse asks an undefined question
    for c in CONSTANTS:
        with pytest.raises(InvalidSpecError, match="needs a bilateral"):
            _verdict("lp_N:2", side, c, "ape-inverse")
