"""Closure laws for weighted shifts: inverses, powers and diagonal
conjugacies.

Each law compares two independent exact routes to the same orbit norms, so
a fault in either route shows as a failed law; the `props` command runs
them.  Everything here is Fraction arithmetic: the module loads no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .shifts import (
    ShiftOperator,
    basis_orbit_norm,
    conjugate_to_unweighted,
    constant_weights,
    dual_form,
    geometric_weights,
    weight_product,
)
from .spaces import InvalidSpecError, preset

__all__ = [
    "PowerShift",
    "power_orbit_norm",
    "run_props_suite",
]


@dataclass(frozen=True)
class PowerShift:
    """T^m as an m-step shift: grouped weight products along the stride."""

    base: ShiftOperator
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise InvalidSpecError("power exponent must be >= 1")

    def grouped_weight(self, j: int) -> Fraction:
        """Product of m consecutive base weights feeding one m-step move."""
        w = self.base.weights
        if self.base.direction == "backward":
            return weight_product(w, j - self.m + 1, j)
        return weight_product(w, j, j + self.m - 1)


def power_orbit_norm(p: PowerShift, j0: int, n: int, k: int) -> Fraction:
    """||(T^m)^n e_{j0}||_k through the grouped products (independent of the
    base route basis_orbit_norm(base, j0, m*n, k), which must agree exactly)."""
    op = p.base
    step = -p.m if op.direction == "backward" else p.m
    coeff = Fraction(1)
    pos = j0
    if n >= 0:
        for _ in range(n):
            coeff *= p.grouped_weight(pos)
            pos += step
    else:
        for _ in range(-n):
            pos -= step
            coeff /= p.grouped_weight(pos)
    return abs(coeff) * op.space.matrix.entry(pos, k)


def run_props_suite() -> dict:
    """Run the closure laws over backward shifts on lp_Z(2); returns a
    pass/fail matrix keyed by law name.

    The constant families are translation invariant, so only the geometric
    one can show an error in a weight index.
    """
    lp2 = preset("lp_Z", 2)
    ops = {name: ShiftOperator("backward", w, lp2) for name, w in (
        ("w=2", constant_weights(2)),
        ("w=1/2", constant_weights(Fraction(1, 2))),
        ("w=1", constant_weights(1)),
        ("w=2^j", geometric_weights(1, 2)),
    )}
    results: dict[str, dict] = {}

    # inversion: orbit norms of the dual at n equal the original at -n
    results["inversion-orbit-symmetry"] = {
        name: all(basis_orbit_norm(dual_form(op), j0, n, k) == basis_orbit_norm(op, j0, -n, k)
                  for j0 in (-3, 0, 2) for n in range(-6, 7) for k in (1, 2))
        for name, op in ops.items()}

    # power lattice: m-step grouped products against the base orbit at m*n
    results["power-lattice"] = {
        f"{name},m={m}": all(
            power_orbit_norm(PowerShift(op, m), j0, n, k) == basis_orbit_norm(op, j0, m * n, k)
            for j0 in (-2, 0, 3) for n in range(-4, 5) for k in (1, 2))
        for name, op in ops.items() for m in (2, 3)}

    # conjugacy invariance: the transferred orbit of e_j matches the original
    # orbit of its diagonal image v_j e_j, exactly
    cj = {}
    for name in ("w=2", "w=1/2", "w=2^j"):
        op = ops[name]
        _, unweighted, v = conjugate_to_unweighted(op)
        cj[name] = all(
            basis_orbit_norm(unweighted, j0, n, k) == abs(v(j0)) * basis_orbit_norm(op, j0, n, k)
            for j0 in (-3, 0, 2) for n in range(-5, 6) for k in (1, 2))
    results["conjugacy-invariance"] = cj

    results["all_passed"] = all(all(section.values()) for section in results.values())
    return results
