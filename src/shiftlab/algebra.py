"""Closure laws for the expansivity checkers: rotations, inverses, powers,
diagonal conjugacies, and finite direct sums.

Systems are shifts, one-dimensional scalings (T x = c x, the building block
for diagonal counterexamples), or finite direct sums with max-combined
seminorms at matched levels.  Every transform here comes with an exactly
testable guarantee on orbit norms, which is what the metamorphic suite
exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .criteria import HorizonConfig, Verdict, VerdictKind, check_criterion, _first_crossings
from .shifts import (
    ShiftOperator,
    basis_orbit_norm,
    conjugate_to_unweighted,
    dual_form,
    weight_product,
)
from .spaces import InvalidSpecError

import numpy as np

__all__ = [
    "PowerShift",
    "ScalingSystem",
    "ShiftSystem",
    "SumSystem",
    "SystemSpec",
    "component",
    "conjugacy_transfer",
    "direct_sum",
    "invert",
    "power",
    "power_orbit_norm",
    "rotate",
    "run_props_suite",
    "system_check",
    "system_orbit_norm",
]


@dataclass(frozen=True)
class ShiftSystem:
    op: ShiftOperator
    rotation: str = "1"


@dataclass(frozen=True)
class ScalingSystem:
    """One-dimensional system x -> factor * x with norm |x|."""

    factor: Fraction
    rotation: str = "1"

    def __post_init__(self):
        if self.factor == 0:
            raise InvalidSpecError("scaling factor must be nonzero")


@dataclass(frozen=True)
class SumSystem:
    components: tuple

    def __post_init__(self):
        if not self.components:
            raise InvalidSpecError("direct sum needs at least one component")


SystemSpec = Union[ShiftSystem, ScalingSystem, SumSystem]


def _unit_label(lam) -> str:
    if isinstance(lam, str):
        return lam  # a declared-unimodular phase tag such as 'i'
    value = Fraction(lam)
    if abs(value) != 1:
        raise InvalidSpecError(f"rotation scalar must have modulus 1, got {value}")
    return str(value)


def rotate(sys: SystemSpec, lam) -> SystemSpec:
    """Multiply the system by a unimodular scalar.

    Weights are stored as magnitudes, so the transform only records the
    phase: every orbit-norm value and every verdict is exactly unchanged.
    """
    label = _unit_label(lam)
    if isinstance(sys, ShiftSystem):
        return ShiftSystem(sys.op, label)
    if isinstance(sys, ScalingSystem):
        return ScalingSystem(sys.factor, label)
    return SumSystem(tuple(rotate(c, lam) for c in sys.components))


def invert(sys: SystemSpec) -> SystemSpec:
    """Componentwise inverse via the opposite-direction dual form."""
    if isinstance(sys, ShiftSystem):
        return ShiftSystem(dual_form(sys.op), sys.rotation)
    if isinstance(sys, ScalingSystem):
        return ScalingSystem(1 / sys.factor, sys.rotation)
    return SumSystem(tuple(invert(c) for c in sys.components))


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


def power(sys: ShiftSystem, m: int) -> PowerShift | ShiftSystem:
    if m == 1:
        return sys
    return PowerShift(sys.op, m)


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


def conjugacy_transfer(sys: ShiftSystem):
    """Diagonal conjugacy: transfer a bilateral backward shift to the
    unweighted shift on the reweighted space.  Returns (new system, v).

    Exact guarantee: for all n, k and sparse x on the new space,
    ||B^n x||'_k == ||B_w^n phi_v(x)||_k where phi_v scales coordinate j by
    v(j); orbit norms of corresponding vectors are invariant.
    """
    _, unweighted, v = conjugate_to_unweighted(sys.op)
    return ShiftSystem(unweighted, sys.rotation), v


def direct_sum(components: Sequence[SystemSpec]) -> SumSystem:
    return SumSystem(tuple(components))


def component(sys: SumSystem, slot: int) -> SystemSpec:
    """Restriction to one invariant summand: the extracted component carries
    exactly the verdicts it contributed to the sum."""
    if not isinstance(sys, SumSystem):
        raise InvalidSpecError("component extraction needs a direct sum")
    return sys.components[slot]


def system_orbit_norm(sys: SystemSpec, basis_id, n: int, k: int) -> Fraction:
    """Orbit norm of a basis vector of the system.

    basis_id: an index j for shifts, None for scalings, (slot, inner_id)
    for sums; sum seminorms are the max over components at matched levels.
    """
    if isinstance(sys, ShiftSystem):
        return basis_orbit_norm(sys.op, basis_id, n, k)
    if isinstance(sys, ScalingSystem):
        return abs(sys.factor) ** n if n >= 0 else 1 / abs(sys.factor) ** (-n)
    slot, inner = basis_id
    return system_orbit_norm(sys.components[slot], inner, n, k)


# ---------------------------------------------------------------------------
# verdicts over systems
# ---------------------------------------------------------------------------

def _scaling_check(sys: ScalingSystem, criterion: str, cfg: HorizonConfig) -> Verdict:
    """Closed-form traces for the one-dimensional system: orbit norms are
    |c|**n, so every aggregate is explicit."""
    from .scalars import log2_exact

    logc = log2_exact(sys.factor)
    ns = np.arange(1, cfg.n_max + 1, dtype=np.float64)
    # two-sided aggregates are driven by max(|c|, 1/|c|)**n, one-sided by |c|**n
    values = (abs(logc) if criterion in ("ae", "e", "ue") else logc) * ns
    _, certified = _first_crossings(values, cfg.m_grid)
    if certified:
        branch = "both" if criterion in ("ae", "e", "ue") else "left"
        prop = ("A" if logc > 0 else "B") if criterion in ("ue", "upe") else ""
        return Verdict(criterion, VerdictKind.CERTIFIED_UNBOUNDED, branch=branch,
                       property_label=prop, config=cfg)
    return Verdict(criterion, VerdictKind.BOUNDED_WITNESS, branch="none",
                   property_label="none" if criterion in ("ue", "upe") else "",
                   notes=(f"orbit norms |{sys.factor}|**n bounded on the certified side",),
                   config=cfg)


def system_check(sys: SystemSpec, criterion: str, cfg: HorizonConfig) -> Verdict:
    """Verdict for a system; a direct sum is certified exactly when every
    component is (max-combined seminorms force the conjunction)."""
    if isinstance(sys, ShiftSystem):
        return check_criterion(sys.op, criterion, cfg)
    if isinstance(sys, ScalingSystem):
        return _scaling_check(sys, criterion, cfg)
    parts = [system_check(c, criterion, cfg) for c in sys.components]
    if all(p.certified for p in parts):
        kind = VerdictKind.CERTIFIED_UNBOUNDED
    elif any(p.kind is VerdictKind.INCONCLUSIVE for p in parts):
        kind = VerdictKind.INCONCLUSIVE
    else:
        kind = VerdictKind.BOUNDED_WITNESS
    labels = sorted({p.property_label for p in parts if p.property_label})
    return Verdict(criterion, kind,
                   property_label=",".join(labels),
                   notes=tuple(f"component {i}: {p.kind.value}" for i, p in enumerate(parts)),
                   config=cfg)


# ---------------------------------------------------------------------------
# metamorphic suite (the `props` command)
# ---------------------------------------------------------------------------

def run_props_suite(cfg: Optional[HorizonConfig] = None) -> dict:
    """Run the closure-law battery over preset systems; returns a pass/fail
    matrix keyed by law name."""
    from .spaces import preset
    from .shifts import constant_weights

    if cfg is None:
        cfg = HorizonConfig(n_max=256, window=64, m_grid=(1, 2, 4, 8), k_max=2,
                            basis_window=8)
    results: dict[str, dict] = {}

    lp2 = preset("lp_Z", 2)
    families = {
        "w=2": constant_weights(2),
        "w=1/2": constant_weights(Fraction(1, 2)),
        "w=1": constant_weights(1),
    }

    # rotation invariance: verdicts identical after a phase rotation
    rot = {}
    for name, w in families.items():
        op = ShiftOperator("backward", w, lp2)
        before = system_check(ShiftSystem(op), "ae", cfg)
        after = system_check(rotate(ShiftSystem(op), -1), "ae", cfg)
        rot[name] = before.to_json() == after.to_json()
    results["rotation-invariance"] = rot

    # inversion: orbit norms of the dual at n equal the original at -n
    inv = {}
    for name, w in families.items():
        op = ShiftOperator("backward", w, lp2)
        dual = dual_form(op)
        ok = all(
            basis_orbit_norm(dual, j0, n, k) == basis_orbit_norm(op, j0, -n, k)
            for j0 in (-3, 0, 2) for n in range(-6, 7) for k in (1, 2))
        inv[name] = ok
    results["inversion-orbit-symmetry"] = inv

    # power lattice law
    pw = {}
    for name, w in families.items():
        op = ShiftOperator("backward", w, lp2)
        for m in (2, 3):
            p = power(ShiftSystem(op), m)
            ok = all(
                power_orbit_norm(p, j0, n, k) == basis_orbit_norm(op, j0, m * n, k)
                for j0 in (-2, 0, 3) for n in range(-4, 5) for k in (1, 2))
            pw[f"{name},m={m}"] = ok
    results["power-lattice"] = pw

    # direct-sum conjunction over 2-component combinations
    ds = {}
    names = list(families)
    for i in range(len(names)):
        for jdx in range(i, len(names)):
            a, b = names[i], names[jdx]
            sa = ShiftSystem(ShiftOperator("backward", families[a], lp2))
            sb = ShiftSystem(ShiftOperator("backward", families[b], lp2))
            summed = direct_sum([sa, sb])
            for crit in ("ae", "ue", "ape", "upe"):
                whole = system_check(summed, crit, cfg).certified
                parts = (system_check(sa, crit, cfg).certified
                         and system_check(sb, crit, cfg).certified)
                ds[f"{crit}({a}+{b})"] = whole == parts
    results["direct-sum-conjunction"] = ds

    # conjugacy invariance: the transferred orbit of e_j matches the original
    # orbit of its diagonal image v_j e_j, exactly
    cj = {}
    for name in ("w=2", "w=1/2"):
        op = ShiftOperator("backward", families[name], lp2)
        conj, v = conjugacy_transfer(ShiftSystem(op))
        ok = all(
            basis_orbit_norm(conj.op, j0, n, k)
            == abs(v(j0)) * basis_orbit_norm(op, j0, n, k)
            for j0 in (-3, 0, 2) for n in range(-5, 6) for k in (1, 2))
        cj[name] = ok
    results["conjugacy-invariance"] = cj

    results["all_passed"] = all(
        all(v for v in section.values()) for key, section in results.items()
        if isinstance(section, dict))
    return results
