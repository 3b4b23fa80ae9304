"""Weighted shift operators, orbit norms, and structural transforms.

Basis action conventions (bilateral):

    backward:  B e_j = w_j e_{j-1}        (B x)_j = w_{j+1} x_{j+1}
    forward:   F e_j = w_j e_{j+1}        (F x)_j = w_{j-1} x_{j-1}

The walk rule, with d = ShiftOperator.step (-1 backward, +1 forward): T^i
e_{j0} is (w_{j0} w_{j0+d} ... w_{j0+(i-1)d}) e_{j0+id} and T^-i e_{j0} is
e_{j0-id} / (w_{j0-d} ... w_{j0-id}).  ShiftOperator.walk states it once, as
the span of weights an orbit meets and the order it meets them in;
basis_orbit_norm takes its product over that span, and every log-lane orbit
norm sums its log2 weights in that order.

Unilateral spaces use indices 1, 2, 3, ...; the unilateral backward shift
kills e_1 and the unilateral forward shift has no inverse.  All weights are
ingested as magnitudes (positive exact rationals): every criterion downstream
depends only on |w| and on nonnegative matrix entries, so phases are dropped
at the door.

The weight families are WeightSequence types: ConstantWeights,
GeometricWeights, TableWeights, blocks.BlockWeights and DualWeights (the
weights of an inverse).  JSON wire forms (to_json, weights_from_json,
``--weights @file.json``; none for DualWeights), scalars as in spaces:

    {"family": "constant", "value": <scalar>}
    {"family": "geometric", "coef": <scalar>, "ratio": <scalar>, "abs_index": false}
    {"family": "table", "tail": "error", "table": {"-1": <scalar>, "0": <scalar>}}
    {"family": "blocks", "j_max": 4}

Geometric weights are coef * ratio**j (coef * ratio**|j| with abs_index
true; default false).  A table's tail "error" (the default) rejects other
positions and may leave gaps; "hold" repeats the edge weights and allows no
gap.  The blocks form is the table of blocks.build_blocks(j_max), rebuilt on
load.  A table is held as runs of equal weights and written index by index.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .scalars import exact_from_json, exact_to_json, json_field, log2_exact
from .spaces import InvalidSpecError, ScaledMatrix, SpaceSpec

__all__ = [
    "ConstantWeights",
    "DualWeights",
    "GeometricWeights",
    "NotInvertibleError",
    "ShiftOperator",
    "UndefinedWeightError",
    "WeightSequence",
    "WitnessReport",
    "basis_orbit_norm",
    "conjugate_to_unweighted",
    "constant_weights",
    "dual_form",
    "geometric_weights",
    "parse_weights",
    "TableWeights",
    "table_weights",
    "tail_attestation",
    "weight_product",
    "weights_from_json",
    "window_check",
]


class UndefinedWeightError(KeyError):
    """A weight was requested outside the sequence's defined range."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


class NotInvertibleError(ValueError):
    """Inverse application requested where no inverse exists."""


@dataclass(frozen=True)
class WeightSequence:
    """Base of the weight families: nonzero weight magnitudes w(j), read as
    the (start, length, value) runs that cover [lo, hi] exactly (_runs; []
    if hi < lo), which raise UndefinedWeightError at the first index no run
    covers.  A weight family carries no tail attestation: tail_attestation
    admits ConstantWeights and their duals by type."""

    _log2_cache: object = field(default=None, init=False, repr=False, compare=False)

    def value(self, j: int) -> Fraction:
        return self._runs(j, j)[0][2]

    def log2(self, j: int) -> float:
        return log2_exact(self.value(j))

    def log2_window(self, lo: int, hi: int) -> np.ndarray:
        """Vector of log2 |w(j)| for j in [lo, hi].

        Served from one cached float64 array that grows with the index range
        requested, so every weight is converted at most once per sequence;
        one value is converted per run, so per index for geometric weights.  The
        result is a read-only view into that cache: copy it before writing.
        Raises UndefinedWeightError where value() would.
        """
        from ._kernels import Log2Cache
        if self._log2_cache is None:  # made on the first call: the exact lane makes none
            object.__setattr__(self, "_log2_cache", Log2Cache())
        return self._log2_cache.window(lo, hi, self._log2_fill)

    def _log2_fill(self, lo: int, hi: int) -> np.ndarray:
        import numpy as np
        runs = self._runs(lo, hi)
        return np.repeat([log2_exact(v) for _, _, v in runs], [n for _, n, _ in runs])

    def defined_range(self) -> Optional[tuple[int, int]]:
        """(lo, hi) for finite tables without a tail rule, None if unbounded."""
        return None


@dataclass(frozen=True)
class ConstantWeights(WeightSequence):
    """w(j) = weight at every j: one run."""

    weight: Fraction

    def _runs(self, lo: int, hi: int) -> list:
        return [(lo, hi - lo + 1, self.weight)] if lo <= hi else []

    def to_json(self) -> dict:
        return {"family": "constant", "value": exact_to_json(self.weight)}


@dataclass(frozen=True)
class GeometricWeights(WeightSequence):
    """w(j) = coef * ratio**j, over |j| with abs_index: one run per index."""

    coef: Fraction
    ratio: Fraction
    abs_index: bool = False

    def _runs(self, lo: int, hi: int) -> list:
        return [(j, 1, self.coef * self.ratio ** (abs(j) if self.abs_index else j))
                for j in range(lo, hi + 1)]

    def to_json(self) -> dict:
        return {"family": "geometric", "coef": exact_to_json(self.coef),
                "ratio": exact_to_json(self.ratio), "abs_index": bool(self.abs_index)}


@dataclass(frozen=True)
class TableWeights(WeightSequence):
    """Sorted maximal (start, length, value) runs on [lo, hi], gaps allowed
    for the 'error' tail; a 'hold' tail repeats the edge weights."""

    runs: tuple
    tail: str
    lo: int
    hi: int

    def _runs(self, lo: int, hi: int) -> list:
        if hi < lo:
            return []
        table, hold = self.runs, self.tail == "hold"
        out, j = [], lo  # j: the first index not yet covered
        if hold and j < self.lo:
            j = min(hi, self.lo - 1) + 1
            out.append((lo, j - lo, table[0][2]))
        # from the first run that ends at or after j, while the runs meet
        for start, n, v in table[bisect_right(table, j, key=lambda run: run[0] + run[1]):]:
            if start > j or j > hi:
                break
            end = min(hi, start + n - 1)
            out.append((j, end - j + 1, v))
            j = end + 1
        if j <= hi and not hold:
            raise UndefinedWeightError(f"weight table spans [{self.lo}, {self.hi}], got {j}")
        if j <= hi:  # hold tables have no gaps, so j > self.hi here
            out.append((j, hi - j + 1, table[-1][2]))
        return out

    def defined_range(self) -> Optional[tuple[int, int]]:
        return None if self.tail == "hold" else (self.lo, self.hi)

    def to_json(self) -> dict:
        return {"family": "table", "tail": self.tail,
                "table": {str(j): exact_to_json(v) for start, n, v in self.runs
                          for j in range(start, start + n)}}


@dataclass(frozen=True)
class DualWeights(WeightSequence):
    """w(j) = 1 / base(j + shift), run by run: the weights of dual_form."""

    base: WeightSequence
    shift: int

    def _runs(self, lo: int, hi: int) -> list:
        s = self.shift
        return [(a - s, n, 1 / v) for a, n, v in self.base._runs(lo + s, hi + s)]

    def defined_range(self) -> Optional[tuple[int, int]]:
        reach = self.base.defined_range()
        return None if reach is None else (reach[0] - self.shift, reach[1] - self.shift)

    def to_json(self) -> dict:
        raise InvalidSpecError("cannot serialize weight family 'dual'")


def _positive(value) -> Fraction:
    v = Fraction(value)
    if v == 0:
        raise InvalidSpecError("weights must be nonzero")
    return abs(v)


def constant_weights(value) -> ConstantWeights:
    return ConstantWeights(_positive(value))


def geometric_weights(coef, ratio, abs_index: bool = False) -> GeometricWeights:
    return GeometricWeights(_positive(coef), _positive(ratio), abs_index)


def table_weights(table: dict, tail: str = "error") -> TableWeights:
    """The table {j: w(j)} as maximal runs; a 'hold' table may have no gap."""
    if tail not in ("error", "hold"):
        raise InvalidSpecError(f"weight table tail must be 'error' or 'hold', got {tail!r}")
    runs: list = []
    for j, v in sorted((int(j), _positive(v)) for j, v in table.items()):
        if runs and runs[-1][0] + runs[-1][1] == j and runs[-1][2] == v:
            runs[-1][1] += 1
        else:
            runs.append([j, 1, v])
    if not runs:
        raise InvalidSpecError("empty weight table")
    lo, hi = runs[0][0], runs[-1][0] + runs[-1][1] - 1
    gap = next((a + n for (a, n, _), (b, _, _) in zip(runs, runs[1:]) if a + n < b), None)
    if tail == "hold" and gap is not None:
        raise InvalidSpecError(f"hold weight table has no weight at {gap} in [{lo}, {hi}]")
    return TableWeights(tuple(map(tuple, runs)), tail, lo, hi)


@dataclass(frozen=True)
class ShiftOperator:
    """direction 'backward' or 'forward', weight sequence, host space."""

    direction: str
    weights: WeightSequence
    space: SpaceSpec

    def __post_init__(self):
        if self.direction not in ("backward", "forward"):
            raise InvalidSpecError(f"direction must be backward/forward, got {self.direction!r}")

    @property
    def bilateral(self) -> bool:
        return self.space.bilateral

    @property
    def step(self) -> int:
        """d in T e_j = w_j e_{j+d}: -1 backward, +1 forward."""
        return -1 if self.direction == "backward" else 1

    def walk(self, j0: int, n: int) -> tuple[int, int, int]:
        """(lo, hi, order): T^n e_{j0} (T^-|n| for n < 0) meets the weights at
        lo..hi, ascending when order is 1 and descending when it is -1; hi =
        lo - 1 at n = 0.  A pure index rule on Z: whether the index set holds
        the walk, or the inverse exists, is the caller's question."""
        d = self.step if n >= 0 else -self.step
        first = j0 if n >= 0 else j0 + d  # T^-1 e_{j0} = e_{j0+d} / w_{j0+d}
        last = first + (abs(n) - 1) * d
        return (first, last, d) if d > 0 else (last, first, d)


def weight_product(w: WeightSequence, lo: int, hi: int) -> Fraction:
    """prod of w(j) over [lo, hi], one power per run; empty product is 1."""
    out = Fraction(1)
    for _, n, v in w._runs(lo, hi):
        out *= v ** n
    return out


def basis_orbit_norm(op: ShiftOperator, j0: int, n: int, k: int) -> Fraction:
    """||T^n e_{j0}||_k via the single-coordinate closed form.

    A weight product times one matrix entry (basis-vector norms do not depend
    on the exponent p).  tests/vector_oracle.py keeps the per-vector route
    this stands in for: T applied one step at a time, then the seminorm.
    """
    target = j0 + op.step * n
    if not op.bilateral and op.step < 0 and n < 0:
        raise NotInvertibleError("unilateral backward shift has no inverse")
    if not op.bilateral and target < 1:
        if op.step > 0:
            raise NotInvertibleError("inverse forward orbit leaves the index set")
        return Fraction(0)
    product = weight_product(op.weights, *op.walk(j0, n)[:2])
    return (product if n >= 0 else 1 / product) * op.space.matrix.entry(target, k)


# ---------------------------------------------------------------------------
# well-posedness / invertibility window checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessReport:
    """Outcome of a window check for one of the four operator conditions.

    status: 'holds' needs a finite window-sup plus a tail attestation and a
    clean zero pattern; 'fails' records a definitive zero-pattern violation
    or a structural obstruction; 'inconclusive' carries window evidence only.
    """

    condition: str
    status: str
    k: int
    level: Optional[int] = None
    window_sup_log2: Optional[float] = None
    window_sup: Optional[str] = None
    attestation: Optional[str] = None
    sup_at_boundary: bool = False
    detail: str = ""

    @property
    def ok(self) -> Optional[bool]:
        return {"holds": True, "fails": False}.get(self.status)

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "status": self.status,
            "k": self.k,
            "l": self.level,
            "window_sup_log2": self.window_sup_log2,
            "window_sup": self.window_sup,
            "attestation": self.attestation,
            "sup_at_boundary": self.sup_at_boundary,
            "detail": self.detail,
        }


def _ratio_terms(op: ShiftOperator, condition: str, k: int, level: int, window: int):
    """Exact (numerator, denominator) pairs over the window for one condition,
    by the walk rule T e_i = w(i) e_{i+d} with i = j + (d < 0):

    defined:     ||T e_i||_k = a(i+d, k) |w(i)|  vs  ||e_i||_l = a(i, l)
    invertible:  ||T^-1 e_{i+d}||_k vs ||e_{i+d}||_l, times |w(i)|:
                 a(i, k)  vs  a(i+d, l) |w(i)|
    """
    m, w, d = op.space.matrix, op.weights, op.step
    lo = 1 if not op.bilateral else -window
    pairs = []
    for j in range(lo, window + 1):
        i = j + (d < 0)
        try:
            if condition == "defined":
                num, den = m.entry(i + d, k) * w.value(i), m.entry(i, level)
            else:
                num, den = m.entry(i, k), m.entry(i + d, level) * w.value(i)
        except (UndefinedWeightError, IndexError):
            continue
        pairs.append((j, num, den))
    return pairs


def tail_attestation(op: ShiftOperator) -> Optional[dict]:
    """The one gate of tail attestations: the matrix family's attestation
    (see KotheMatrix) when the weights are constant or a dual of constant
    weights; None otherwise."""
    weights = op.weights
    while isinstance(weights, DualWeights):
        weights = weights.base
    return op.space.matrix.attestation if isinstance(weights, ConstantWeights) else None


def window_check(op: ShiftOperator, condition: str, k: int, cfg) -> WitnessReport:
    """Level search l in [k, l_max] for a finite window-sup certificate that
    the shift maps the space into itself (condition 'defined') or that its
    inverse does ('invertible'); definitive only with an attested tail.  The
    report is that of the first level whose zero pattern holds, with or
    without a tail attestation: no later level can change it."""
    name = f"{op.direction}-{condition}"
    if condition == "invertible" and not op.bilateral:
        reason = ("unilateral forward shift has no inverse" if op.direction == "forward"
                  else "unilateral backward shift has nontrivial kernel")
        return WitnessReport(name, "fails", k, detail=reason)
    attestation = (tail_attestation(op) or {}).get("ratio")
    for level in range(k, cfg.l_max + 1):
        pairs = _ratio_terms(op, condition, k, level, cfg.window)
        if not pairs:
            return WitnessReport(name, "inconclusive", k, detail="no weights on window")
        violation = next((j for j, num, den in pairs if den == 0 and num != 0), None)
        if violation is not None:
            # zero-pattern implication broken at this level; try the next one
            continue
        # 0/0 = 1 by convention
        ratios = [(j, Fraction(1) if num == 0 else num / den) for j, num, den in pairs]
        sup_j, sup = max(ratios, key=lambda t: t[1])
        return WitnessReport(
            name, "holds" if attestation else "inconclusive", k, level=level,
            window_sup_log2=log2_exact(sup), window_sup=str(sup), attestation=attestation,
            sup_at_boundary=sup_j in (pairs[0][0], pairs[-1][0]),
            detail="" if attestation else "finite window-sup but no tail attestation")
    return WitnessReport(
        name, "fails", k,
        detail=f"zero-pattern implication fails for every level <= {cfg.l_max} on the window")


# ---------------------------------------------------------------------------
# conjugacy to the unweighted shift, duality
# ---------------------------------------------------------------------------

def conjugate_to_unweighted(op: ShiftOperator):
    """Transfer a bilateral backward shift to the unweighted shift.

    Returns (conjugated SpaceSpec, unweighted backward shift on it, v).  The
    new space carries seminorms ||x||'_k = ||(v_j x_j)_j||_k, so the orbit of
    any vector under the unweighted shift there matches the orbit of its
    diagonal image under the weighted shift, exactly.  The diagonal is
    v_0 = 1, v_{-j} = w_{-j+1}...w_0 and v_j = 1/(w_1...w_j) for j > 0, so
    v_m = v_{m+1} * w_{m+1}.
    """
    if op.direction != "backward" or not op.bilateral:
        raise InvalidSpecError("conjugacy transfer is defined for bilateral backward shifts")
    w = op.weights
    pos, neg = [Fraction(1)], [Fraction(1)]  # v_0, v_1, ... and v_0, v_-1, ...

    def v(j: int) -> Fraction:
        while len(pos) <= j:
            pos.append(pos[-1] / w.value(len(pos)))
        while len(neg) <= -j:
            neg.append(neg[-1] * w.value(1 - len(neg)))
        return pos[j] if j >= 0 else neg[-j]

    new_matrix = ScaledMatrix(op.space.matrix, v)
    new_space = SpaceSpec(new_matrix, op.space.p)
    unweighted = ShiftOperator("backward", constant_weights(1), new_space)
    return new_space, unweighted, v


def dual_form(op: ShiftOperator) -> ShiftOperator:
    """The inverse, represented as the opposite-direction shift.

    F_w^{-1} = B_{w'} with w'_j = 1/w_{j-1};  B_w^{-1} = F_{w'} with
    w'_j = 1/w_{j+1}.  The tests check dual_form(op)^n x == op^(-n) x with
    the per-vector route of tests/vector_oracle.py.
    """
    if not op.bilateral:  # a unilateral forward shift misses e_1, a backward one kills it
        raise NotInvertibleError("unilateral shifts have no dual inverse form")
    return ShiftOperator("forward" if op.step < 0 else "backward",
                         DualWeights(op.weights, -op.step), op.space)


# ---------------------------------------------------------------------------
# wire formats
# ---------------------------------------------------------------------------

def weights_from_json(obj: dict) -> WeightSequence:
    """Inverse of WeightSequence.to_json; a missing or malformed field is an
    InvalidSpecError naming it."""
    where = "weight JSON"
    fam = json_field(obj, "family", where, str)
    if fam == "constant":
        return constant_weights(exact_from_json(json_field(obj, "value", where)))
    if fam == "geometric":
        return geometric_weights(exact_from_json(json_field(obj, "coef", where)),
                                 exact_from_json(json_field(obj, "ratio", where)),
                                 bool(obj.get("abs_index")))
    if fam == "table":
        table = json_field(obj, "table", where, dict)
        return table_weights({int(j): exact_from_json(v) for j, v in table.items()},
                             obj.get("tail", "error"))
    if fam == "blocks":
        from .blocks import build_blocks

        return build_blocks(json_field(obj, "j_max", where, int))
    raise InvalidSpecError(f"unknown weight family {fam!r}")


# argument count and usage of each weight shorthand
_SHORTHANDS = {"constant": (1, "constant:<c>"), "geometric": (2, "geometric:<coef>:<ratio>[:abs]"),
               "blocks": (1, "blocks:<J>")}


def parse_weights(text: str) -> WeightSequence:
    """CLI shorthand: 'constant:2', 'constant:1/2', 'geometric:1:2[:abs]', 'blocks:4'."""
    fam, *args = text.split(":")
    if fam not in _SHORTHANDS:
        raise InvalidSpecError(f"cannot parse weight shorthand {text!r}")
    needed, usage = _SHORTHANDS[fam]
    try:
        nums = [int(a) if fam == "blocks" else Fraction(a) for a in args[:needed]]
    except (ValueError, ZeroDivisionError):
        nums = []
    optional = [["abs"]] if fam == "geometric" else []
    if len(nums) < needed or args[needed:] not in [[], *optional]:
        raise InvalidSpecError(f"weight shorthand {text!r} needs {usage}")
    if fam == "constant":
        return constant_weights(nums[0])
    if fam == "geometric":
        return geometric_weights(nums[0], nums[1], args[2:3] == ["abs"])
    from .blocks import build_blocks

    return build_blocks(nums[0])
