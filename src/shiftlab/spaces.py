"""Köthe matrices, sequence-space specs, and the preset catalog.

A matrix must produce entries at arbitrary indices, so its families, all
KotheMatrix types, are closed forms (ConstantMatrix, PowerMatrix,
HalflineMatrix, ScaledMatrix) or a tabulated window with a declared tail
rule (TableMatrix).  Entries a(j, k) are nonnegative exact rationals,
nondecreasing in the level k, with every row eventually positive.

JSON wire form of a space (space_to_json, space_from_json, ``--space
@file.json``), exact scalars written {"num": "<int>", "den": "<int>"}:

    {"family": "constant", "index_set": "Z", "p": 0, "params": {"value": <scalar>}}
    {"family": "power", "index_set": "N", "p": 1}
    {"family": "halfline", "p": 2}
    {"family": "table", "index_set": "Z", "p": 0, "params": {"lo": -1, "hi": 1,
     "tail": "hold", "rows": {"-1": [<a(-1,1)>, <a(-1,2)>], "0": [...], "1": [...]}}}

Defaults: index_set "Z" ("N" is 1, 2, ...; half-line matrices are always
"Z" and reject "N"), p 0 (else a number >= 1, not a bool), constant value
1, table tail "error" (rejects j outside [lo, hi]; "hold" repeats the edge
rows).  A table has a row for every j in [lo, hi]; levels past the end of a
row repeat its last entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, ClassVar, Optional

from .scalars import (
    InvalidSpecError,
    ZERO_LOG2,
    exact_from_json,
    exact_to_json,
    json_field,
    log2_exact,
)

__all__ = [
    "ConstantMatrix",
    "HalflineMatrix",
    "KotheMatrix",
    "PowerMatrix",
    "ScaledMatrix",
    "SpaceSpec",
    "TableMatrix",
    "constant_matrix",
    "parse_space",
    "preset",
    "PRESET_NAMES",
    "space_from_json",
    "space_to_json",
    "table_matrix",
]

_BILATERAL = "Z"
_UNILATERAL = "N"


@dataclass(frozen=True)
class KotheMatrix:
    """Base of the matrix families a(j, k).  A family gives its entries
    (_entry), wire name and params, and its tail attestation (None: no
    rule), with which the finite-horizon checkers decide, under constant
    weights (shifts.tail_attestation), whether window extrema extend to the
    index tails: its name in reports, and the reasons why a window-check
    ratio sup ("ratio") and a uniform ratio profile ("profile") do.  An
    attestation without reasons, a hold table's, attests only the term
    profiles of the running averages and "e".  Every family states its
    edges(k); those profiles are attested only past them.

    The families with a "profile" reason, and only they, also give
    ratio_minimisers(k, l, s) -> (columns, ratio) for r(j) = a(j + s, l) /
    a(j, k), s an int array (one shift per step) or an int.  Over any run
    of consecutive valid columns (a(j, k) > 0), r is least at a run end or
    at one of the columns clipped to the run; the family's docstring proves
    it.  ratio is None when the finite values of r at a step are all equal,
    else the exact r(j) at (j, s)."""

    family: ClassVar[str]
    attestation: ClassVar[Optional[dict]] = None
    index_set = _BILATERAL  # a field of the families that take either index set
    _log2_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def entry(self, j: int, k: int) -> Fraction:
        """Exact entry a(j, k); k >= 1."""
        if k < 1:
            raise ValueError("seminorm level k must be >= 1")
        if self.index_set == _UNILATERAL and j < 1:
            raise IndexError(f"index {j} outside unilateral index set")
        return self._entry(j, k)

    def entry_log2(self, j: int, k: int) -> float:
        return log2_exact(self.entry(j, k))

    def log2_row(self, k: int, lo: int, hi: int) -> np.ndarray:
        """Vector of log2 a(j, k) for j in [lo, hi]; -inf marks zero entries.

        Unilateral matrices report -inf for j < 1 so that window sweeps can use
        a uniform indexing.  Each family holds only what it converts, so every
        value is converted at most once per level: a constant matrix its one
        value, a power matrix a cached row over |j| per level, the others a
        cached row per level grown on request (_log2_span).  The result may be a
        read-only view (into a cache, or a constant matrix's one value at every
        index, with stride 0) or a fresh array: callers only read it.
        """
        import numpy as np  # the log lane, and numpy, load here
        if k < 1:
            raise ValueError("seminorm level k must be >= 1")
        if hi < lo:
            return np.empty(0)
        if self.index_set == _UNILATERAL and lo < 1:
            head = np.full(min(hi, 0) - lo + 1, ZERO_LOG2)
            return head if hi < 1 else np.concatenate((head, self._log2_span(k, 1, hi)))
        return self._log2_span(k, lo, hi)

    def _log2_span(self, k: int, lo: int, hi: int) -> np.ndarray:
        """The level's cached row over [lo, hi] inside the index set, filled entry by entry."""
        import numpy as np
        from ._kernels import Log2Cache

        def fill(a: int, b: int) -> np.ndarray:
            entries = (self.entry(j, k) for j in range(a, b + 1))
            try:
                return np.fromiter(map(log2_exact, entries), dtype=np.float64, count=b - a + 1)
            except IndexError as exc:  # an 'error' tail table that the horizon outruns
                raise InvalidSpecError(str(exc)) from None
        return self._log2_rows.setdefault(k, Log2Cache()).window(lo, hi, fill)

    def edges(self, k: int) -> Optional[tuple[int, int]]:
        """(lo, hi): on j <= lo and on j >= hi, log2 a(j, k) is concave or
        constantly -inf, so a walk of constant weights past them has
        log-concave norms.  None: everywhere."""
        return None

    def wire_params(self) -> dict:  # the "params" of the space wire form
        return {}


@dataclass(frozen=True)
class ConstantMatrix(KotheMatrix):
    """a(j, k) = value at every index and level."""

    value: Fraction
    index_set: str = _BILATERAL
    family = "constant"

    def _entry(self, j: int, k: int) -> Fraction:
        return self.value

    @cached_property
    def _log2_value(self) -> float:
        return log2_exact(self.value)

    def _log2_span(self, k: int, lo: int, hi: int) -> np.ndarray:
        import numpy as np
        # one value at every index and level: a read-only view, no row
        return np.broadcast_to(self._log2_value, hi - lo + 1)

    attestation = {"name": "constant",
                   "ratio": "constant matrix rows and constant weights: ratio constant in j",
                   "profile": "constant ratio profile in j"}

    def ratio_minimisers(self, k: int, l: int, s):
        """r(j) is 0 while a(j + s, l) = 0 (j + s < 1 on N) and 1 after:
        nondecreasing in j, so the low end of a run is a minimiser, and
        every finite value is 1."""
        return (), None

    def wire_params(self) -> dict:
        return {"value": exact_to_json(self.value)}


@dataclass(frozen=True)
class PowerMatrix(KotheMatrix):
    """a(j, k) = (|j| + 1)**k, the rapidly-decreasing-sequences family."""

    index_set: str = _BILATERAL
    _log2_half_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    family = "power"

    def _entry(self, j: int, k: int) -> Fraction:
        return Fraction((abs(j) + 1) ** k)

    def edges(self, k: int) -> tuple[int, int]:
        return 0, 0  # the kink of |j|

    def _log2_span(self, k: int, lo: int, hi: int) -> np.ndarray:
        """a(j, k) = a(-j, k): slices of a cached row over |j| >= 0, so each
        value is converted once per level whatever the signs of j."""
        import numpy as np
        from ._kernels import Log2Cache
        rows = self._log2_half_rows.setdefault(k, Log2Cache())

        def fill(a: int, b: int) -> np.ndarray:  # at |j| = a..b
            return np.fromiter((log2_exact((i + 1) ** k) for i in range(a, b + 1)),
                               dtype=np.float64, count=b - a + 1)
        if lo >= 0:
            return rows.window(lo, hi, fill)
        if hi <= 0:
            return rows.window(-hi, -lo, fill)[::-1]
        row = rows.window(0, max(-lo, hi), fill)
        return np.concatenate((row[-lo:0:-1], row[:hi + 1]))  # j = lo..-1, then 0..hi

    attestation = {"name": "polynomial",
                   "ratio": "polynomial matrix and constant weights: ratio monotone on each tail",
                   "profile": "ratio profile unimodal in j on each half-line"}

    def ratio_minimisers(self, k: int, l: int, s):
        """r(j) = (|j + s| + 1)**l / (|j| + 1)**k.  The kinks j = 0 and
        j = -s split the integers into three pieces:
        - between the kinks r is monotone: one of |j + s| and |j| grows with
          j while the other shrinks;
        - on j >= max(0, -s), r(j) = (j + s + 1)**l / (j + 1)**k, whose log
          has derivative l/(j + s + 1) - k/(j + 1), of the sign of
          (l - k) j - (k (s + 1) - l): of one sign for l = k, else falling
          then rising through j* = (k (s + 1) - l) / (l - k);
        - on j <= min(0, -s), with u = -j, r = (u + 1 - s)**l / (u + 1)**k,
          the same shape in u, about u* = (k (1 - s) - l) / (l - k).
        So on a run of columns r is least at a run end, at a kink, or at an
        integer next to j* or -u*.  Inside a run the kink 0 is not least:
        one step towards -s, |j| grows while |j + s| shrinks.  On N, r is 0
        for j + s < 1 and as above after: the zeros are the low end of a
        run, and a run without them lies in the last piece."""
        columns = [-s]
        if l > k:
            j_star, u_star = k * (s + 1) - l, k * (1 - s) - l  # times l - k
            columns += [j_star // (l - k), -(-j_star // (l - k)),
                        -u_star // (l - k), -(u_star // (l - k))]
        return columns, lambda j, s: Fraction((abs(j + s) + 1) ** l, (abs(j) + 1) ** k)


@dataclass(frozen=True)
class HalflineMatrix(KotheMatrix):
    """a(j, k) = 1 for j > -k, else 0; rows fill in as the level grows."""

    family = "halfline"

    def _entry(self, j: int, k: int) -> Fraction:
        return Fraction(1) if j > -k else Fraction(0)

    def edges(self, k: int) -> tuple[int, int]:
        return -k, 1 - k  # the step from 0 to 1

    attestation = {"name": "step",
                   "ratio": "step matrix and constant weights: ratio eventually constant on each tail",
                   "profile": "ratio profile constant on the support"}

    def ratio_minimisers(self, k: int, l: int, s):
        """r(j) is 0 for j + s <= -l and 1 after: nondecreasing in j, so the
        low end of a run is a minimiser, and every finite value is 1."""
        return (), None


@dataclass(frozen=True)
class TableMatrix(KotheMatrix):
    """Rows (a(j, 1), a(j, 2), ...) for every j in [lo, hi] and a tail rule."""

    rows: dict
    lo: int
    hi: int
    tail: str = "error"
    index_set: str = _BILATERAL
    family = "table"

    @property
    def attestation(self) -> Optional[dict]:
        return {"name": "hold"} if self.tail == "hold" else None

    def edges(self, k: int) -> tuple[int, int]:
        return self.lo, self.hi  # a 'hold' tail repeats the edge rows past them

    def _entry(self, j: int, k: int) -> Fraction:
        lo, hi = self.lo, self.hi
        if self.tail != "hold" and not lo <= j <= hi:
            raise IndexError(f"matrix entry at j={j} outside tabulated window [{lo},{hi}]")
        row = self.rows[min(max(j, lo), hi)]  # a 'hold' tail repeats the edge rows
        return row[min(k, len(row)) - 1]

    def wire_params(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "tail": self.tail,
                "rows": {str(j): [exact_to_json(v) for v in row] for j, row in self.rows.items()}}


@dataclass(frozen=True)
class ScaledMatrix(KotheMatrix):
    """Diagonal rescale a'(j, k) = a(j, k) * |diag(j)| (conjugated spaces)."""

    base: KotheMatrix
    diag: Callable[[int], Fraction]
    family = "scaled"

    @property
    def index_set(self) -> str:
        return self.base.index_set

    def _entry(self, j: int, k: int) -> Fraction:
        return self.base.entry(j, k) * abs(self.diag(j))

    def wire_params(self) -> dict:
        raise InvalidSpecError("cannot serialize matrix family 'scaled'")


def constant_matrix(value: Fraction | int = 1, index_set: str = _BILATERAL) -> ConstantMatrix:
    if Fraction(value) <= 0:  # every row must be eventually positive
        raise InvalidSpecError(f"constant matrix value must be > 0, got {value}")
    return ConstantMatrix(Fraction(value), index_set)


def table_matrix(rows: dict, lo: int, hi: int, tail: str = "error",
                 index_set: str = _BILATERAL) -> TableMatrix:
    if tail not in ("error", "hold"):
        raise InvalidSpecError(f"matrix table tail must be 'error' or 'hold', got {tail!r}")
    frozen = {int(j): tuple(Fraction(v) for v in vals) for j, vals in rows.items()}
    missing = next((j for j in range(lo, hi + 1) if j not in frozen), None)
    if missing is not None:
        raise InvalidSpecError(f"table has no row for index {missing} in [{lo}, {hi}]")
    for j, vals in frozen.items():
        if any(v < 0 for v in vals):
            raise InvalidSpecError("matrix entries must be nonnegative")
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            raise InvalidSpecError(f"row {j} not nondecreasing in the level")
        if all(v == 0 for v in vals):
            raise InvalidSpecError(f"row {j} has no positive entry")
    return TableMatrix(frozen, lo, hi, tail, index_set)


@dataclass(frozen=True)
class SpaceSpec:
    """A sequence space: matrix plus exponent p in {0} union [1, inf).

    p = 0 selects the weighted-sup seminorm, p >= 1 the weighted power sum.
    """

    matrix: KotheMatrix
    p: float = 0

    def __post_init__(self):
        if (isinstance(self.p, bool) or not isinstance(self.p, (int, float))
                or not (self.p == 0 or self.p >= 1)):
            raise InvalidSpecError(f"exponent p must be 0 or >= 1, got {self.p!r}")

    @property
    def index_set(self) -> str:
        return self.matrix.index_set

    @property
    def bilateral(self) -> bool:
        return self.index_set == _BILATERAL


PRESET_NAMES = ("c0_Z", "lp_Z", "c0_N", "lp_N", "s_Z", "halfline_Z")


def preset(name: str, p: float | None = None) -> SpaceSpec:
    """Preset catalog.

    c0_Z / c0_N: sup-norm spaces with unit matrix; lp_Z(p) / lp_N(p): power
    sum spaces with unit matrix; s_Z: rapidly decreasing sequences
    (a(j,k) = (|j|+1)**k, p = 1); halfline_Z: step matrix, any p.  Only
    lp_Z, lp_N and halfline_Z take p.
    """
    if p is not None and name in ("c0_Z", "c0_N", "s_Z"):
        raise InvalidSpecError(f"preset {name} takes no exponent, got p = {p!r}")
    if name == "c0_Z":
        return SpaceSpec(constant_matrix(1, _BILATERAL), 0)
    if name == "c0_N":
        return SpaceSpec(constant_matrix(1, _UNILATERAL), 0)
    if name == "lp_Z":
        return SpaceSpec(constant_matrix(1, _BILATERAL), 1 if p is None else p)
    if name == "lp_N":
        return SpaceSpec(constant_matrix(1, _UNILATERAL), 1 if p is None else p)
    if name == "s_Z":
        return SpaceSpec(PowerMatrix(_BILATERAL), 1)
    if name == "halfline_Z":
        return SpaceSpec(HalflineMatrix(), 0 if p is None else p)
    raise InvalidSpecError(f"unknown preset {name!r} (known: {', '.join(PRESET_NAMES)})")


def parse_space(text: str) -> SpaceSpec:
    """Parse CLI shorthand like 'lp_Z:2', 's_Z', 'halfline_Z'."""
    name, colon, arg = text.partition(":")
    try:
        p = (float(arg) if "." in arg else int(arg)) if colon else None
    except ValueError:
        raise InvalidSpecError(
            f"--space needs <preset>[:<p>] with a number p, got {text!r}") from None
    return preset(name, p)


def space_to_json(space: SpaceSpec) -> dict:
    return {
        "family": space.matrix.family,
        "params": space.matrix.wire_params(),
        "p": space.p,
        "index_set": space.index_set,
    }


def space_from_json(obj: dict) -> SpaceSpec:
    """Inverse of space_to_json; a missing or malformed field is an
    InvalidSpecError naming it."""
    fam = json_field(obj, "family", "space JSON", str)
    params = json_field(obj, "params", "space JSON", dict) if "params" in obj else {}
    index_set = obj.get("index_set", _BILATERAL)
    if index_set not in (_BILATERAL, _UNILATERAL):
        raise InvalidSpecError(
            f"space JSON field 'index_set' must be 'Z' or 'N', got {index_set!r}")
    p = obj.get("p", 0)
    if fam == "constant":
        matrix = constant_matrix(exact_from_json(params["value"]) if "value" in params else 1,
                                 index_set)
    elif fam == "power":
        matrix = PowerMatrix(index_set)
    elif fam == "halfline":
        if index_set != _BILATERAL:
            raise InvalidSpecError(f"halfline space JSON needs index_set 'Z', got {index_set!r}")
        matrix = HalflineMatrix()
    elif fam == "table":
        where = "space JSON params"
        rows = json_field(params, "rows", where, dict)
        bad = next((j for j, row in rows.items() if not isinstance(row, list)), None)
        if bad is not None:
            raise InvalidSpecError(
                f"{where} row {bad} must be a list of scalars, got {rows[bad]!r}")
        matrix = table_matrix({int(j): [exact_from_json(v) for v in row]
                               for j, row in rows.items()},
                              json_field(params, "lo", where, int),
                              json_field(params, "hi", where, int),
                              params.get("tail", "error"), index_set)
    else:
        raise InvalidSpecError(f"unknown matrix family {fam!r} in space JSON")
    return SpaceSpec(matrix, p)
