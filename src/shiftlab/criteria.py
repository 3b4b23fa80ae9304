"""Finite-horizon certificate checkers for expansivity criteria.

The analytic statements all have the shape "some sup/limit is infinite".
At desk scale they become three-valued verdicts:

* certified-unbounded: every threshold of the run's grid was crossed within
  the horizon (the crossing schedule is recorded as first_n per threshold).
  For window-infimum criteria a crossing only counts when the window value
  is a true infimum, which requires a structural tail attestation of the
  ratio profile plus an interior (not tail-edge) attainment check.
* bounded-witness: an explicit per-term bound on the window with a tail
  attestation (term profile nonincreasing past the matrix's edges(k)).
* inconclusive: window evidence only.

A sup (averages, basis orbits) records first crossings, which a larger
horizon keeps; both read _orbit_log2 from n = 0, a matrix row plus the walk
sum (_walk_log2): the averages at e_0, one orbit per level for both
branches, the basis diagnostic at every index of its window.  Uniform expansivity (Bernardes et al., J. Funct. Anal. 288
(2025) 110696) is a limit in n: for k <= k_max some l <= l_max has lim over
n of inf over j in the window of ||T^n e_j||_l / ||e_j||_k infinite; its
curves read the same walk sum, of the shift itself.  Its first_n is the
first usable step after the last usable step below the threshold, so only a
fall past the horizon can revoke it; an attested window value at a usable
step is a true infimum, fixed as the window grows.

A window-infimum curve is read only at the columns where its matrix family
puts the minimum (its ratio_minimisers, see KotheMatrix).  A tie between
equal ratios is float equality of identical operands on constant and step
matrices, and is decided exactly on power matrices.  A check searches only
while its report can still change, so no window-infimum curve is computed
for a family pair without a tail attestation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .scalars import ZERO_LOG2
from .spaces import InvalidSpecError
from .shifts import NotInvertibleError, ShiftOperator, tail_attestation

__all__ = [
    "BranchEvidence",
    "Crossing",
    "HierarchyReport",
    "HorizonConfig",
    "Verdict",
    "VerdictKind",
    "check_criterion",
    "hierarchy_audit",
]


@dataclass(frozen=True)
class HorizonConfig:
    """Finite truncation of the quantifiers: horizon for n, index window for
    j, ascending threshold grid, seminorm level bounds."""

    n_max: int = 10_000
    window: int = 1_000
    m_grid: tuple = tuple(2 ** m for m in range(0, 21))
    k_max: int = 3
    l_max: Optional[int] = None
    basis_window: int = 50

    def __post_init__(self):
        if self.n_max < 1 or self.window < 1 or self.k_max < 1:
            raise InvalidSpecError("n_max, window, k_max must all be >= 1")
        if self.basis_window < 1:
            raise InvalidSpecError(f"basis_window must be >= 1, got {self.basis_window}")
        grid = tuple(self.m_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidSpecError("m_grid must be nonempty and strictly increasing")
        if grid[0] <= 0:
            raise InvalidSpecError(f"m_grid entries must be > 0, got {grid[0]}")
        if grid[-1] <= 1:  # reaching only M <= 1 shows no growth
            raise InvalidSpecError(f"m_grid needs a threshold above 1, got {list(grid)}")
        object.__setattr__(self, "m_grid", grid)
        if self.l_max is None:
            object.__setattr__(self, "l_max", self.k_max + 5)
        if self.l_max < self.k_max:
            raise InvalidSpecError("l_max must be >= k_max")

    def to_json(self) -> dict:
        return {"n_max": self.n_max, "window": self.window,
                "m_grid": list(self.m_grid), "k_max": self.k_max,
                "l_max": self.l_max, "basis_window": self.basis_window}


class VerdictKind(Enum):
    CERTIFIED_UNBOUNDED = "CertifiedUnbounded"
    BOUNDED_WITNESS = "BoundedWitness"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Crossing:
    threshold: float
    first_n: Optional[int]

    def to_json(self) -> dict:
        return {"M": self.threshold, "first_n": self.first_n}


@dataclass(frozen=True)
class BranchEvidence:
    """Outcome for one (k, level, branch) instance."""

    k: int
    level: Optional[int]
    label: str
    certified: bool
    crossings: tuple = ()
    bound_log2: Optional[float] = None
    attestation: Optional[str] = None
    n_eff: Optional[int] = None
    detail: str = ""

    def to_json(self) -> dict:
        return {"k": self.k, "l": self.level, "branch": self.label,
                "certified": self.certified,
                "crossings": [c.to_json() for c in self.crossings],
                "bound_log2": self.bound_log2, "attestation": self.attestation,
                "n_eff": self.n_eff, "detail": self.detail}


@dataclass(frozen=True)
class Verdict:
    criterion: str
    kind: VerdictKind
    branch: str = ""
    property_label: str = ""
    evidence: tuple = ()
    notes: tuple = ()
    config: Optional[HorizonConfig] = None

    @property
    def certified(self) -> bool:
        return self.kind is VerdictKind.CERTIFIED_UNBOUNDED

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "kind": self.kind.value,
            "branch": self.branch,
            "property": self.property_label,
            "evidence": [e.to_json() for e in self.evidence],
            "notes": list(self.notes),
            "config": self.config.to_json() if self.config else None,
        }


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

# log-lane tie guard: exact boundary hits (average exactly equal to a dyadic
# threshold) accumulate ~1 ulp of drift in the streaming log sums; values
# this close to a threshold are treated as crossings
CROSS_EPS = 2.0 ** -30


def _grid_log2(m_grid: Sequence) -> list[float]:
    return [math.log2(float(m)) for m in m_grid]


def _first_crossings(values: np.ndarray, m_grid: Sequence,
                     usable: Optional[np.ndarray] = None, n0: int = 1):
    """Per threshold M, the first step n with values[n - n0] >= log2(M),
    values[0] being step n0 (1, or 0 for a sup from ||e_j||_k on);
    certified when every threshold crosses.  With usable (a limit in n), the
    first usable n after the last usable step below log2(M).

    One searchsorted reads every threshold off a nondecreasing curve: the
    running maximum for a first crossing; for a limit, the suffix minimum
    over the usable steps, whose first entry at or above log2(M) is the
    first usable step after the last one below.  This needs values free of
    NaN, which the curves are (finite or -inf)."""
    thresholds = np.array(_grid_log2(m_grid)) - CROSS_EPS
    if usable is None:
        steps = np.arange(values.size)
        rising = np.maximum.accumulate(values)
    else:
        steps = np.flatnonzero(usable)
        rising = np.minimum.accumulate(values[steps][::-1])[::-1]
    crossings = tuple(Crossing(float(m), int(steps[i]) + n0 if i < steps.size else None)
                      for m, i in zip(m_grid, np.searchsorted(rising, thresholds)))
    return crossings, all(c.first_n is not None for c in crossings)


def _walk_log2(op: ShiftOperator, j0: int, n: int, sign: int) -> np.ndarray:
    """log2 |coefficient| of T^(sign i) e_{j0} at i = 0..n, 0.0 at i = 0.

    By the walk rule of shifts (d = -1 backward, +1 forward), T^i e_{j0}
    meets w at j0, ..., j0 + (i - 1)d and T^-i e_{j0} at j0 - d, ..., j0 - id;
    the walk sums their log2 in that order (np.cumsum; another summation
    order rounds otherwise), negated for T^-i."""
    step = sign * (-1 if op.direction == "backward" else 1)
    first = j0 + (sign < 0) * step  # the first weight the walk meets
    logs = op.weights.log2_window(*((first, first + n - 1) if step > 0 else (first - n + 1, first)))
    return sign * np.cumsum(np.concatenate(([0.0], logs[::step])))  # in walk order


def _orbit_log2(op: ShiftOperator, j0: int, levels: Sequence[int], n: int):
    """Per level k in levels, (pos, neg): log2 ||T^i e_{j0}||_k and log2
    ||T^-i e_{j0}||_k at i = 0..n, the row at e_{j0 +- id} plus the walk; neg
    is None when the shift has no inverse.  The walk sums, the same at every
    level, are taken once.  Off-lattice targets give -inf; on N, B e_1 = 0
    ends a backward orbit, whose walk reads w_{j0} ... w_2 only."""
    d = -1 if op.direction == "backward" else 1
    live = n if op.bilateral or d > 0 else min(n, j0 - 1)  # steps before the orbit dies
    walk = np.concatenate((_walk_log2(op, j0, live, 1), np.full(n - live, ZERO_LOG2)))
    back = _walk_log2(op, j0, n, -1) if op.bilateral else None
    for k in levels:
        row = op.space.matrix.log2_row(k, j0 - n, j0 + n)  # a(j0 + i, k) at row[n + i]
        yield row[n::d] + walk, None if back is None else row[n::-d] + back


def _avg_term_logs(op: ShiftOperator, levels: Sequence[int], n_eff: int):
    """Per level k in levels, log2 of each branch's terms, j = 1..n_eff, from
    one orbit: of e_0 under T ('left') and T^-1 ('right'); on a unilateral
    forward shift ('unilateral') ||e_1||_k, then the orbit of e_1."""
    if not op.bilateral:
        return ({"unilateral": pos} for pos, _ in _orbit_log2(op, 1, levels, n_eff - 1))
    return ({"left": pos[1:], "right": neg[1:]} for pos, neg in _orbit_log2(op, 0, levels, n_eff))


def _window_bound(op: ShiftOperator, values: np.ndarray, j0: int, n: int, sign: int,
                  k: int) -> Optional[tuple[int, dict]]:
    """The window-bound rule of ae, ape, mixing and e, for level-k values
    along the walk of n steps from e_{j0} under T^sign (as _walk_log2):
    (index of the maximum, tail attestation) when shifts.tail_attestation
    attests the family pair and the maximum sits at the start (nonincreasing
    profile) or strictly inside the window (unimodal peak), the last step not
    rising; else None.  The attestation vouches only past the matrix's edges
    (lo, hi) at level k (KotheMatrix.edges), where walks of constant weights
    are log-concave: the walk's last two steps must lie past the edge on the
    side it walks, below lo or above hi."""
    attestation = tail_attestation(op)
    lo, hi = op.space.matrix.edges(k) or (math.inf, -math.inf)  # none: everywhere
    step = sign * (-1 if op.direction == "backward" else 1)  # T^sign e_j lands at e_{j+step}
    last = j0 + step * (n - 1)  # the walk's next-to-last step
    arg = int(np.argmax(values))
    if not attestation or (last >= lo if step < 0 else last <= hi) or arg == values.size - 1:
        return None
    return (arg, attestation) if values[-1] <= values[-2] else None


def _walk_n_eff(op: ShiftOperator, cfg: HorizonConfig, radius: int) -> Optional[int]:
    """The largest n <= cfg.n_max at which the walks from every basis index
    within `radius` ([-r, r]; [1, r] on N) read only weights of a finite
    table on [lo, hi], else None.  n steps each way read w on [-r-n+1, r+n]
    backward and [-r-n, r+n-1] forward; on N, T alone reads [2, r] backward
    (_orbit_log2) and [1, r+n-1] forward (r = 0: the averages' n-1 steps from e_1)."""
    lo, hi = op.weights.defined_range() or (-math.inf, math.inf)
    back = op.direction == "backward"
    if op.bilateral:
        n = min(cfg.n_max, back - radius - lo, hi - radius + 1 - back)
    elif back:
        n = cfg.n_max if radius < 2 or lo <= 2 and radius <= hi else 0
    else:
        n = min(cfg.n_max, hi - radius + 1) if lo <= 1 else 0
    return n if n >= 1 else None


def _avg_n_eff(op: ShiftOperator, cfg: HorizonConfig) -> int:
    """The reach of the walks from e_0 (e_1 on N), which ae, ape and mixing read."""
    n_eff = _walk_n_eff(op, cfg, 0)
    if n_eff is None:
        raise InvalidSpecError("weight table too small for the requested horizon")
    return n_eff


def _avg_evidence(op: ShiftOperator, cfg: HorizonConfig,
                  branches: Sequence[str]) -> list[BranchEvidence]:
    """Evidence for every level k = 1..k_max, k-major, branches in the given
    order within each k: the first crossings of the running averages, and a
    bound on the terms where _window_bound gives one."""
    n_eff = _avg_n_eff(op, cfg)
    evidence = []
    for k, terms in enumerate(_avg_term_logs(op, range(1, cfg.k_max + 1), n_eff), 1):
        for branch in branches:
            averages = _kernels.running_log2_average(terms[branch])
            crossings, certified = _first_crossings(averages, cfg.m_grid)
            ev = BranchEvidence(k=k, level=k, label=branch, certified=certified,
                                crossings=crossings, n_eff=n_eff)
            bound = _window_bound(op, terms[branch], 0, n_eff, -1 if branch == "right" else 1, k)
            if bound is not None:
                arg, attestation = bound
                profile = "nonincreasing term profile" if arg == 0 else "unimodal term profile"
                ev = replace(ev, bound_log2=float(terms[branch][arg]), attestation=(
                    f"{profile} ({attestation['name']} matrix, constant weights)"))
            evidence.append(ev)
    return evidence


def _kind(certified: bool, bounded: bool) -> VerdictKind:
    if certified:
        return VerdictKind.CERTIFIED_UNBOUNDED
    return VerdictKind.BOUNDED_WITNESS if bounded else VerdictKind.INCONCLUSIVE


def _avg_expansive(op: ShiftOperator, cfg: HorizonConfig) -> Verdict:
    """Running averages of the left and right branch terms (_avg_term_logs):
    divergence of either branch at any level certifies average expansivity
    of a bilateral shift."""
    evidence = _avg_evidence(op, cfg, ("left", "right"))
    left = any(ev.certified for ev in evidence if ev.label == "left")
    right = any(ev.certified for ev in evidence if ev.label == "right")
    branch = {(True, True): "both", (True, False): "left", (False, True): "right",
              (False, False): "none"}[(left, right)]
    kind = _kind(left or right, all(ev.attestation is not None for ev in evidence))
    return Verdict("avg-expansive", kind, branch=branch, evidence=tuple(evidence), config=cfg)


def _avg_pos_expansive(op: ShiftOperator, cfg: HorizonConfig, criterion: str) -> Verdict:
    """One-sided averages: the left branch certifies the operator itself
    ('ape'), the right branch its inverse ('ape-inverse').  Unilateral
    forward shifts use the convention |w(1)...w(j-1)| = 1 at j = 1;
    unilateral backward shifts are never positively expansive (the first
    basis vector dies)."""
    if not op.bilateral:
        if op.direction == "backward":
            return Verdict("avg-pos-expansive", VerdictKind.BOUNDED_WITNESS, branch="none",
                           notes=("unilateral backward shift: orbit of e_1 is eventually zero",),
                           config=cfg)
        if criterion == "ape-inverse":
            raise NotInvertibleError("unilateral forward shift has no inverse")
        branch = "unilateral"
    else:
        branch = "left" if criterion == "ape" else "right"
    evidence = _avg_evidence(op, cfg, (branch,))
    kind = _kind(any(ev.certified for ev in evidence),
                 all(ev.attestation is not None for ev in evidence))
    return Verdict("avg-pos-expansive", kind, branch=branch,
                   evidence=tuple(evidence), config=cfg)


# ---------------------------------------------------------------------------
# uniform expansivity: window-infimum curves
# ---------------------------------------------------------------------------

def _split_window(split: str, cfg: HorizonConfig):
    """(lo, hi, tail_edges) of the j-window for one split; a unilateral shift takes "N"."""
    w = cfg.window
    if split == "Z":
        return -w, w, ("lo", "hi")
    if split == "N":
        return 1, w, ("hi",)
    if split == "-N":
        return -w, -1, ("lo",)
    raise ValueError(split)


# two log2 ratios this close are compared exactly: the rounding in a curve
# value is orders of magnitude smaller
_TIE_LOG2 = 2.0 ** -20


def _ue_curve(op: ShiftOperator, k: int, level: int, split: str, form: str,
              cfg: HorizonConfig, n_eff: int):
    """Window-infimum curve of inf_j ||T^(+-n) e_j||_l / ||e_j||_k on one
    split, over the orbit that lands at e_{j+n} (A-form: T^n on a forward
    shift, T^-n on a backward one) or at e_{j-n} (B-form).

    Returns (curve, usable) where usable marks steps at which removing the
    tail-edge candidates does not change the infimum (the window value is
    then a true infimum for attested ratio profiles).

    Attested weights are constant, so the walk sum is one float array at
    every column: the value at j is (log2 a(j+s, l) + walk) - log2 a(j, k),
    s = n (A-form) or -n (B-form), that is _orbit_log2 at e_j less
    log2 ||e_j||_k.  The infimum at step n is where a(j+s, l)/a(j, k) is
    least: at a column the matrix family names (its ratio_minimisers),
    clipped to the edge-trimmed window, or at a tail edge; only those
    columns are read.  usable compares the interior minimum with each edge
    in float order, and on power rows exactly where the two are within
    _TIE_LOG2.
    """
    m = op.space.matrix
    lo, hi, tail_edges = _split_window(split, cfg)
    s = np.arange(1, n_eff + 1) if form == "A" else -np.arange(1, n_eff + 1)
    ext_lo, ext_hi = (lo, hi + n_eff) if form == "A" else (lo - n_eff, hi)
    la_l = m.log2_row(level, ext_lo, ext_hi)
    la_k = m.log2_row(k, lo, hi)
    d = -1 if op.direction == "backward" else 1  # T^d e_j lands at e_{j+1}
    walk = _walk_log2(op, 0, n_eff, d if form == "A" else -d)[1:]

    nz = np.flatnonzero(la_k != ZERO_LOG2)
    if not nz.size:
        return np.full(n_eff, np.inf), np.ones(n_eff, dtype=bool)
    # the valid columns are one run [lo + nz[0], lo + nz[-1]]; a tail edge is
    # its end on that tail
    ends = {"lo": lo + int(nz[0]), "hi": lo + int(nz[-1])}
    edges = sorted({ends[tail] for tail in tail_edges})
    t_lo = ends["lo"] + (ends["lo"] in edges)
    t_hi = ends["hi"] - (ends["hi"] in edges)

    def log2_ratios(cols):  # at column(s) j and step n
        return (la_l[cols + s - ext_lo] + walk) - la_k[cols - lo]

    columns, ratio = m.ratio_minimisers(k, level, s)
    interior = np.full(n_eff, np.inf)  # an empty interior never attains
    for j in (t_lo, t_hi, *columns) if t_lo <= t_hi else ():
        np.minimum(interior, log2_ratios(np.clip(j, t_lo, t_hi)), out=interior)
    curve, usable = interior, np.ones(n_eff, dtype=bool)
    for edge in edges:
        edge_vals = log2_ratios(edge)
        curve = np.minimum(curve, edge_vals)
        attains = interior <= edge_vals
        if ratio is not None:
            gap = np.subtract(interior, edge_vals, out=np.full(n_eff, np.inf),
                              where=np.isfinite(interior) & np.isfinite(edge_vals))
            for i in np.flatnonzero(np.abs(gap) <= _TIE_LOG2).tolist():
                si = int(s[i])
                cols = (t_lo, t_hi, *m.ratio_minimisers(k, level, si)[0])
                attains[i] = min(ratio(min(max(j, t_lo), t_hi), si) for j in cols) <= ratio(edge, si)
        usable &= attains
    return curve, usable


# regime -> the (split, form) curves that must all certify at one level; a
# unilateral shift has regime A alone, of upe on a forward shift, on "N"
_REGIME_PARTS = {"A": (("Z", "A"),), "B": (("Z", "B"),), "C": (("N", "A"), ("-N", "B"))}


def _ue_regime(op: ShiftOperator, prop: str, cfg: HorizonConfig):
    """(holds, evidence) for one regime: at every k in 1..k_max the smallest
    level in k..l_max whose curves all certify, up to the reach of the walks
    from the window.  The search stops at the first k with none, whose
    evidence records the failure.  Without a ratio-profile attestation no
    level can succeed, so no curve is computed: the report is the failing
    k = 1 row."""
    attestation = (tail_attestation(op) or {}).get("profile")
    n_eff = _walk_n_eff(op, cfg, cfg.window)
    parts = _REGIME_PARTS[prop] if op.bilateral else (("N", "A"),)
    evidence = []
    for k in range(1, cfg.k_max + 1):
        for level in range(k, cfg.l_max + 1) if attestation else ():
            rows = []
            for split, form in parts:
                curve, usable = _ue_curve(op, k, level, split, form, cfg, n_eff)
                crossings, certified = _first_crossings(curve, cfg.m_grid, usable)
                if not certified:
                    break
                rows.append(BranchEvidence(k=k, level=level, label=f"{prop}:{split}",
                                           certified=True, crossings=crossings,
                                           attestation=attestation, n_eff=n_eff))
            else:  # every curve certified: this level succeeds
                evidence += rows
                break
        else:  # no level succeeds
            evidence.append(BranchEvidence(k=k, level=None, label=prop, certified=False,
                                           attestation=attestation, n_eff=n_eff))
            return False, evidence
    return True, evidence


_BACKWARD_PROPERTY = {"A": "b", "B": "a", "C": "c", "none": "none"}


def _unif_expansive(op: ShiftOperator, cfg: HorizonConfig) -> Verdict:
    """The certified uniform-expansivity regime of a bilateral shift, read
    on the shift itself: (A) the orbits towards e_{j+n} beat every level
    uniformly, (B) those towards e_{j-n} do, (C) each half-line handles one
    direction.  Backward, those are the inverse's and the shift's own orbits:
    regimes (b), (a) and (c), where (a) means uniformly positively expansive."""
    holders = []
    evidence = []
    for regime in ("A", "B", "C"):
        holds, per_k = _ue_regime(op, regime, cfg)
        evidence.extend(per_k)
        if holds:
            holders.append(regime)
    if len(holders) > 1:
        raise AssertionError(f"mutually exclusive properties both certified: {holders}")
    prop = holders[0] if holders else "none"
    notes = () if evidence[0].attestation else (
        "no ratio-profile attestation for this weight family; "
        "certificates unavailable, window evidence only",)
    if op.direction == "backward":
        prop = _BACKWARD_PROPERTY[prop]
        notes += ("regime (a): uniformly positively expansive",) if prop == "a" else ()
    return Verdict("unif-expansive", _kind(bool(holders), False), property_label=prop,
                   evidence=tuple(evidence), notes=notes, config=cfg)


def _unif_pos_expansive(op: ShiftOperator, cfg: HorizonConfig) -> Verdict:
    """Uniform positive expansivity: regime (A) alone for forward shifts
    (bilateral or unilateral), regime (a) for bilateral backward shifts."""
    if op.direction == "forward":
        holds, evidence = _ue_regime(op, "A", cfg)
        return Verdict("unif-pos-expansive", _kind(holds, False),
                       property_label="A" if holds else "none",
                       evidence=tuple(evidence), config=cfg)
    if not op.bilateral:
        return Verdict("unif-pos-expansive", VerdictKind.BOUNDED_WITNESS,
                       property_label="none",
                       notes=("unilateral backward shifts are never positively expansive",),
                       config=cfg)
    verdict = _unif_expansive(op, cfg)
    holds = verdict.property_label == "a"
    return Verdict("unif-pos-expansive", _kind(holds, False),
                   property_label="a" if holds else "none",
                   evidence=verdict.evidence, config=cfg)


# ---------------------------------------------------------------------------
# basis expansivity diagnostic, mixing exclusion, hierarchy
# ---------------------------------------------------------------------------

def _basis_diagnostic(op: ShiftOperator, cfg: HorizonConfig) -> Verdict:
    """DIAGNOSTIC: necessary evidence only.  For each basis index in the
    window, does some level's two-sided orbit-norm sup cross the whole grid?
    The full expansivity condition quantifies over all vectors; basis orbits
    are the computable shadow."""
    n_eff = _walk_n_eff(op, cfg, cfg.basis_window)
    if n_eff is None:
        raise InvalidSpecError(f"weight table too small for a window of radius {cfg.basis_window}")
    j_lo = 1 if not op.bilateral else -cfg.basis_window
    evidence = []
    for j0 in range(j_lo, cfg.basis_window + 1):
        for k, (pos, neg) in enumerate(_orbit_log2(op, j0, range(1, cfg.k_max + 1), n_eff), 1):
            # orbit norms outward, n = 0, +-1, +-2, ...; crossings read their running sup
            norms = pos if neg is None else np.maximum(pos, neg)
            crossings, certified = _first_crossings(norms, cfg.m_grid, n0=0)
            ev = BranchEvidence(k=k, level=k, label=f"e_{j0}", certified=certified,
                                crossings=crossings, n_eff=n_eff)
            if certified:
                break
            if all(_window_bound(op, side, j0, n_eff, sign, k)
                   for side, sign in ((pos, 1), (neg, -1)) if side is not None):
                ev = replace(ev, bound_log2=float(norms.max()),
                             attestation="orbit norms attested monotone beyond window")
        evidence.append(ev)
    kind = _kind(all(ev.certified for ev in evidence),
                 all(ev.certified or ev.attestation for ev in evidence))
    notes = ("diagnostic: basis orbits only; the underlying condition quantifies over all vectors",)
    notes += () if op.bilateral else ("one-sided orbit only: operator has no inverse",)
    return Verdict("expansive-basis-diagnostic", kind, evidence=tuple(evidence),
                   notes=notes, config=cfg)


# mixing's null threshold: terms at or below 2^-10 from some n on through the
# window.  No threshold in [2^-10, 1] has more terms above it, so none
# settles later: this one decides for all of them.
_NULL_LOG2 = -10.0


def _mixing(op: ShiftOperator, cfg: HorizonConfig) -> Verdict:
    """Topological-mixing surrogate for bilateral backward shifts: both term
    sequences a(-j,k)|w(-j+1)...w(0)| and a(j,k)/|w(1)...w(j)| must be
    certified null at every level: settled at or below 2^-10 within the
    window, with an attested tail profile.  A branch whose terms cross the
    whole grid certifies that the shift is not mixing.  On any
    average-expansivity certificate some branch terms diverge in average, so
    this must not certify: the exclusion is asserted by the hierarchy tests."""
    n_eff = _avg_n_eff(op, cfg)
    evidence, unbounded = [], False
    for k, branch_terms in enumerate(_avg_term_logs(op, range(1, cfg.k_max + 1), n_eff), 1):
        for branch, terms in branch_terms.items():
            above = np.flatnonzero(terms > _NULL_LOG2 + CROSS_EPS)
            settle = int(above[-1]) + 2 if above.size else 1  # the step after the last above
            settle = settle if settle <= n_eff else None
            attested = bool(_window_bound(op, terms, 0, n_eff, -1 if branch == "right" else 1, k))
            crossings, crossed = _first_crossings(terms, cfg.m_grid)
            unbounded |= crossed
            evidence.append(BranchEvidence(
                k=k, level=k, label=f"null:{branch}", certified=attested and settle is not None,
                crossings=crossings, n_eff=n_eff,
                attestation="tail attested" if attested else None, detail=f"settle={settle}"))
    mixing = all(ev.certified for ev in evidence)
    kind = _kind(unbounded and not mixing, mixing)
    label = {VerdictKind.BOUNDED_WITNESS: "mixing", VerdictKind.CERTIFIED_UNBOUNDED: "not-mixing",
             VerdictKind.INCONCLUSIVE: "not-certified"}[kind]
    return Verdict("mixing", kind, property_label=label, evidence=tuple(evidence),
                   config=cfg)


@dataclass(frozen=True)
class HierarchyReport:
    """One-directional implication audit: uniform => average => basis orbits."""

    ue_property: str
    ue: Verdict
    ae: Verdict
    e_diag: Verdict
    consistent: bool
    violations: tuple

    def to_json(self) -> dict:
        return {"ue_property": self.ue_property, "ue": self.ue.to_json(),
                "ae": self.ae.to_json(), "e_diag": self.e_diag.to_json(),
                "consistent": self.consistent, "violations": list(self.violations)}


def hierarchy_audit(op: ShiftOperator, cfg: HorizonConfig) -> HierarchyReport:
    """Runs the uniform, average, and basis-diagnostic checks with one shared
    config and asserts the implication chain is never inverted: only a
    BoundedWitness contradicts a certificate, an Inconclusive one is unconfirmed."""
    ue = check_criterion(op, "ue", cfg)
    ae = check_criterion(op, "ae", cfg)
    ed = check_criterion(op, "e", cfg)
    violations = []
    if ue.certified and ae.kind is VerdictKind.BOUNDED_WITNESS:
        violations.append("uniform certified but average bounded")
    if ae.certified and ed.kind is VerdictKind.BOUNDED_WITNESS:
        violations.append("average certified but basis diagnostic bounded")
    return HierarchyReport(ue.property_label, ue, ae, ed, not violations, tuple(violations))


# criterion name -> the directions of the bilateral shifts it is defined for;
# the other criteria take every shift
_BILATERAL_ONLY = {"ae": ("backward", "forward"), "ue": ("backward", "forward"),
                   "hierarchy": ("backward", "forward"), "mixing": ("backward",)}


def check_criterion(op: ShiftOperator, criterion: str, cfg: HorizonConfig):
    """The Verdict for one criterion name, for either shift direction.

    'ae'           average expansivity (bilateral shifts only)
    'ape'          average positive expansivity of the operator
    'ape-inverse'  the same for its inverse (NotInvertibleError for a
                   unilateral forward shift)
    'ue'           uniform expansivity regime (bilateral shifts only)
    'upe'          uniform positive expansivity
    'e'            basis-orbit expansivity diagnostic
    'mixing'       mixing surrogate (bilateral backward shifts only)
    'hierarchy'    hierarchy_audit's HierarchyReport of 'ue', 'ae' and 'e'
                   (bilateral shifts only)

    An unknown name, or a shift the criterion does not apply to, is an
    InvalidSpecError."""
    directions = _BILATERAL_ONLY.get(criterion)
    if directions and not (op.bilateral and op.direction in directions):
        raise InvalidSpecError(
            f"criterion {criterion!r} needs a bilateral {' or '.join(directions)} shift")
    if criterion in ("ape", "ape-inverse"):
        return _avg_pos_expansive(op, cfg, criterion)
    checker = {"ae": _avg_expansive, "ue": _unif_expansive, "upe": _unif_pos_expansive,
               "e": _basis_diagnostic, "mixing": _mixing,
               "hierarchy": hierarchy_audit}.get(criterion)
    if checker is None:
        raise InvalidSpecError(f"unknown criterion {criterion!r}")
    return checker(op, cfg)
