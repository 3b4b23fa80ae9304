"""Finite-horizon certificate checkers for expansivity criteria.

The analytic statements all have the shape "some sup/limit is infinite".
At desk scale they become three-valued verdicts:

* certified-unbounded: every threshold of the run's grid was crossed within
  the horizon (the crossing schedule is recorded as first_n per threshold).
  For window-infimum criteria a crossing only counts when the window value
  is a true infimum, which requires a structural tail attestation of the
  ratio profile plus an interior (not tail-edge) attainment check.
* bounded-witness: an explicit per-term bound on the window together with a
  tail attestation (term profile eventually nonincreasing or constant).
* inconclusive: window evidence only.

A sup (averages, basis orbits) records first crossings, which a larger
horizon keeps.  Uniform expansivity (Bernardes et al., J. Funct. Anal. 288
(2025) 110696) is a limit in n, checked as: for k <= k_max some l <= l_max
has lim over n of inf over j in the window of the (k, l) ratio infinite.
Its first_n is the first usable step after the last usable step below the
threshold, so only a fall past the horizon can revoke it; an attested
window value at a usable step is a true infimum, fixed as the window grows.

A check searches only while its report can still change, so no
window-infimum curve is swept for a family pair without a tail attestation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .scalars import ZERO_LOG2
from .spaces import InvalidSpecError
from .shifts import NotInvertibleError, ShiftOperator, dual_form, tail_attestation

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
                     usable: Optional[np.ndarray] = None):
    """Per threshold M, the first n (1-based) with values[n-1] >= log2(M);
    certified when every threshold crosses.  With usable (a limit in n), the
    first usable n after the last usable step below log2(M)."""
    crossings = []
    for m, lm in zip(m_grid, _grid_log2(m_grid)):
        mask = values >= lm - CROSS_EPS
        if usable is not None:
            below = np.nonzero(usable & ~mask)[0]
            mask &= usable
            if below.size:
                mask[:below[-1] + 1] = False
        hit = np.nonzero(mask)[0]
        first = int(hit[0]) + 1 if hit.size else None
        crossings.append(Crossing(float(m), first))
    return tuple(crossings), all(c.first_n is not None for c in crossings)


def _avg_term_logs(op: ShiftOperator, k: int, branch: str, n_eff: int) -> np.ndarray:
    """log2 of the branch term sequence, j = 1..n_eff.

    backward left:  a(-j, k) |w(-j+1) ... w(0)|
    backward right: a(j, k) / |w(1) ... w(j)|
    forward  left:  a(j, k) |w(0) ... w(j-1)|
    forward  right: a(-j, k) / |w(-j) ... w(-1)|
    unilateral-forward: a(j, k) |w(1) ... w(j-1)|, empty product at j = 1
    """
    m = op.space.matrix
    w = op.weights
    # each cumsum runs over this call's own slice in the order j = 1, 2, ...:
    # it is the sequential running sum, bitwise (a difference of a longer
    # prefix is not, for non-dyadic weights)
    if branch == "unilateral":
        acc = np.concatenate(([0.0], np.cumsum(w.log2_window(1, n_eff - 1))))
        return m.log2_row(k, 1, n_eff) + acc
    backward = op.direction == "backward"
    if branch == "left" and backward:
        return m.log2_row(k, -n_eff, -1)[::-1] + np.cumsum(w.log2_window(-n_eff + 1, 0)[::-1])
    if branch == "right" and backward:
        return m.log2_row(k, 1, n_eff) - np.cumsum(w.log2_window(1, n_eff))
    if branch == "left":
        return m.log2_row(k, 1, n_eff) + np.cumsum(w.log2_window(0, n_eff - 1))
    if branch == "right":
        return m.log2_row(k, -n_eff, -1)[::-1] - np.cumsum(w.log2_window(-n_eff, -1)[::-1])
    raise ValueError(f"unknown branch {branch!r}")


def _avg_bound_attestation(op: ShiftOperator, terms: np.ndarray) -> Optional[tuple[float, str]]:
    """Per-term bound plus tail attestation, when the family pair supports one.

    The structural gate is shifts.tail_attestation; the numeric gate requires
    the term maximum to sit at the start (nonincreasing profile) or strictly
    inside the window (unimodal peak).
    """
    if tail_attestation(op) is None or terms.size == 0:
        return None
    arg = int(np.argmax(terms))
    if arg == terms.size - 1:
        return None  # still growing at the window edge
    profile = "nonincreasing term profile" if arg == 0 else "unimodal term profile"
    return float(terms[arg]), f"{profile} ({op.space.matrix.tail_tag} matrix, constant weights)"


def _avg_n_eff(op: ShiftOperator, cfg: HorizonConfig) -> int:
    """cfg.n_max, cut to what a finite weight table on [lo, hi] allows: at
    horizon n the branch terms read w(-n+1..n) backward, w(-n..n-1) forward
    and w(1..n-1) on a unilateral forward shift."""
    lo, hi = op.weights.defined_range() or (-math.inf, math.inf)
    if op.direction == "backward":
        n = min(cfg.n_max, 1 - lo, hi)
    elif op.bilateral:
        n = min(cfg.n_max, -lo, hi + 1)
    else:
        n = min(cfg.n_max, hi + 1) if lo <= 1 else 0
    if n < 1:
        raise InvalidSpecError("weight table too small for the requested horizon")
    return n


def _avg_branch_evidence(op: ShiftOperator, k: int, branch: str,
                         cfg: HorizonConfig, n_eff: int) -> BranchEvidence:
    terms = _avg_term_logs(op, k, branch, n_eff)
    averages = _kernels.running_log2_average(terms)
    crossings, certified = _first_crossings(averages, cfg.m_grid)
    bound = _avg_bound_attestation(op, terms)
    return BranchEvidence(
        k=k, level=k, label=branch, certified=certified, crossings=crossings,
        bound_log2=None if bound is None else bound[0],
        attestation=None if bound is None else bound[1],
        n_eff=n_eff)


def _avg_evidence(op: ShiftOperator, cfg: HorizonConfig, branches: Sequence[str],
                  n_eff: int) -> list[BranchEvidence]:
    """Evidence for every level k = 1..k_max, k-major, branches in the given
    order within each k."""
    return [_avg_branch_evidence(op, k, branch, cfg, n_eff)
            for k in range(1, cfg.k_max + 1) for branch in branches]


def _kind(certified: bool, bounded: bool) -> VerdictKind:
    if certified:
        return VerdictKind.CERTIFIED_UNBOUNDED
    return VerdictKind.BOUNDED_WITNESS if bounded else VerdictKind.INCONCLUSIVE


def _avg_expansive(op: ShiftOperator, cfg: HorizonConfig) -> Verdict:
    """Running averages of the left and right branch terms (_avg_term_logs):
    divergence of either branch at any level certifies average expansivity
    of a bilateral shift."""
    evidence = _avg_evidence(op, cfg, ("left", "right"), _avg_n_eff(op, cfg))
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
    evidence = _avg_evidence(op, cfg, (branch,), _avg_n_eff(op, cfg))
    kind = _kind(any(ev.certified for ev in evidence),
                 all(ev.attestation is not None for ev in evidence))
    return Verdict("avg-pos-expansive", kind, branch=branch,
                   evidence=tuple(evidence), config=cfg)


# ---------------------------------------------------------------------------
# uniform expansivity: window-infimum curves
# ---------------------------------------------------------------------------

def _split_window(op: ShiftOperator, split: str, cfg: HorizonConfig):
    """(lo, hi, tail_edges) of the j-window for one split of the support."""
    w = cfg.window
    if not op.bilateral:
        return 1, w, ("hi",)
    if split == "Z":
        return -w, w, ("lo", "hi")
    if split == "N":
        return 1, w, ("hi",)
    if split == "-N":
        return -w, -1, ("lo",)
    raise ValueError(split)


# the last interior curves, oldest evicted first (README, "Log lane": why grids repeat)
_CURVE_MEMO_SIZE = 16
_curve_memo: dict = {}


def _interior_curve(g, h, trimmed, n_eff: int) -> np.ndarray:
    """window_inf_curve(g, h, trimmed, n_eff)'s curve, read-only."""
    key = (n_eff, g.tobytes(), h.tobytes(), trimmed.tobytes())
    curve = _curve_memo.get(key)
    if curve is None:
        curve = _kernels.window_inf_curve(g, h, trimmed, n_eff)
        curve.flags.writeable = False
        if len(_curve_memo) >= _CURVE_MEMO_SIZE:
            del _curve_memo[next(iter(_curve_memo))]
        _curve_memo[key] = curve
    return curve


def _ue_curve(op: ShiftOperator, k: int, level: int, split: str, form: str,
              cfg: HorizonConfig, n_eff: int):
    """Window-infimum curve for the A-form or B-form ratio on one split.

    A-form: inf_j a(j+n, l) |w(j) ... w(j+n-1)| / a(j, k)
    B-form: inf_j a(j-n, l) / (a(j, k) |w(j-n) ... w(j-1)|)

    Returns (curve, usable) where usable marks steps at which removing the
    tail-edge candidates does not change the infimum (the window value is
    then a true infimum for attested ratio profiles).

    The interior curve is memoized whole (no early exit), keyed by n_eff and
    the bytes of g, h and trimmed: a repeat is swept once, bitwise equal.
    """
    m = op.space.matrix
    w = op.weights
    lo, hi, tail_edges = _split_window(op, split, cfg)

    if form == "A":
        ext_lo, ext_hi = lo, hi + n_eff
    else:
        ext_lo, ext_hi = lo - n_eff, hi

    wlogs = w.log2_window(min(ext_lo, lo) - 1, max(ext_hi, hi) + 1)
    base = min(ext_lo, lo) - 1
    prefix = np.concatenate(([0.0], np.cumsum(wlogs)))
    # product |w(a) ... w(b)| has log prefix[b - base + 1] - prefix[a - base]

    la_level = m.log2_row(level, ext_lo, ext_hi)
    la_k = m.log2_row(k, lo, hi)
    valid = la_k != ZERO_LOG2

    # P(i) = prefix[i - base] is the log-prefix ending just before index i;
    # g[i] = la_l(i) + P(i), h[j] = la_k(j) + P(j), and the A-form value is
    # value(j, n) = g[j+n] - h[j]
    g = la_level + prefix[np.arange(ext_lo, ext_hi + 1) - base]
    h = la_k + prefix[np.arange(lo, hi + 1) - base]
    if form == "B":
        # value(j, n) = g[j-n] - h[j]; reverse the index direction so the
        # kernel's g[j + n] convention applies
        g = g[::-1].copy()
        h = h[::-1].copy()
        valid = valid[::-1].copy()

    if not valid.any():
        curve = np.full(n_eff, np.inf)
        return curve, np.ones(n_eff, dtype=bool)

    # tail-edge sensitivity: the outermost valid candidate on each tail is
    # kept out of the kernel and folded in afterwards, in index order, so
    # the curve is the infimum over all of valid and usable marks the steps
    # where the interior alone attains it
    edges = tail_edges if form == "A" else tuple(
        {"lo": "hi", "hi": "lo"}[e] for e in tail_edges)
    nz = np.flatnonzero(valid)
    lo_edge = nz[0] if "lo" in edges else None
    hi_edge = nz[-1] if "hi" in edges and nz[-1] != lo_edge else None
    trimmed = valid.copy()
    trimmed[[j for j in (lo_edge, hi_edge) if j is not None]] = False
    interior = _interior_curve(g, h, trimmed, n_eff)  # +inf if empty
    curve = interior.copy()
    # the low edge precedes every interior index, so it wins a tie; the high
    # edge follows them and loses it
    for j, wins in ((lo_edge, np.less_equal), (hi_edge, np.less)):
        if j is not None:
            edge_vals = g[j + 1:j + 1 + n_eff] - h[j]
            np.copyto(curve, edge_vals, where=wins(edge_vals, curve))
    # an empty interior (+inf) never equals an edge value (never +inf): not usable
    return curve, interior == curve


def _ue_n_eff(op: ShiftOperator, cfg: HorizonConfig, radius: int) -> Optional[int]:
    """cfg.n_max, cut to what a finite weight table reaches from within
    `radius`; None when the table does not reach past it.  Such a table has
    an 'error' tail, so its pair is unattested and sweeps no curve."""
    lo, hi = op.weights.defined_range() or (-math.inf, math.inf)
    room = min(abs(lo), abs(hi)) - radius - 2
    return min(cfg.n_max, room) if room >= 1 else None


def _ue_property_for_k(op: ShiftOperator, k: int, prop: str, cfg: HorizonConfig,
                       n_eff: int):
    """Search levels for one property at one k; smallest succeeding level."""
    parts = {"A": (("Z", "A"),), "B": (("Z", "B"),),
             "C": (("N", "A"), ("-N", "B"))}[prop]
    if not op.bilateral:
        parts = {"A": (("N", "A"),)}.get(prop, ())
        if not parts:
            return None
    for level in range(k, cfg.l_max + 1):
        all_crossings = []
        for split, form in parts:
            curve, usable = _ue_curve(op, k, level, split, form, cfg, n_eff)
            crossings, certified = _first_crossings(curve, cfg.m_grid, usable)
            all_crossings.append((split, crossings))
            if not certified:
                break
        else:
            return level, all_crossings
    return None


def _ue_regime(op: ShiftOperator, prop: str, cfg: HorizonConfig, n_eff: int,
               attestation: Optional[str]):
    """(holds, evidence) for one regime: a succeeding level at every k in
    1..k_max.  The search stops at the first k with none, whose evidence
    records the failure.  Without an attestation no level can succeed, so
    no curve is swept: the report is the failing k = 1 row."""
    evidence = []
    for k in range(1, cfg.k_max + 1):
        found = _ue_property_for_k(op, k, prop, cfg, n_eff) if attestation else None
        if found is None:
            evidence.append(BranchEvidence(k=k, level=None, label=prop, certified=False,
                                           attestation=attestation, n_eff=n_eff))
            return False, evidence
        level, split_crossings = found
        for split, crossings in split_crossings:
            evidence.append(BranchEvidence(
                k=k, level=level, label=f"{prop}:{split}", certified=True,
                crossings=crossings, attestation=attestation, n_eff=n_eff))
    return True, evidence


_BACKWARD_PROPERTY = {"A": "b", "B": "a", "C": "c", "none": "none"}


def _unif_expansive(op: ShiftOperator, cfg: HorizonConfig) -> Verdict:
    """The certified uniform-expansivity regime of a bilateral shift.

    Forward: (A) forward products beat every level uniformly, (B) the inverse
    products do, (C) each half-line handles one direction.  Backward: the
    forward regime of the inverse's opposite-direction form, mapped to
    (a), (b), (c); regime (a) also means uniformly positively expansive."""
    if op.direction == "backward":
        verdict = _unif_expansive(dual_form(op), cfg)
        prop = _BACKWARD_PROPERTY[verdict.property_label]
        notes = verdict.notes + (("regime (a): uniformly positively expansive",)
                                 if prop == "a" else ())
        return Verdict("unif-expansive", verdict.kind, property_label=prop,
                       evidence=verdict.evidence, notes=notes, config=cfg)
    attestation = (tail_attestation(op) or {}).get("profile")
    n_eff = _ue_n_eff(op, cfg, cfg.window)
    holders = []
    evidence = []
    for regime in ("A", "B", "C"):
        holds, per_k = _ue_regime(op, regime, cfg, n_eff, attestation)
        evidence.extend(per_k)
        if holds:
            holders.append(regime)
    if len(holders) > 1:
        raise AssertionError(f"mutually exclusive properties both certified: {holders}")
    return Verdict("unif-expansive", _kind(bool(holders), False),
                   property_label=holders[0] if holders else "none",
                   evidence=tuple(evidence), config=cfg,
                   notes=() if attestation else
                   ("no ratio-profile attestation for this weight family; "
                    "certificates unavailable, window evidence only",))


def _unif_pos_expansive(op: ShiftOperator, cfg: HorizonConfig) -> Verdict:
    """Uniform positive expansivity: regime (A) alone for forward shifts
    (bilateral or unilateral), regime (a) for bilateral backward shifts."""
    if op.direction == "forward":
        holds, evidence = _ue_regime(op, "A", cfg, _ue_n_eff(op, cfg, cfg.window),
                                     (tail_attestation(op) or {}).get("profile"))
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

def _orbit_log_curves(op: ShiftOperator, j0: int, k: int, n_eff: int):
    """(entry0, pos, neg): log2 orbit norms ||T^n e_{j0}||_k at n = 0, at
    n = 1..n_eff, and at n = -1..-n_eff; neg is None without an inverse.
    Off-lattice targets of a unilateral backward shift give -inf (zero
    vector) through the matrix row."""
    m = op.space.matrix
    w = op.weights
    step = -1 if op.direction == "backward" else 1
    lo, hi = j0 - n_eff - 1, j0 + n_eff + 1
    prefix = np.concatenate(([0.0], np.cumsum(w.log2_window(lo, hi))))
    # log2 |w(a) ... w(b)| = prefix[b - lo + 1] - prefix[a - lo]
    row = m.log2_row(k, lo, hi)
    ns = np.arange(1, n_eff + 1)

    tgt_pos = j0 + step * ns
    if op.direction == "backward":
        p_pos = prefix[j0 - lo + 1] - prefix[(j0 - ns + 1) - lo]
    else:
        p_pos = prefix[(j0 + ns - 1) - lo + 1] - prefix[j0 - lo]
    pos = p_pos + row[tgt_pos - lo]
    entry0 = float(row[j0 - lo])
    if not op.bilateral:
        return entry0, pos, None
    tgt_neg = j0 - step * ns
    if op.direction == "backward":
        p_neg = -(prefix[(j0 + ns) - lo + 1] - prefix[(j0 + 1) - lo])
    else:
        p_neg = -(prefix[(j0 - 1) - lo + 1] - prefix[(j0 - ns) - lo])
    neg = p_neg + row[tgt_neg - lo]
    return entry0, pos, neg


def _basis_diagnostic(op: ShiftOperator, cfg: HorizonConfig) -> Verdict:
    """DIAGNOSTIC: necessary evidence only.  For each basis index in the
    window, does some level's two-sided orbit-norm sup cross the whole grid?
    The full expansivity condition quantifies over all vectors; basis orbits
    are the computable shadow."""
    n_eff = _ue_n_eff(op, cfg, cfg.basis_window)
    if n_eff is None:
        raise InvalidSpecError(f"weight table too small for a window of radius {cfg.basis_window}")
    j_lo = 1 if not op.bilateral else -cfg.basis_window
    evidence = []
    all_certified = True
    all_bounded = True
    pair_ok = tail_attestation(op) is not None
    for j0 in range(j_lo, cfg.basis_window + 1):
        best: Optional[BranchEvidence] = None
        for k in range(1, cfg.k_max + 1):
            entry0, pos, neg = _orbit_log_curves(op, j0, k, n_eff)
            # outward running sup over n = 0, +-1, +-2, ...
            two_sided = pos if neg is None else np.maximum(pos, neg)
            norms = np.concatenate(([entry0], two_sided))
            sup = np.maximum.accumulate(norms)
            crossings, certified = _first_crossings(sup, cfg.m_grid)
            ev = BranchEvidence(k=k, level=k, label=f"e_{j0}", certified=certified,
                                crossings=crossings, n_eff=n_eff)
            if certified:
                best = ev
                break
            # no bound from a sup still rising at the window edge
            if pair_ok and int(np.argmax(norms)) < norms.size - 1:
                ev = BranchEvidence(k=k, level=k, label=f"e_{j0}", certified=False,
                                    crossings=crossings, bound_log2=float(sup[-1]),
                                    attestation="orbit norms attested monotone beyond window",
                                    n_eff=n_eff)
            best = ev
        evidence.append(best)
        if not best.certified:
            all_certified = False
            if best.attestation is None:
                all_bounded = False
    kind = (VerdictKind.CERTIFIED_UNBOUNDED if all_certified
            else VerdictKind.BOUNDED_WITNESS if all_bounded else VerdictKind.INCONCLUSIVE)
    notes = ("diagnostic: basis orbits only; the underlying condition quantifies over all vectors",)
    if not op.bilateral:
        notes = notes + ("one-sided orbit only: operator has no inverse",)
    return Verdict("expansive-basis-diagnostic", kind, evidence=tuple(evidence),
                   notes=notes, config=cfg)


def _null_certification(terms: np.ndarray, attested: bool, tau_grid: Sequence[float]):
    """Certify terms -> 0: for each tau the terms must sit at or below tau from
    some index onward through the window, with an attested tail profile."""
    results = []
    certified = attested
    for tau in tau_grid:
        lt = math.log2(tau)
        above = np.nonzero(terms > lt + CROSS_EPS)[0]
        settle = int(above[-1]) + 2 if above.size else 1
        ok = settle <= terms.size  # settles within the window
        results.append({"tau": tau, "settle_n": settle if ok else None})
        certified = certified and ok
    return certified, results


def _mixing(op: ShiftOperator, cfg: HorizonConfig) -> Verdict:
    """Topological-mixing surrogate for bilateral backward shifts: both term
    sequences a(-j,k)|w(-j+1)...w(0)| and a(j,k)/|w(1)...w(j)| must be
    certified null at every level.  On any average-expansivity certificate
    some branch terms diverge in average, so this must not certify: the
    exclusion is asserted by the hierarchy tests."""
    tau_grid = [2.0 ** (-m) for m in range(0, 11)]
    n_eff = _avg_n_eff(op, cfg)
    evidence = []
    mixing = True
    definitive_not = False
    for k in range(1, cfg.k_max + 1):
        for branch in ("left", "right"):
            terms = _avg_term_logs(op, k, branch, n_eff)
            attested = _avg_bound_attestation(op, terms) is not None
            certified, settle = _null_certification(terms, attested, tau_grid)
            crossings, unbounded = _first_crossings(terms, cfg.m_grid)
            evidence.append(BranchEvidence(
                k=k, level=k, label=f"null:{branch}", certified=certified,
                crossings=crossings, n_eff=n_eff,
                attestation="tail attested" if attested else None,
                detail=f"settle={settle[-1]['settle_n']}"))
            if not certified:
                mixing = False
            if unbounded:
                definitive_not = True
    if mixing:
        kind, label = VerdictKind.BOUNDED_WITNESS, "mixing"
    elif definitive_not:
        kind, label = VerdictKind.CERTIFIED_UNBOUNDED, "not-mixing"
    else:
        kind, label = VerdictKind.INCONCLUSIVE, "not-certified"
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
