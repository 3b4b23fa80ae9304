"""Exact reconstruction of the block-structured chaotic weight sequence.

The weight sequence is assembled from blocks

    w = ( ... B3 A3 B2 A2 B1 A1 I C1 B1 C2 B2 C3 B3 ... ),  I = (1, 1),

with the first 1 of I at position 0.  Block templates, with k = k_j,
r = r_j, i = i_j:

    A_j = (1 x (2**k - 1), j/(2(j+1)), 1/2 x (2k - 1), 1, 2 x 2k)
    B_j = (1/2 x r, 1 x (i - 1), 2 x r)
    C_j = (1/2 x 2k, 1, 2 x (2k - 1), 2(j+1)/j, 1 x (2**k - 1))

C_j is the reversed reciprocal of A_j and B_j is its own, which forces the
exact symmetry between the backward orbit of e_{-1} and the inverse orbit
of e_1.  The block parameters are chosen inductively: k_1 = 2, i_1 = 2 and,
for j >= 2, the minimal k_j > k_{j-1} making the small-norm density bound
(eq1) and the block-average bound (eq2) hold exactly, then the minimal
i_j > i_{j-1} making the large-norm density bound (eq3) hold exactly.  All
counts and sums are exact rationals; nothing here touches floating point.

All of it works on runs, not per index: (value, length) weight runs, and
orbit norms as maximal (value, length) runs, where no two neighbours share a
value, so equal sequences compare equal as lists; norms are counted, summed
and bounded at the ends of those runs.
The weight table is held as the layout's nonempty weight runs and audited
against them, run by run.  The per-index raw-product route is the reference
in tests/block_oracle.py.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .scalars import SearchCapExceeded
from .spaces import InvalidSpecError
from .shifts import TableWeights, UndefinedWeightError, weight_product

__all__ = [
    "AuditReport",
    "BlockLayout",
    "BlockParams",
    "BlockWeights",
    "HypercyclicityAudit",
    "SearchCapExceeded",
    "build_blocks",
    "closed_form_norms",
    "hypercyclicity_witness",
    "norm_runs",
    "orbit_runs",
    "r_of",
    "verify_inequalities",
]

K_CAP_DEFAULT = 64


def r_of(j: int) -> int:
    """Smallest positive integer r with r >= 2*log2(j+1).

    Pure integer test: 2**r >= (j+1)**2; no floating logs.
    """
    if j < 1:
        raise ValueError("block index must be >= 1")
    target = (j + 1) ** 2
    r = 1
    while (1 << r) < target:
        r += 1
    return r


@dataclass(frozen=True)
class BlockParams:
    """Per-block bookkeeping: lengths a, b, offsets s, t, witness center n_mid,
    and the exact block average alpha of the first s orbit norms."""

    j: int
    k: int
    i: int
    r: int
    a: int
    b: int
    s: int
    t: int
    n_mid: int
    alpha: Fraction

    def to_json(self) -> dict:
        return asdict(self) | {"alpha": str(self.alpha)}


@dataclass(frozen=True)
class BlockLayout:
    blocks: tuple

    def __getitem__(self, j: int) -> BlockParams:
        return self.blocks[j - 1]

    @property
    def j_max(self) -> int:
        return len(self.blocks)

    @property
    def t_max(self) -> int:
        return self.blocks[-1].t

    def templates(self, j: int):
        """A_j, B_j, C_j as (value, length) weight runs."""
        p, half, one, two = self[j], Fraction(1, 2), Fraction(1), Fraction(2)
        k, low, high = p.k, Fraction(j, 2 * (j + 1)), Fraction(2 * (j + 1), j)
        return ([(one, 2 ** k - 1), (low, 1), (half, 2 * k - 1), (one, 1), (two, 2 * k)],
                [(half, p.r), (one, p.i - 1), (two, p.r)],
                [(half, 2 * k), (one, 1), (two, 2 * k - 1), (high, 1), (one, 2 ** k - 1)])

    def weight_runs(self) -> list:
        """Nonempty (start, length, value) runs of the weights, by position: left
        of I, A_j on [-s_j, -(t_{j-1}+1)] and B_j on [-t_j, -(s_j+1)], both
        written left to right; right of I, C_j on [t_{j-1}+2, s_j+1] and B_j
        on [s_j+2, t_j+1]."""
        placed = [(0, [(Fraction(1), 2)])]  # I = (1, 1)
        for j in range(1, self.j_max + 1):
            p, (a, b, c) = self[j], self.templates(j)
            placed += [(-p.s, a), (-p.t, b), (p.t - p.a - p.b + 2, c), (p.s + 2, b)]
        runs = []
        for start, template in sorted(placed, key=lambda at: at[0]):
            for v, n in template:
                if n:
                    runs.append((start, n, v))
                start += n
        return runs


@dataclass(frozen=True)
class BlockWeights(TableWeights):
    """The finished construction: the table of layout.weight_runs(), carrying
    its layout, so the audits and the blocks wire form read the weights."""

    layout: BlockLayout

    def to_json(self) -> dict:
        return {"family": "blocks", "j_max": self.layout.j_max}


def _run_terms(runs: list, terms) -> list:
    """Append (value, length) terms of positive length to the maximal runs
    runs, merging equal neighbours, so no two adjacent runs share a value
    and equal sequences give equal lists; returns runs."""
    for v, n in terms:
        if runs and runs[-1][0] == v:
            runs[-1] = (v, runs[-1][1] + n)
        else:
            runs.append((v, n))
    return runs


def _head(runs, n: int) -> list:
    """The runs of the first n terms."""
    out = []
    for v, m in runs:
        if n <= 0:
            break
        out.append((v, min(m, n)))
        n -= m
    return out


def _closed_form_a_range(j: int, k: int) -> list:
    """Orbit norms contributed by A_j, as runs: rise 2/j..2**(2k)/j, repeat
    the peak and fall back to 2/j, then 2**k copies of 1/(j+1)."""
    rise = [(Fraction(2 ** e, j), 1) for e in range(1, 2 * k + 1)]
    return _run_terms([], rise + rise[::-1] + [(Fraction(1, j + 1), 2 ** k)])


def _closed_form_b_range(j: int, r: int, i: int) -> list:
    """Orbit norms contributed by B_j, as runs: rise to 2**(r-1)/(j+1), hold
    2**r/(j+1) i times, fall to 1/(j+1)."""
    rise = [(Fraction(2 ** e, j + 1), 1) for e in range(1, r)]
    return rise + [(Fraction(2 ** r, j + 1), i)] + rise[::-1] + [(Fraction(1, j + 1), 1)]


def closed_form_norms(layout: BlockLayout, j: int):
    """The two displayed norm stretches for block j, as maximal runs.

    Returns (first, second): the orbit norms on (t_{j-1}, s_j] and on
    (s_j, t_j].  The backward orbit of e_{-1} and the inverse orbit of e_1
    agree entrywise, so a single pair serves both.
    """
    p = layout[j]
    return _closed_form_a_range(j, p.k), _closed_form_b_range(j, p.r, p.i)


def build_blocks(j_max: int, k_cap: int = K_CAP_DEFAULT) -> BlockWeights:
    """Construct blocks 1..j_max with minimal admissible parameters.

    eq1 (at j): card{1 <= n <= s_j : norm_n <= 1/(j+1)} / s_j >= 1 - 1/j
    eq2 (at j): (sum_{n<=s_j} norm_n) / (s_j + 4 r_j) >= j + 1
    eq3 (at j): card{1 <= n <= t_j : norm_n >= j+1} / t_j >= 1 - 1/j

    Minimality is with respect to the strict monotonicity constraints
    k_j > k_{j-1}, i_j > i_{j-1}.  The search counts and sums the closed-form
    norm runs; an independent weight-product audit lives in
    verify_inequalities.
    """
    if j_max < 1:
        raise InvalidSpecError("need at least one block")
    runs: list = []  # closed-form norm runs, n = 1..t_{j-1}
    blocks: list[BlockParams] = []
    t_prev = 0
    k_prev, i_prev = 0, 0
    for j in range(1, j_max + 1):
        r = r_of(j)
        k_j = 2 if j == 1 else _search_k(j, k_prev, r, runs, t_prev, k_cap)
        _run_terms(runs, _closed_form_a_range(j, k_j))
        a_j = 4 * k_j + 2 ** k_j
        s_j = t_prev + a_j
        assert sum(n for _, n in runs) == s_j
        alpha_j = sum(v * n for v, n in runs) / s_j
        i_j = 2 if j == 1 else _search_i(j, i_prev, r, runs, s_j)
        _run_terms(runs, _closed_form_b_range(j, r, i_j))
        b_j = 2 * r + i_j - 1
        t_j = s_j + b_j
        assert sum(n for _, n in runs) == t_j
        n_mid = t_prev + 4 * k_j + 2 ** (k_j - 1)
        blocks.append(BlockParams(j, k_j, i_j, r, a_j, b_j, s_j, t_j, n_mid, alpha_j))
        t_prev, k_prev, i_prev = t_j, k_j, i_j
    layout = BlockLayout(tuple(blocks))
    return BlockWeights(tuple(layout.weight_runs()), "error", -layout.t_max, layout.t_max + 1,
                        layout)


def _search_k(j: int, k_prev: int, r: int, runs: list, t_prev: int, k_cap: int) -> int:
    small = Fraction(1, j + 1)
    need = 1 - Fraction(1, j)
    prefix_small = sum(n for v, n in runs if v <= small)
    prefix_total = sum(v * n for v, n in runs)
    for k in range(k_prev + 1, k_cap + 1):
        a_runs = _closed_form_a_range(j, k)
        s_j = t_prev + 4 * k + 2 ** k
        card = prefix_small + sum(n for v, n in a_runs if v <= small)
        eq1 = Fraction(card, s_j) >= need
        total = prefix_total + sum(v * n for v, n in a_runs)
        eq2 = total / (s_j + 4 * r) >= j + 1
        if eq1 and eq2:
            return k
    raise SearchCapExceeded(
        f"no k in ({k_prev}, {k_cap}] satisfies eq1 and eq2 at block {j}")


def _search_i(j: int, i_prev: int, r: int, runs: list, s_j: int) -> int:
    """Minimal i > i_prev with eq3; the count of large norms up to t_j is
    (count up to s_j) + i since only the B_j plateau reaches j+1 (the rise
    and fall stay below because 2**(r-1) < (j+1)**2).  The affine form is
    solved, then the result is confirmed by direct count."""
    big = Fraction(j + 1)
    c = sum(n for v, n in runs if v >= big)

    def eq3(i: int) -> bool:
        t_j = s_j + 2 * r + i - 1
        card = c + sum(n for v, n in _closed_form_b_range(j, r, i) if v >= big)
        return Fraction(card, t_j) >= 1 - Fraction(1, j)

    # j(c + i) >= (j-1)(s_j + 2r + i - 1)  <=>  i >= (j-1)(s_j + 2r - 1) - j c
    bound = (j - 1) * (s_j + 2 * r - 1) - j * c
    i_j = max(i_prev + 1, bound)
    if not eq3(i_j):
        raise SearchCapExceeded(f"affine eq3 bound failed enumeration at block {j}")
    if i_j > i_prev + 1 and eq3(i_j - 1):
        raise AssertionError(f"eq3 minimality violated at block {j}")
    return i_j


def orbit_runs(build: BlockWeights, direction: str) -> list:
    """Raw-product route, independent of the closed forms: the witness orbit
    norms, n = 1..t_max, as maximal runs formed from the weight runs the
    orbit meets (a unit weight run holds the norm, another moves it at every
    step).  'backward': ||B^n e_{-1}|| = w_{-1} ... w_{-n}; 'forward': the
    inverse orbit of e_1, 1 / (w_2 ... w_{n+1})."""
    runs = build.layout.weight_runs()
    if direction == "backward":
        steps = [(v, n) for start, n, v in reversed(runs) if start < 0]
    else:
        steps = [(1 / v, n) for start, n, v in runs if start > 1]
    out, p = [], Fraction(1)
    for v, n in steps:
        _run_terms(out, [(p, n)] if v == 1 else [(p * v ** e, 1) for e in range(1, n + 1)])
        p *= v ** n
    return out


def norm_runs(build: BlockWeights, direction: str, n_max: Optional[int] = None) -> list:
    """The maximal runs of orbit_runs(build, direction) for n = 1..n_max
    (default t_max).  Past t_max the orbit leaves the table:
    UndefinedWeightError, as the table itself raises."""
    t_max = build.layout.t_max
    n_max = t_max if n_max is None else n_max
    if n_max > t_max:
        j = -t_max - 1 if direction == "backward" else t_max + 2
        raise UndefinedWeightError(f"weight table spans [{-t_max}, {t_max + 1}], got {j}")
    return _head(orbit_runs(build, direction), n_max)


def _first_below(runs, c, lo: int, hi: int) -> Optional[int]:
    """First n in [lo, hi] with norm_1 + ... + norm_n < c * n, or None; inside
    a constant run the gap between the two sides is linear in n."""
    n0, acc = 0, Fraction(0)  # acc = norm_1 + ... + norm_n0
    for v, m in runs:
        a, b = max(lo, n0 + 1), min(hi, n0 + m)
        gap = acc + v * (a - n0) - c * a  # sum minus c * n at n = a
        if gap < 0:
            n = a
        elif v < c:
            # the gap falls by c - v per step, so it first goes negative here
            n = a + gap // (c - v) + 1
        else:
            n = b + 1  # the gap does not fall inside this run
        if n <= b:
            return n
        n0, acc = n0 + m, acc + v * m
    return None


def _first_other(runs, value, lo: int, hi: int) -> Optional[int]:
    """First n in [lo, hi] outside the runs of norm value, or None."""
    n0 = 0
    for v, m in runs:
        if n0 < hi and n0 + m >= lo and v != value:
            return max(lo, n0 + 1)
        n0 += m
    return None


@dataclass(frozen=True)
class AuditReport:
    """Exact re-verification of eq1..eq4 against weight products.  The products
    are formed from the layout's weight runs; the weight table's runs are
    checked against those runs."""

    j_max: int
    closed_form_matches_products: bool
    symmetry_holds: bool
    eq1: dict
    eq2: dict
    eq3: dict
    eq4_ok: bool
    eq4_first_violation: Optional[int]
    eq2_at_j1: dict
    violations: tuple

    @property
    def all_passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        """The audits section of the synthesize report, less the witness."""
        return {
            "eq1": self.eq1,
            "eq2": self.eq2,
            "eq3": self.eq3,
            "eq4": {"ok": self.eq4_ok, "first_violation": self.eq4_first_violation},
            "eq2_at_j1": self.eq2_at_j1,
            "oracle_equivalence": self.closed_form_matches_products,
            "symmetry": self.symmetry_holds,
        }


def verify_inequalities(build: BlockWeights) -> AuditReport:
    """Re-verify every inequality with exact arithmetic from weight products.

    Checks, for 2 <= j <= j_max: eq1, eq2, eq3 at the chosen parameters; the
    running-average lower bound eq4 (average >= j+1 for every n in
    [t_{j-1} + 4 k_j, t_j + 4 k_{j+1}], needs block j+1); and the equality
    of the closed-form sequences with the products plus the backward/forward
    symmetry, both as maximal runs.  eq2 at j = 1 is reported
    but not required (k_1 is fixed, not chosen).
    """
    layout = build.layout
    j_max = layout.j_max
    violations: list[str] = []

    backward = orbit_runs(build, "backward")
    symmetry = backward == orbit_runs(build, "forward")
    if not symmetry:
        violations.append("backward/forward norm symmetry broken")
    closed = _run_terms([], [run for j in range(1, j_max + 1)
                             for half in closed_form_norms(layout, j) for run in half])
    matches = backward == closed
    if not matches:
        violations.append("closed-form norms disagree with raw products")
    if build.runs != tuple(layout.weight_runs()):
        violations.append("weight table disagrees with its runs")

    eq1: dict = {}
    eq2: dict = {}
    eq3: dict = {}
    for j in range(2, j_max + 1):
        p = layout[j]
        need = 1 - Fraction(1, j)
        head = _head(backward, p.s)
        card1 = sum(n for v, n in head if v <= Fraction(1, j + 1))
        ratio1 = Fraction(card1, p.s)
        eq1[j] = {"card": card1, "ratio": str(ratio1), "ok": ratio1 >= need}
        lhs2 = sum(v * n for v, n in head) / (p.s + 4 * p.r)
        eq2[j] = {"value": str(lhs2), "ok": lhs2 >= j + 1}
        card3 = sum(n for v, n in _head(backward, p.t) if v >= j + 1)
        ratio3 = Fraction(card3, p.t)
        eq3[j] = {"card": card3, "ratio": str(ratio3), "ok": ratio3 >= need}
        for i, eq in enumerate((eq1, eq2, eq3), 1):
            if not eq[j]["ok"]:
                violations.append(f"eq{i} fails at j={j}")

    eq4_first = None
    for j in range(1, j_max):
        p, nxt = layout[j], layout[j + 1]
        t_prev = p.t - p.a - p.b
        eq4_first = _first_below(backward, j + 1, t_prev + 4 * p.k, p.t + 4 * nxt.k)
        if eq4_first is not None:
            violations.append(f"eq4 fails at j={j}, n={eq4_first}")
            break

    p1 = layout[1]
    lhs_j1 = sum(v * n for v, n in _head(backward, p1.s)) / (p1.s + 4 * p1.r)
    eq2_j1 = {"value": str(lhs_j1), "holds": lhs_j1 >= 2}

    return AuditReport(j_max, matches, symmetry, eq1, eq2, eq3, eq4_first is None, eq4_first,
                       eq2_j1, tuple(violations))


@dataclass(frozen=True)
class HypercyclicityAudit:
    """Transitivity witness audit along the centers n_j.

    plateau_ok: the orbit norms equal 1/(j+1) exactly on the full witness
    window around each n_j, in both directions.  For every shift t the
    products over [t - n_j + 1, t] obey p_j(t) = c_t / (j+1) with c_t
    independent of j (checked exactly), which certifies convergence to 0
    along j; threshold crossings below the measured range are extrapolated
    from that exact form and flagged as such.
    """

    j_max: int
    t_range: int
    plateau_ok: bool
    products: dict          # t -> {j: Fraction}
    hyperbolic_exact: dict  # t -> bool (p_j * (j+1) constant over audited j)
    c_values: dict          # t -> Fraction
    schedules: dict         # t -> list of {threshold, first_j, extrapolated}
    inverse_products_match: bool
    certified: bool
    violations: tuple
    skipped_shifts: tuple = ()  # |t| out of reach at this build size

    def to_json(self) -> dict:
        return {
            "j_max": self.j_max,
            "t_range": self.t_range,
            "plateau_ok": self.plateau_ok,
            "hyperbolic_exact": {str(t): v for t, v in self.hyperbolic_exact.items()},
            "c_values": {str(t): str(c) for t, c in self.c_values.items()},
            "schedules": {str(t): s for t, s in self.schedules.items()},
            "inverse_products_match": self.inverse_products_match,
            "certified": self.certified,
            "violations": list(self.violations),
            "skipped_shifts": list(self.skipped_shifts),
        }


def hypercyclicity_witness(build: BlockWeights, t_range: int = 8) -> HypercyclicityAudit:
    """Audit the transitivity witness sequence n_j = t_{j-1} + 4k_j + 2**(k_j-1).

    First part: the orbit norms equal 1/(j+1) exactly for every n in
    (n_j - 2**(k_j-1), n_j + 2**(k_j-1)], both directions.  Second part: the
    shifted products to 0.  Blocks enter the product audit from the first j
    with 2**(k_j - 1) > |t| + 1, the range on which the case analysis applies.
    The reversed-reciprocal symmetry gives the inverse products as
    q_j(t) = p_j(-t); they are checked directly as well (derived, not
    displayed).  A shift with fewer than two blocks in reach is skipped, and
    the audit certifies only if some shift was audited: at J = 2 that is
    t = 0 alone, and at J = 1 no shift is.
    """
    layout = build.layout
    orbits = [norm_runs(build, "backward"), norm_runs(build, "forward")]
    violations: list[str] = []

    plateau_ok = True
    for j in range(1, layout.j_max + 1):
        p = layout[j]
        half = 2 ** (p.k - 1)
        window = (p.n_mid - half + 1, p.n_mid + half)
        firsts = [n for n in (_first_other(runs, Fraction(1, j + 1), *window) for runs in orbits)
                  if n is not None]
        if firsts:
            plateau_ok = False
            violations.append(f"plateau value mismatch at j={j}, n={min(firsts)}")

    products: dict[int, dict[int, Fraction]] = {}
    hyperbolic: dict[int, bool] = {}
    c_values: dict[int, Fraction] = {}
    schedules: dict[int, list] = {}
    skipped: list[int] = []
    inverse_match = True
    certified = plateau_ok

    ts = range(-t_range, t_range + 1)
    for t in ts:
        # the products stay in the unit-weight stretch of the block only for
        # shifts well inside the plateau half-width; the rule depends on |t|,
        # so products[-t] has the same blocks as products[t]
        products[t] = {j: weight_product(build, t - layout[j].n_mid + 1, t)
                       for j in range(1, layout.j_max + 1)
                       if abs(t) <= 2 ** (layout[j].k - 1) - 2}

    for t in ts:
        per_j = products[t]
        schedules[t] = []
        for j in per_j:
            # inverse products q_j(t) = 1/|w_{t+1}...w_{t+n_j}| must equal the
            # mirrored products p_j(-t) by the reversed-reciprocal symmetry
            q = 1 / weight_product(build, t + 1, t + layout[j].n_mid)
            if q != products[-t][j]:
                inverse_match = False
                violations.append(f"inverse product mismatch at t={t}, j={j}")
        if len(per_j) < 2:
            # convergence along j is not observable yet at this build size
            hyperbolic[t] = False
            skipped.append(t)
            continue
        c_set = {v * (j + 1) for j, v in per_j.items()}
        hyperbolic[t] = len(c_set) == 1
        if not hyperbolic[t]:
            violations.append(f"shifted products at t={t} not of the form c/(j+1)")
            certified = False
            continue
        c = c_set.pop()  # > 0, positive weights: p_j = c/(j+1) falls strictly in j
        c_values[t] = c
        for tau in (Fraction(1, 2 ** m) for m in range(0, 11)):
            measured = next((j for j in sorted(per_j) if per_j[j] <= tau), None)
            first_j = measured
            if measured is None:
                # p_j = c/(j+1) <= tau  <=>  j >= c/tau - 1, from the exact form
                first_j = math.ceil(c / tau - 1)
            schedules[t].append({"threshold": str(tau), "first_j": first_j,
                                 "extrapolated": measured is None})

    if len(skipped) == len(ts):
        certified = False
        violations.append("no shift audited: each has fewer than two blocks in reach")
    return HypercyclicityAudit(
        layout.j_max, t_range, plateau_ok, products, hyperbolic, c_values,
        schedules, inverse_match, certified and inverse_match, tuple(violations), tuple(skipped))
