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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .spaces import InvalidSpecError
from .shifts import WeightSequence, weight_product

__all__ = [
    "AuditReport",
    "BlockBuild",
    "BlockLayout",
    "BlockParams",
    "HypercyclicityAudit",
    "SearchCapExceeded",
    "backward_norms",
    "build_blocks",
    "closed_form_norms",
    "forward_norms",
    "hypercyclicity_witness",
    "r_of",
    "verify_inequalities",
]

K_CAP_DEFAULT = 64
I_CAP = 10 ** 7


class SearchCapExceeded(RuntimeError):
    """Minimal-parameter search ran past its configured cap."""


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


def _template_a(j: int, k: int) -> list[Fraction]:
    return ([Fraction(1)] * (2 ** k - 1) + [Fraction(j, 2 * (j + 1))]
            + [Fraction(1, 2)] * (2 * k - 1) + [Fraction(1)] + [Fraction(2)] * (2 * k))


def _template_b(r: int, i: int) -> list[Fraction]:
    return [Fraction(1, 2)] * r + [Fraction(1)] * (i - 1) + [Fraction(2)] * r


def _template_c(j: int, k: int) -> list[Fraction]:
    return ([Fraction(1, 2)] * (2 * k) + [Fraction(1)] + [Fraction(2)] * (2 * k - 1)
            + [Fraction(2 * (j + 1), j)] + [Fraction(1)] * (2 ** k - 1))


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
        return {"j": self.j, "k": self.k, "i": self.i, "r": self.r, "a": self.a,
                "b": self.b, "s": self.s, "t": self.t, "n_mid": self.n_mid,
                "alpha": str(self.alpha)}


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
        p = self[j]
        return _template_a(j, p.k), _template_b(p.r, p.i), _template_c(j, p.k)


@dataclass(frozen=True)
class BlockBuild:
    """Finished construction: layout, assembled weight table, and the exact
    orbit-norm sequence used during the search (closed-form route)."""

    layout: BlockLayout
    weights: WeightSequence
    norms: tuple  # norms[n] = ||B^n e_{-1}||, n = 0..t_max, exact

    @property
    def j_max(self) -> int:
        return self.layout.j_max


def _closed_form_a_range(j: int, k: int) -> list[Fraction]:
    """Orbit norms contributed by A_j: rise 2/j..2**(2k)/j, repeat the peak,
    fall back to 2/j, then 2**k copies of 1/(j+1)."""
    rise = [Fraction(2 ** m, j) for m in range(1, 2 * k + 1)]
    fall = [Fraction(2 ** m, j) for m in range(2 * k, 0, -1)]
    return rise + fall + [Fraction(1, j + 1)] * (2 ** k)


def _closed_form_b_range(j: int, r: int, i: int) -> list[Fraction]:
    """Orbit norms contributed by B_j: rise to 2**r/(j+1), hold i times,
    fall, end at 1/(j+1)."""
    rise = [Fraction(2 ** m, j + 1) for m in range(1, r)]
    hold = [Fraction(2 ** r, j + 1)] * i
    fall = [Fraction(2 ** m, j + 1) for m in range(r - 1, 0, -1)]
    return rise + hold + fall + [Fraction(1, j + 1)]


def closed_form_norms(layout: BlockLayout, j: int):
    """The two displayed norm stretches for block j.

    Returns (first, second): the orbit norms on (t_{j-1}, s_j] and on
    (s_j, t_j].  The backward orbit of e_{-1} and the inverse orbit of e_1
    agree entrywise, so a single pair serves both.
    """
    p = layout[j]
    return _closed_form_a_range(j, p.k), _closed_form_b_range(j, p.r, p.i)


def build_blocks(j_max: int, k_cap: int = K_CAP_DEFAULT) -> BlockBuild:
    """Construct blocks 1..j_max with minimal admissible parameters.

    eq1 (at j): card{1 <= n <= s_j : norm_n <= 1/(j+1)} / s_j >= 1 - 1/j
    eq2 (at j): (sum_{n<=s_j} norm_n) / (s_j + 4 r_j) >= j + 1
    eq3 (at j): card{1 <= n <= t_j : norm_n >= j+1} / t_j >= 1 - 1/j

    Minimality is with respect to the strict monotonicity constraints
    k_j > k_{j-1}, i_j > i_{j-1}.  The search walks the closed-form norm
    sequence; an independent raw-product audit lives in verify_inequalities.
    """
    if j_max < 1:
        raise InvalidSpecError("need at least one block")
    norms: list[Fraction] = []  # norms[n-1] = ||B^n e_{-1}||
    blocks: list[BlockParams] = []
    t_prev = 0
    k_prev, i_prev = 0, 0
    for j in range(1, j_max + 1):
        r = r_of(j)
        if j == 1:
            k_j, i_j = 2, 2
        else:
            k_j = _search_k(j, k_prev, r, norms, t_prev, k_cap)
            i_j = None  # chosen after the A-range norms are in place
        a_range = _closed_form_a_range(j, k_j)
        norms.extend(a_range)
        a_j = 4 * k_j + 2 ** k_j
        s_j = t_prev + a_j
        assert len(norms) == s_j
        total_s = sum(norms, Fraction(0))
        alpha_j = total_s / s_j
        if j >= 2:
            i_j = _search_i(j, i_prev, r, norms, s_j)
        b_range = _closed_form_b_range(j, r, i_j)
        norms.extend(b_range)
        b_j = 2 * r + i_j - 1
        t_j = s_j + b_j
        assert len(norms) == t_j
        n_mid = t_prev + 4 * k_j + 2 ** (k_j - 1)
        blocks.append(BlockParams(j, k_j, i_j, r, a_j, b_j, s_j, t_j, n_mid, alpha_j))
        t_prev, k_prev, i_prev = t_j, k_j, i_j
    layout = BlockLayout(tuple(blocks))
    weights = _assemble_weights(layout)
    return BlockBuild(layout, weights, tuple([Fraction(1)] + norms))


def _search_k(j: int, k_prev: int, r: int, norms: list, t_prev: int, k_cap: int) -> int:
    small = Fraction(1, j + 1)
    need = 1 - Fraction(1, j)
    prefix_small = sum(1 for v in norms if v <= small)
    prefix_total = sum(norms, Fraction(0))
    for k in range(k_prev + 1, k_cap + 1):
        a_range = _closed_form_a_range(j, k)
        s_j = t_prev + 4 * k + 2 ** k
        card = prefix_small + sum(1 for v in a_range if v <= small)
        eq1 = Fraction(card, s_j) >= need
        total = prefix_total + sum(a_range, Fraction(0))
        eq2 = total / (s_j + 4 * r) >= j + 1
        if eq1 and eq2:
            return k
    raise SearchCapExceeded(
        f"no k in ({k_prev}, {k_cap}] satisfies eq1 and eq2 at block {j}")


def _search_i(j: int, i_prev: int, r: int, norms: list, s_j: int) -> int:
    """Minimal i > i_prev with eq3; the count of large norms up to t_j is
    (count up to s_j) + i since only the B_j plateau reaches j+1 (the rise
    and fall stay below because 2**(r-1) < (j+1)**2).  The affine form is
    solved, then the result is confirmed by direct enumeration."""
    big = Fraction(j + 1)
    c = sum(1 for v in norms if v >= big)

    def eq3(i: int) -> bool:
        t_j = s_j + 2 * r + i - 1
        b_range = _closed_form_b_range(j, r, i)
        card = c + sum(1 for v in b_range if v >= big)
        return Fraction(card, t_j) >= 1 - Fraction(1, j)

    # j(c + i) >= (j-1)(s_j + 2r + i - 1)  <=>  i >= (j-1)(s_j + 2r - 1) - j c
    bound = (j - 1) * (s_j + 2 * r - 1) - j * c
    i_j = max(i_prev + 1, bound)
    if i_j > I_CAP:
        raise SearchCapExceeded(f"eq3 at block {j} needs i = {i_j} > cap {I_CAP}")
    if not eq3(i_j):
        raise SearchCapExceeded(f"affine eq3 bound failed enumeration at block {j}")
    if i_j > i_prev + 1 and eq3(i_j - 1):
        raise AssertionError(f"eq3 minimality violated at block {j}")
    return i_j


def _assemble_weights(layout: BlockLayout) -> WeightSequence:
    """Place blocks around I = (1, 1) at positions 0, 1.

    Left of the origin, A_j occupies [-s_j, -(t_{j-1}+1)] and B_j occupies
    [-t_j, -(s_j+1)], both written left to right.  Right of the origin, C_j
    occupies [t_{j-1}+2, s_j+1] and B_j follows on [s_j+2, t_j+1].
    """
    table: dict[int, Fraction] = {0: Fraction(1), 1: Fraction(1)}
    for j in range(1, layout.j_max + 1):
        a_tpl, b_tpl, c_tpl = layout.templates(j)
        p = layout[j]
        t_prev = p.t - p.a - p.b
        for offset, val in enumerate(a_tpl):
            table[-p.s + offset] = val
        for offset, val in enumerate(b_tpl):
            table[-p.t + offset] = val
        for offset, val in enumerate(c_tpl):
            table[t_prev + 2 + offset] = val
        for offset, val in enumerate(b_tpl):
            table[p.s + 2 + offset] = val
    t_max = layout.t_max
    # a table with no tail; j_max makes weights_to_json write the blocks form
    return WeightSequence("table", {
        "table": table, "tail": "error", "lo": -t_max, "hi": t_max + 1, "j_max": layout.j_max,
    })


def backward_norms(build: BlockBuild, n_max: Optional[int] = None) -> list[Fraction]:
    """Raw-product route: out[n] = |w_{-1} w_{-2} ... w_{-n}| for n <= n_max.

    Independent of the closed-form sequences; this is the audit oracle.
    """
    n_max = build.layout.t_max if n_max is None else n_max
    w = build.weights
    out = [Fraction(1)]
    p = Fraction(1)
    for n in range(1, n_max + 1):
        p *= w.value(-n)
        out.append(p)
    return out


def forward_norms(build: BlockBuild, n_max: Optional[int] = None) -> list[Fraction]:
    """Raw-product route: out[n] = 1 / |w_2 w_3 ... w_{n+1}| (inverse orbit)."""
    n_max = build.layout.t_max if n_max is None else n_max
    w = build.weights
    out = [Fraction(1)]
    p = Fraction(1)
    for n in range(1, n_max + 1):
        p *= w.value(n + 1)
        out.append(1 / p)
    return out


@dataclass(frozen=True)
class AuditReport:
    """Exact re-verification of eq1..eq4 against raw weight products."""

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
        return {
            "j_max": self.j_max,
            "closed_form_matches_products": self.closed_form_matches_products,
            "symmetry_holds": self.symmetry_holds,
            "eq1": self.eq1,
            "eq2": self.eq2,
            "eq3": self.eq3,
            "eq4": {"ok": self.eq4_ok, "first_violation": self.eq4_first_violation},
            "eq2_at_j1": self.eq2_at_j1,
            "violations": list(self.violations),
        }


def verify_inequalities(build: BlockBuild) -> AuditReport:
    """Re-verify every inequality with exact arithmetic from raw products.

    Checks, for 2 <= j <= j_max: eq1, eq2, eq3 at the chosen parameters; the
    running-average lower bound eq4 (average >= j+1 for every n in
    [t_{j-1} + 4 k_j, t_j + 4 k_{j+1}], needs block j+1); and the entrywise
    equality of the closed-form sequences with the raw products plus the
    backward/forward symmetry.  eq2 at j = 1 is reported but not required
    (k_1 is fixed, not chosen).
    """
    layout = build.layout
    j_max = layout.j_max
    violations: list[str] = []

    nb = backward_norms(build)
    nf = forward_norms(build)
    symmetry = nb == nf
    if not symmetry:
        violations.append("backward/forward norm symmetry broken")
    closed = list(build.norms)
    matches = nb == closed
    if not matches:
        violations.append("closed-form norms disagree with raw products")

    prefix = [Fraction(0)] * (layout.t_max + 1)
    acc = Fraction(0)
    for n in range(1, layout.t_max + 1):
        acc += nb[n]
        prefix[n] = acc

    eq1: dict = {}
    eq2: dict = {}
    eq3: dict = {}
    for j in range(2, j_max + 1):
        p = layout[j]
        small = Fraction(1, j + 1)
        card1 = sum(1 for n in range(1, p.s + 1) if nb[n] <= small)
        ratio1 = Fraction(card1, p.s)
        ok1 = ratio1 >= 1 - Fraction(1, j)
        eq1[j] = {"card": card1, "ratio": str(ratio1), "ok": ok1}
        if not ok1:
            violations.append(f"eq1 fails at j={j}")

        lhs2 = prefix[p.s] / (p.s + 4 * p.r)
        ok2 = lhs2 >= j + 1
        eq2[j] = {"value": str(lhs2), "ok": ok2}
        if not ok2:
            violations.append(f"eq2 fails at j={j}")

        card3 = sum(1 for n in range(1, p.t + 1) if nb[n] >= j + 1)
        ratio3 = Fraction(card3, p.t)
        ok3 = ratio3 >= 1 - Fraction(1, j)
        eq3[j] = {"card": card3, "ratio": str(ratio3), "ok": ok3}
        if not ok3:
            violations.append(f"eq3 fails at j={j}")

    eq4_ok = True
    eq4_first = None
    for j in range(1, j_max):
        p, nxt = layout[j], layout[j + 1]
        t_prev = p.t - p.a - p.b
        for n in range(t_prev + 4 * p.k, p.t + 4 * nxt.k + 1):
            if prefix[n] < (j + 1) * n:
                eq4_ok = False
                eq4_first = n
                violations.append(f"eq4 fails at j={j}, n={n}")
                break
        if not eq4_ok:
            break

    p1 = layout[1]
    lhs_j1 = prefix[p1.s] / (p1.s + 4 * p1.r)
    eq2_j1 = {"value": str(lhs_j1), "holds": lhs_j1 >= 2}

    return AuditReport(j_max, matches, symmetry, eq1, eq2, eq3, eq4_ok, eq4_first,
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


def hypercyclicity_witness(build: BlockBuild, t_range: int = 8,
                           thresholds: Optional[list] = None) -> HypercyclicityAudit:
    """Audit the transitivity witness sequence n_j = t_{j-1} + 4k_j + 2**(k_j-1).

    First part: the orbit norms equal 1/(j+1) exactly for every n in
    (n_j - 2**(k_j-1), n_j + 2**(k_j-1)], both directions.  Second part: the
    shifted products to 0.  Blocks enter the product audit from the first j
    with 2**(k_j - 1) > |t| + 1, the range on which the case analysis applies.
    The reversed-reciprocal symmetry gives the inverse products as
    q_j(t) = p_j(-t); they are checked directly as well (derived, not
    displayed).
    """
    if thresholds is None:
        thresholds = [Fraction(1, 2 ** m) for m in range(0, 11)]
    layout = build.layout
    nb = backward_norms(build)
    nf = forward_norms(build)
    w = build.weights
    violations: list[str] = []

    plateau_ok = True
    for j in range(1, layout.j_max + 1):
        p = layout[j]
        half = 2 ** (p.k - 1)
        expected = Fraction(1, j + 1)
        for n in range(p.n_mid - half + 1, p.n_mid + half + 1):
            if nb[n] != expected or nf[n] != expected:
                plateau_ok = False
                violations.append(f"plateau value mismatch at j={j}, n={n}")
                break

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
        products[t] = {j: abs(weight_product(w, t - layout[j].n_mid + 1, t))
                       for j in range(1, layout.j_max + 1)
                       if abs(t) <= 2 ** (layout[j].k - 1) - 2}

    for t in ts:
        per_j = products[t]
        for j in per_j:
            # inverse products q_j(t) = 1/|w_{t+1}...w_{t+n_j}| must equal the
            # mirrored products p_j(-t) by the reversed-reciprocal symmetry
            q = 1 / abs(weight_product(w, t + 1, t + layout[j].n_mid))
            if q != products[-t][j]:
                inverse_match = False
                violations.append(f"inverse product mismatch at t={t}, j={j}")
        if len(per_j) < 2:
            # convergence along j is not observable yet at this build size
            hyperbolic[t] = False
            schedules[t] = []
            skipped.append(t)
            continue
        cs = {j: v * (j + 1) for j, v in per_j.items()}
        c_set = set(cs.values())
        hyperbolic[t] = len(c_set) == 1
        if not hyperbolic[t]:
            violations.append(f"shifted products at t={t} not of the form c/(j+1)")
            certified = False
            schedules[t] = []
            continue
        c = c_set.pop()
        c_values[t] = c
        decreasing = all(per_j[a] > per_j[b]
                         for a, b in zip(sorted(per_j), sorted(per_j)[1:]))
        if not decreasing:
            violations.append(f"shifted products at t={t} not strictly decreasing")
            certified = False
        schedule = []
        for tau in thresholds:
            measured = next((j for j in sorted(per_j) if per_j[j] <= tau), None)
            if measured is not None:
                schedule.append({"threshold": str(tau), "first_j": measured,
                                 "extrapolated": False})
            else:
                # p_j = c/(j+1) <= tau  <=>  j >= c/tau - 1, from the exact form
                need = c / tau - 1
                first_j = int(need) if need == int(need) else int(need) + 1
                schedule.append({"threshold": str(tau), "first_j": first_j,
                                 "extrapolated": True})
        schedules[t] = schedule

    if inverse_match is False:
        certified = False
    return HypercyclicityAudit(
        layout.j_max, t_range, plateau_ok, products, hyperbolic, c_values,
        schedules, inverse_match, certified, tuple(violations), tuple(skipped))
