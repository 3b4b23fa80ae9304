"""Per-index reference route for the block construction's exact lane.

The library works on runs (see shiftlab.blocks); this module keeps the
straightforward route it replaced, one Fraction per orbit step: raw weight
products looked up position by position in the weight table, eq1..eq4
counted and summed index by index, the witness plateaus checked step by
step, shifted products multiplied weight by weight, and densities and
running averages taken at every n.  Tests compare the two routes field by
field; benchmarks/bench_blocks.py times them against each other.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from shiftlab.blocks import AuditReport, HypercyclicityAudit, closed_form_norms
from shiftlab.density import DensityEstimate


def weight_product(weights, lo: int, hi: int) -> Fraction:
    """w(lo) ... w(hi), multiplied one weight at a time."""
    out = Fraction(1)
    for j in range(lo, hi + 1):
        out *= weights.value(j)
    return out


def expand_runs(runs) -> list:
    """The sequence spelled by (value, length) runs."""
    return [v for v, n in runs for _ in range(n)]


def backward_norms(build, n_max: Optional[int] = None) -> list:
    """out[n] = |w_{-1} w_{-2} ... w_{-n}| for n <= n_max, out[0] = 1."""
    n_max = build.layout.t_max if n_max is None else n_max
    out = [Fraction(1)]
    p = Fraction(1)
    for n in range(1, n_max + 1):
        p *= build.value(-n)
        out.append(p)
    return out


def forward_norms(build, n_max: Optional[int] = None) -> list:
    """out[n] = 1 / |w_2 w_3 ... w_{n+1}| (inverse orbit of e_1), out[0] = 1."""
    n_max = build.layout.t_max if n_max is None else n_max
    out = [Fraction(1)]
    p = Fraction(1)
    for n in range(1, n_max + 1):
        p *= build.value(n + 1)
        out.append(1 / p)
    return out


def closed_norms(build) -> list:
    """The closed-form orbit norms written out, out[0] = 1."""
    out = [Fraction(1)]
    for j in range(1, build.layout.j_max + 1):
        for half in closed_form_norms(build.layout, j):
            out += expand_runs(half)
    return out


def verify_inequalities(build) -> AuditReport:
    """eq1..eq4, closed-form equality and symmetry, index by index."""
    layout = build.layout
    j_max = layout.j_max
    violations: list[str] = []

    nb = backward_norms(build)
    nf = forward_norms(build)
    symmetry = nb == nf
    if not symmetry:
        violations.append("backward/forward norm symmetry broken")
    matches = nb == closed_norms(build)
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

    eq4_first = None
    for j in range(1, j_max):
        p, nxt = layout[j], layout[j + 1]
        t_prev = p.t - p.a - p.b
        eq4_first = first_below(prefix, j + 1, t_prev + 4 * p.k, p.t + 4 * nxt.k)
        if eq4_first is not None:
            violations.append(f"eq4 fails at j={j}, n={eq4_first}")
            break

    p1 = layout[1]
    lhs_j1 = prefix[p1.s] / (p1.s + 4 * p1.r)
    eq2_j1 = {"value": str(lhs_j1), "holds": lhs_j1 >= 2}

    return AuditReport(j_max, matches, symmetry, eq1, eq2, eq3, eq4_first is None, eq4_first,
                       eq2_j1, tuple(violations))


def first_below(prefix, c, lo: int, hi: int) -> Optional[int]:
    """First n in [lo, hi] with prefix[n] < c * n, or None."""
    return next((n for n in range(lo, hi + 1) if prefix[n] < c * n), None)


def hypercyclicity_witness(build, t_range: int = 8,
                           thresholds: Optional[list] = None) -> HypercyclicityAudit:
    """The witness audit with step-by-step plateaus and products taken
    weight by weight."""
    if thresholds is None:
        thresholds = [Fraction(1, 2 ** m) for m in range(0, 11)]
    layout = build.layout
    nb = backward_norms(build)
    nf = forward_norms(build)
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

    products: dict = {}
    hyperbolic: dict = {}
    c_values: dict = {}
    schedules: dict = {}
    skipped: list = []
    inverse_match = True
    certified = plateau_ok

    ts = range(-t_range, t_range + 1)
    for t in ts:
        products[t] = {j: abs(weight_product(build, t - layout[j].n_mid + 1, t))
                       for j in range(1, layout.j_max + 1)
                       if abs(t) <= 2 ** (layout[j].k - 1) - 2}

    for t in ts:
        per_j = products[t]
        for j in per_j:
            q = 1 / abs(weight_product(build, t + 1, t + layout[j].n_mid))
            if q != products[-t][j]:
                inverse_match = False
                violations.append(f"inverse product mismatch at t={t}, j={j}")
        if len(per_j) < 2:
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
                need = c / tau - 1
                first_j = int(need) if need == int(need) else int(need) + 1
                schedule.append({"threshold": str(tau), "first_j": first_j,
                                 "extrapolated": True})
        schedules[t] = schedule

    if inverse_match is False:
        certified = False
    if len(skipped) == len(ts):
        certified = False
        violations.append("no shift audited: each has fewer than two blocks in reach")
    return HypercyclicityAudit(
        layout.j_max, t_range, plateau_ok, products, hyperbolic, c_values,
        schedules, inverse_match, certified, tuple(violations), tuple(skipped))


def orbit_norms(build, vector: str, n_max: int) -> list:
    if vector in ("e-1-forward", "e:-1"):
        return backward_norms(build, n_max)
    if vector in ("e1-backward", "e:1"):
        return forward_norms(build, n_max)
    raise ValueError(vector)


def upper_density(flags, n_max: int, n0: Optional[int] = None) -> DensityEstimate:
    """max over n0 <= n <= n_max of card(A ∩ [1, n]) / n, one ratio per n."""
    n0 = max(1, n_max // 10) if n0 is None else n0
    count = 0
    best = Fraction(0)
    for n, flag in enumerate(flags[:n_max], start=1):
        count += flag
        if n >= n0:
            best = max(best, Fraction(count, n))
    return DensityEstimate(n_max, n0, best)


def distributional_report(build, vector: str = "e-1-forward", k_grid=None, tau_grid=None,
                          n_horizon: Optional[int] = None, n0: Optional[int] = None) -> dict:
    """The density report with every ratio taken at every n."""
    layout = build.layout
    n_horizon = layout.t_max if n_horizon is None else n_horizon
    if k_grid is None:
        k_grid = [j + 1 for j in range(1, layout.j_max + 1)]
    if tau_grid is None:
        tau_grid = [Fraction(1, j + 1) for j in range(1, layout.j_max + 1)]
    norms = orbit_norms(build, vector, n_horizon)
    large = {K: upper_density([v >= K for v in norms[1:]], n_horizon, n0)
             for K in k_grid}
    small = {tau: upper_density([v <= tau for v in norms[1:]], n_horizon, n0)
             for tau in tau_grid}
    levels = {}
    for j in range(1, layout.j_max + 1):
        K, tau = j + 1, Fraction(1, j + 1)
        need = 1 - Fraction(1, j)
        if K in large and tau in small:
            levels[j] = {
                "large": str(large[K].value), "small": str(small[tau].value),
                "evidence": large[K].value >= need and small[tau].value >= need,
            }
    return {
        "vector": vector,
        "horizon": n_horizon,
        "large": {str(K): est.to_json() for K, est in large.items()},
        "small": {str(t): est.to_json() for t, est in small.items()},
        "irregularity_levels": levels,
    }


def cesaro_values(build, vector: str = "e-1-forward", side: str = "op",
                  n_max: Optional[int] = None) -> list:
    """Exact running averages; index n - 1 holds the average at n."""
    n_max = build.layout.t_max if n_max is None else n_max
    if side == "inverse":
        vector = "e1-backward" if vector in ("e-1-forward", "e:-1") else "e-1-forward"
    norms = orbit_norms(build, vector, n_max)
    out = []
    acc = Fraction(0)
    for n in range(1, n_max + 1):
        acc += norms[n]
        out.append(acc / n)
    return out


def density_csv_rows(build, vector: str, n_horizon: int, taus, kays) -> list:
    """The density CSV rows with an exact running sum, float(sum / n)."""
    from shiftlab.scalars import log2_exact

    norms = orbit_norms(build, vector, n_horizon)
    small = [0] * len(taus)
    large = [0] * len(kays)
    total = Fraction(0)
    rows = []
    for n in range(1, n_horizon + 1):
        v = norms[n]
        total += v
        for i, t in enumerate(taus):
            small[i] += v <= t
        for i, K in enumerate(kays):
            large[i] += v >= K
        row = [n, repr(log2_exact(v)), repr(float(total / n))]
        row += [repr(c / n) for c in small] + [repr(c / n) for c in large]
        rows.append(row)
    return rows
