"""Upper-density estimation and distributional-irregularity reporting.

Density claims about orbit-norm sequences are realized at block horizons:
the finite surrogate for a limsup of counting ratios is the maximum ratio
over a tail window [N0, N], with exact rational ratios throughout.  For the
block orbits the ratios are taken on constant-value norm runs
(blocks.norm_runs): inside a run the ratio is monotone in n, so its
maximum over the run is at one of the run's ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import truediv
from typing import Iterator, Optional, Sequence

from .blocks import BlockWeights, norm_runs
from .scalars import log2_exact
from .spaces import InvalidSpecError

__all__ = [
    "DensityEstimate",
    "density_rows",
    "distributional_report",
]


@dataclass(frozen=True)
class DensityEstimate:
    """max over N0 <= n <= N of card(A ∩ [1, n]) / n."""

    horizon: int
    base: int
    value: Fraction

    def to_json(self) -> dict:
        return {"horizon": self.horizon, "base": self.base, "value": str(self.value),
                "value_float": float(self.value)}


def _run_density(runs, pred, n_max: int, n0: Optional[int]) -> DensityEstimate:
    """Finite limsup surrogate for the density of {n : pred(v_n)}, for a
    sequence given as (v, length) runs; default base N0 = max(1, n_max // 10).
    On the run after n = a the ratio (count_a + f*(n - a))/n is monotone in
    n, so only the ends of the run's part of [n0, n_max] count."""
    n0 = max(1, n_max // 10) if n0 is None else n0
    if not (1 <= n0 <= n_max):
        raise InvalidSpecError("need 1 <= n0 <= n_max")
    count, a, best = 0, 0, Fraction(0)
    for v, m in runs:
        f = pred(v)
        for n in sorted({max(a + 1, n0), a + m}):
            if n0 <= n <= a + m:
                best = max(best, Fraction(count + f * (n - a), n))
        count, a = count + f * m, a + m
    return DensityEstimate(n_max, n0, best)


_ORBITS = {"e-1-forward": "backward", "e1-backward": "forward"}


def _orbit(vector: str) -> str:
    if vector not in _ORBITS:
        raise InvalidSpecError(
            f"distributional vectors are 'e-1-forward' or 'e1-backward', got {vector!r}")
    return _ORBITS[vector]


def distributional_report(build: BlockWeights, vector: str = "e-1-forward",
                          k_grid: Optional[Sequence[Fraction]] = None,
                          tau_grid: Optional[Sequence[Fraction]] = None,
                          n_horizon: Optional[int] = None,
                          n0: Optional[int] = None) -> dict:
    """Density estimates of the large-norm sets {n : norm >= K} and the
    small-norm sets {n : norm <= tau}.

    Small sets are inclusive: at level j the evidence is the plateau of
    norms exactly equal to 1/(j+1), so tau = 1/(j+1) must count equality.
    Irregularity evidence at level j means both estimates reach 1 - 1/j
    with K = j+1 and tau = 1/(j+1).
    """
    layout = build.layout
    n_horizon = layout.t_max if n_horizon is None else n_horizon
    if n_horizon > layout.t_max:
        raise InvalidSpecError(f"horizon {n_horizon} exceeds the table reach {layout.t_max}")
    if k_grid is None:
        k_grid = [j + 1 for j in range(1, layout.j_max + 1)]
    if tau_grid is None:
        tau_grid = [Fraction(1, j + 1) for j in range(1, layout.j_max + 1)]
    runs = norm_runs(build, _orbit(vector), n_horizon)
    large = {K: _run_density(runs, lambda v: v >= K, n_horizon, n0) for K in k_grid}
    small = {tau: _run_density(runs, lambda v: v <= tau, n_horizon, n0) for tau in tau_grid}

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


def density_rows(build: BlockWeights, vector: str, n_horizon: int, taus, kays,
                 start: int = 0) -> Iterator[str]:
    """CSV records (rows joined with commas) n, log2 norm, running average and
    the counting ratios of the small- and large-norm sets, for n = start+1..
    n_horizon, made when iterated (a horizon past the table's reach raises at
    the call).  A start past 0 begins from the sums of the runs before it, in
    O(runs): the CLI's forked CSV worker makes the rows past the middle one.
    The running sum is N / L with L the lcm of the norm denominators:
    N / (L * n) is float(sum / n), one correctly rounded int division, as is
    count / n."""
    return _rows(norm_runs(build, _orbit(vector), n_horizon), taus, kays, start)


def _rows(runs, taus, kays, start: int = 0) -> Iterator[str]:
    lcm = math.lcm(*(v.denominator for v, _ in runs))
    scales = [lcm] + [1] * (len(taus) + len(kays))
    sums, a = [0] * len(scales), 0  # N and the counts at n = a
    for v, m in runs:  # inside a run each ratio is (c + f * (n - a)) / (d * n)
        flags = [v <= t for t in taus] + [v >= K for K in kays]
        steps = [v.numerator * (lcm // v.denominator)] + flags  # N grows by v * lcm
        lo, hi = max(a, start), a + m  # the rows lo < n <= hi are made
        if lo < hi:
            cols = [map(repr, map(truediv, range(c + f * (lo + 1 - a), c + f * m + 1, f) if f
                                  else repeat(c, hi - lo),
                                  range(d * (lo + 1), d * (hi + 1), d)))
                    for c, f, d in zip(sums, steps, scales)]
            yield from map(",".join, zip(map(str, range(lo + 1, hi + 1)),
                                         repeat(repr(log2_exact(v)), hi - lo), *cols))
        sums, a = [c + f * m for c, f in zip(sums, steps)], hi
