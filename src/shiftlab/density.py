"""Upper-density estimation and distributional-irregularity reporting.

Density claims about orbit-norm sequences are realized at block horizons:
the finite surrogate for a limsup of counting ratios is the maximum ratio
over a tail window [N0, N], with exact rational ratios throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .blocks import BlockBuild, backward_norms, forward_norms
from .spaces import InvalidSpecError

__all__ = [
    "DensityEstimate",
    "cesaro_trace",
    "distributional_report",
    "upper_density",
]


@dataclass(frozen=True)
class DensityEstimate:
    """max over N0 <= n <= N of card(A ∩ [1, n]) / n, with the ratio trace."""

    horizon: int
    base: int
    value: Fraction
    ratios: tuple  # (n, Fraction) at each n in [base, horizon]

    def to_json(self) -> dict:
        return {"horizon": self.horizon, "base": self.base, "value": str(self.value),
                "value_float": float(self.value)}


def upper_density(indicator, n_max: int, n0: Optional[int] = None) -> DensityEstimate:
    """Finite limsup surrogate for the density of {n : indicator(n)}.

    indicator: callable n -> bool or a sequence indexed from n = 1.
    Default base N0 = max(1, n_max // 10).
    """
    if n0 is None:
        n0 = max(1, n_max // 10)
    if not (1 <= n0 <= n_max):
        raise InvalidSpecError("need 1 <= n0 <= n_max")
    if callable(indicator):
        flags = [bool(indicator(n)) for n in range(1, n_max + 1)]
    else:
        flags = [bool(v) for v in indicator[:n_max]]
        if len(flags) < n_max:
            raise InvalidSpecError("indicator sequence shorter than the horizon")
    count = 0
    best = Fraction(0)
    ratios = []
    for n, flag in enumerate(flags, start=1):
        count += flag
        if n >= n0:
            r = Fraction(count, n)
            ratios.append((n, r))
            if r > best:
                best = r
    return DensityEstimate(n_max, n0, best, tuple(ratios))


def _norm_sequence(build: BlockBuild, vector: str, n_max: int) -> list[Fraction]:
    if vector in ("e-1-forward", "e:-1"):
        return backward_norms(build, n_max)
    if vector in ("e1-backward", "e:1"):
        return forward_norms(build, n_max)
    raise InvalidSpecError(
        f"distributional vectors are 'e-1-forward' or 'e1-backward', got {vector!r}")


def distributional_report(build: BlockBuild, vector: str = "e-1-forward",
                          k_grid: Optional[Sequence[int]] = None,
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
    norms = _norm_sequence(build, vector, n_horizon)

    large = {}
    for K in k_grid:
        est = upper_density([v >= K for v in norms[1:]], n_horizon, n0)
        large[K] = est
    small = {}
    for tau in tau_grid:
        est = upper_density([v <= tau for v in norms[1:]], n_horizon, n0)
        small[tau] = est

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


@dataclass(frozen=True)
class ExactTrace:
    """Running averages (1/n) sum of orbit norms, exact."""

    label: str
    values: tuple  # Fractions, index n-1 holds the average at n

    def value_at(self, n: int) -> Fraction:
        return self.values[n - 1]


def cesaro_trace(build: BlockBuild, vector: str = "e-1-forward",
                 side: str = "op", n_max: Optional[int] = None) -> ExactTrace:
    """Exact running averages of the orbit norms of a witness basis vector.

    side 'op' averages ||B^n e|| (the backward orbit for e_{-1}); side
    'inverse' averages the inverse orbit.  By the reversed-reciprocal
    symmetry of the construction the two traces coincide; both routes are
    computed from raw products so the equality stays testable.
    """
    n_max = build.layout.t_max if n_max is None else n_max
    if side == "op":
        norms = _norm_sequence(build, vector, n_max)
    elif side == "inverse":
        flipped = "e1-backward" if vector in ("e-1-forward", "e:-1") else "e-1-forward"
        norms = _norm_sequence(build, flipped, n_max)
    else:
        raise InvalidSpecError("side must be 'op' or 'inverse'")
    out = []
    acc = Fraction(0)
    for n in range(1, n_max + 1):
        acc += norms[n]
        out.append(acc / n)
    return ExactTrace(f"cesaro:{vector}:{side}", tuple(out))
