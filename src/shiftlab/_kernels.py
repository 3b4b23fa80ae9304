"""Hot numeric kernels, in numpy.

Everything here works on float64 arrays of base-2 logarithms.  The two
kernels dominate runtime on long horizon sweeps:

* running_log2_average  running Cesàro averages of a magnitude sequence
* window_inf_curve      per-step infima of ratio grids for uniform-expansivity
                        certificates: a blocked sweep over a zero-copy
                        sliding-window view of the ratio grid
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Cells of the window-infimum scratch block (128 KiB of float64).  Blocks of a
# few rows lose to per-row overhead, larger ones to cache misses and peak RSS.
_BLOCK_CELLS = 1 << 14


# ---------------------------------------------------------------------------
# running Cesàro averages in the log domain
# ---------------------------------------------------------------------------

def running_log2_average(log_terms: np.ndarray) -> np.ndarray:
    """out[i] = log2( (2**t[0] + ... + 2**t[i]) / (i+1) )."""
    log_terms = np.asarray(log_terms, dtype=np.float64)
    if log_terms.size == 0:
        return np.empty(0, dtype=np.float64)
    prefix = np.logaddexp2.accumulate(log_terms)
    counts = np.log2(np.arange(1, log_terms.size + 1, dtype=np.float64))
    return prefix - counts


# ---------------------------------------------------------------------------
# window-infimum curves
# ---------------------------------------------------------------------------

def window_inf_curve(g: np.ndarray, h: np.ndarray, valid: np.ndarray, n_max: int):
    """For n = 1..n_max compute inf over valid j of g[j+n] - h[j].

    g has length at least len(h) + n_max; h and valid share an origin.
    Returns the inf curve and the argmin index (into h) per step, the first
    such index on ties; an all-invalid window yields +inf and argmin -1.
    Valid entries of g and h must not be NaN or +inf.

    The span [a, b) from the first to the last valid index is one
    (n_max, b - a) grid whose row n - 1 is g[a+n : b+n] - h[a:b], a
    zero-copy sliding-window view of g.  It is reduced a block of rows at a
    time in one scratch buffer of _BLOCK_CELLS cells (one row, if the span
    is wider).  Invalid columns are set to +inf before each row's argmin;
    column 0 is valid, so they never win a row, not even a tie.
    """
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    inf_curve = np.full(n_max, np.inf, dtype=np.float64)
    argmin = np.full(n_max, -1, dtype=np.int64)
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        return inf_curve, argmin
    a, b = int(idx[0]), int(idx[-1]) + 1
    width = b - a
    holes = np.flatnonzero(~valid[a:b])
    h_span = h[a:b].copy()
    h_span[holes] = 0.0  # keep -inf - -inf (NaN, with a warning) out of the holes
    grid = sliding_window_view(g[a + 1:b + n_max], width)
    rows = max(1, _BLOCK_CELLS // width)
    scratch = np.empty((min(rows, n_max), width), dtype=np.float64)
    for r0 in range(0, n_max, rows):
        r1 = min(r0 + rows, n_max)
        block = scratch[:r1 - r0]
        np.subtract(grid[r0:r1], h_span, out=block)
        if holes.size:
            block[:, holes] = np.inf
        cols = block.argmin(axis=1)
        inf_curve[r0:r1] = block[np.arange(r1 - r0), cols]
        argmin[r0:r1] = cols + a
    return inf_curve, argmin
