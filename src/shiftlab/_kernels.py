"""Hot numeric kernels and the log2 cache they read: the log lane, in numpy.

Everything here works on float64 arrays of base-2 logarithms.  The two
kernels dominate runtime on long horizon sweeps:

* running_log2_average  running Cesàro averages of a magnitude sequence
* window_inf_curve      per-step infima of ratio grids for uniform-expansivity
                        certificates: the elementwise minimum of the grid's
                        valid columns, each a contiguous strip of g
"""

from __future__ import annotations

import numpy as np


class Log2Cache:
    """float64 log2 values over one contiguous index range, grown on demand.

    ``window(lo, hi, fill)`` calls ``fill(a, b)`` (the log2 values at indices
    a..b) only for indices outside the cached range, so each index is
    converted once while requests overlap or touch that range.  A request
    disjoint from it replaces the range instead: filling the gap could touch
    indices no request asked for, where finite tables raise.  Returned arrays
    are read-only views into the cache.
    """

    def __init__(self):
        self._lo, self._values = 0, None  # no array before the first fill

    def window(self, lo: int, hi: int, fill) -> np.ndarray:
        if hi < lo:
            return np.empty(0, dtype=np.float64)
        c_lo, cached = self._lo, self._values
        c_hi = c_lo - 1 if cached is None else c_lo + cached.size - 1
        if cached is None or lo > c_hi + 1 or hi < c_lo - 1:
            values, new_lo = fill(lo, hi), lo
        elif lo < c_lo or hi > c_hi:
            parts = [cached]
            if lo < c_lo:
                parts.insert(0, fill(lo, c_lo - 1))
            if hi > c_hi:
                parts.append(fill(c_hi + 1, hi))
            values, new_lo = np.concatenate(parts), min(lo, c_lo)
        else:
            return cached[lo - c_lo:hi - c_lo + 1]
        values.flags.writeable = False
        self._lo, self._values = new_lo, values
        return values[lo - new_lo:hi - new_lo + 1]


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
    Returns the inf curve; an all-invalid window yields +inf.  Valid entries
    of g and h must not be NaN or +inf.

    Column j of the (n_max, len(h)) grid is the contiguous strip
    g[j+1 : j+1+n_max] - h[j], and the curve is the elementwise minimum of
    the strips of the valid columns; invalid columns are never read.  Each
    strip is subtracted into one strip-sized buffer and folded into the
    curve.  The minimum of the same float64 values does not depend on the
    order it is taken in (valid cells hold no NaN, and no -0.0 arises), so
    the curve is bitwise that of the per-n loop.
    """
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    inf_curve = np.full(n_max, np.inf, dtype=np.float64)
    strip = np.empty(n_max, dtype=np.float64)
    for j in np.flatnonzero(valid).tolist():
        np.subtract(g[j + 1:j + 1 + n_max], h[j], out=strip)
        np.minimum(inf_curve, strip, out=inf_curve)
    return inf_curve
