"""The log lane in numpy: the cached log2 rows of matrices and weights
(Log2Cache) and the running Cesàro average of a magnitude sequence
(running_log2_average), all on float64 arrays of base-2 logarithms.
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

