"""Kernels and uniform curves against reference loops kept in this file.

The running average agrees with a sequential loop within its error budget.
criteria._ue_curve reads only the columns its matrix family names; for each
attested family its curve must be bitwise the per-n sweep over every valid
column (values as bytes), and usable the sweep's own edge check.  Both read
a column as (log2 a(j+s, l) + W[n]) - log2 a(j, k), W the walk sum, so on
constant and step rows, where every finite value at a step is the same
float, any constant weight matches; power rows draw dyadic weights.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftlab import _kernels
from shiftlab.criteria import HorizonConfig, _orbit_log2, _split_window, _ue_curve
from shiftlab.shifts import ShiftOperator, constant_weights
from shiftlab.spaces import PowerMatrix, SpaceSpec, preset


rng = np.random.default_rng(20240817)


def running_log2_average_reference(log_terms):
    """Sequential log-domain accumulation, one step at a time."""
    out = []
    acc = -math.inf
    for i, b in enumerate(np.asarray(log_terms, dtype=np.float64).tolist()):
        a, b = max(acc, b), min(acc, b)
        acc = a if b == -math.inf else a + math.log1p(2.0 ** (b - a)) / math.log(2.0)
        out.append(acc - math.log2(i + 1.0))
    return np.array(out)


def window_inf_curve_reference(g, h, valid, walk):
    """The per-n loop: one gather over the valid indices per step, each
    value (g[j + n] + walk[n - 1]) - h[j]."""
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    n_max = len(walk)
    inf_curve = np.full(n_max, np.inf, dtype=np.float64)
    if not valid.any():
        return inf_curve
    idx = np.nonzero(valid)[0]
    hv = h[idx]
    for n in range(1, n_max + 1):
        vals = (g[idx + n] + walk[n - 1]) - hv
        inf_curve[n - 1] = vals[int(np.argmin(vals))]
    return inf_curve


def walk_reference(op, n, sign):
    """log2 |coefficient| of T^(sign i) e_0 at i = 1..n, one weight at a
    time in walk order (d = -1 backward, +1 forward: T^i e_0 meets w(0),
    w(d), ..., T^-i e_0 meets w(-d), w(-2d), ...)."""
    step = sign * (-1 if op.direction == "backward" else 1)
    j = 0 if sign > 0 else step
    acc, out = 0.0, []
    for _ in range(n):
        acc += op.weights.log2(j)
        out.append(acc if sign > 0 else -acc)
        j += step
    return out


def ue_curve_reference(op, k, level, split, form, cfg, n_eff):
    """_ue_curve by sweeping: the per-n loop over every valid column, then
    over the edge-trimmed columns; usable where the two agree.  A column's
    value is (log2 a(j+s, l) + W[n]) - log2 a(j, k), s = n (A-form) or -n
    (B-form), W the walk sum from e_0 of the orbit that lands at e_s (T^n
    or T^-n, by the shift's direction): the weights are constant, so the
    walk from every column is the same."""
    m = op.space.matrix
    lo, hi, tail_edges = _split_window(split, cfg)
    ext_lo, ext_hi = (lo, hi + n_eff) if form == "A" else (lo - n_eff, hi)
    g = m.log2_row(level, ext_lo, ext_hi)
    h = m.log2_row(k, lo, hi)
    d = -1 if op.direction == "backward" else 1
    walk = walk_reference(op, n_eff, d if form == "A" else -d)
    valid = h != -np.inf
    if form == "B":
        # value(j, n) = (g[j - n] + W[n]) - h[j]: reversed, it is the loop's
        # (g[j + n] + W[n]) - h[j]
        g, h, valid = g[::-1], h[::-1], valid[::-1]
        tail_edges = [{"lo": "hi", "hi": "lo"}[e] for e in tail_edges]
    curve = window_inf_curve_reference(g, h, valid, walk)
    if not valid.any():
        return curve, np.ones(n_eff, dtype=bool)
    nz = np.flatnonzero(valid)
    trimmed = valid.copy()
    trimmed[[nz[0] if e == "lo" else nz[-1] for e in tail_edges]] = False
    return curve, window_inf_curve_reference(g, h, trimmed, walk) == curve


class TestRunningAverage:
    def test_matches_fallback(self):
        terms = rng.uniform(-50, 50, size=2000)
        a = _kernels.running_log2_average(terms)
        b = running_log2_average_reference(terms)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)

    def test_constant_ones(self):
        # magnitudes all 1: every running average is exactly 1 (log 0)
        out = _kernels.running_log2_average(np.zeros(64))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_geometric_closed_form(self):
        # terms 2^j: average (2^{n+1}-2)/n
        n = 40
        out = _kernels.running_log2_average(np.arange(1, n + 1, dtype=float))
        want = [math.log2(2 ** (m + 1) - 2) - math.log2(m) for m in range(1, n + 1)]
        np.testing.assert_allclose(out, want, rtol=1e-12)


DYADIC = [2, 1 / 2, 1, 4, 1 / 8, 1 / 4]
# log2 of these is not a short binary fraction, so walk sums round
NON_DYADIC = [Fraction(5, 2), Fraction(2, 3), Fraction(7, 5), 3, Fraction(1001, 1000)]


@st.composite
def curve_cases(draw, spaces, weights=DYADIC):
    """(op, k, level, split, form, cfg, n_eff) over one matrix family."""
    space = draw(st.sampled_from(spaces))
    k = draw(st.integers(1, 3))
    level = draw(st.integers(k, k + 5))
    n_eff = draw(st.integers(1, 120))
    window = draw(st.integers(1, 40))
    direction = draw(st.sampled_from(("forward", "backward") if space.bilateral else ("forward",)))
    op = ShiftOperator(direction, constant_weights(draw(st.sampled_from(weights))), space)
    split = draw(st.sampled_from(("Z", "N", "-N") if op.bilateral else ("N",)))
    form = draw(st.sampled_from("AB"))
    return op, k, level, split, form, HorizonConfig(n_max=n_eff, window=window), n_eff


def assert_matches_sweep(case):
    curve, usable = _ue_curve(*case)
    want_curve, want_usable = ue_curve_reference(*case)
    assert curve.dtype == np.float64
    assert curve.tobytes() == want_curve.tobytes()
    assert np.array_equal(usable, want_usable)


class TestUeCurveMatchesSweep:
    """One family per test: constant rows (on Z and on N) and the half-line
    step, on dyadic and non-dyadic weights, and the power rows of s (on Z
    and on N) on dyadic weights."""

    @settings(max_examples=150, deadline=None)
    @given(curve_cases([preset("c0_Z"), preset("lp_N", 2)], DYADIC + NON_DYADIC))
    def test_constant_family(self, case):
        assert_matches_sweep(case)

    @settings(max_examples=150, deadline=None)
    @given(curve_cases([preset("halfline_Z")], DYADIC + NON_DYADIC))
    def test_step_family(self, case):
        assert_matches_sweep(case)

    @settings(max_examples=300, deadline=None)
    @given(curve_cases([preset("s_Z"), SpaceSpec(PowerMatrix("N"), 1)]))
    def test_power_family(self, case):
        assert_matches_sweep(case)


class TestUeCurveAtDefaultHorizon:
    """The default horizon (n_max 10 000, window 1 000), far longer than the
    hypothesis tests draw: the named columns of the power rows move across
    the whole window as n grows."""

    @pytest.mark.parametrize("form", ["A", "B"])
    @pytest.mark.parametrize("space", ["c0_Z", "halfline_Z", "s_Z", "s_N"])
    def test_matches_sweep_bitwise(self, space, form):
        spec = SpaceSpec(PowerMatrix("N"), 1) if space == "s_N" else preset(space)
        op = ShiftOperator("forward", constant_weights(2), spec)
        cfg = HorizonConfig()
        assert_matches_sweep((op, 1, 3, "Z" if op.bilateral else "N", form, cfg, cfg.n_max))


class TestUeCurveIsTheOrbitNorm:
    """On constant and step rows every finite ratio at a step is the same
    float, the least being at the low end j of the valid run: the curve is
    bitwise _orbit_log2 at e_j (for the A-form the orbit that lands at
    e_{j+n}: T^n on a forward shift, T^-n on a backward one; for the
    B-form, which only bilateral shifts take, the other) less
    log2 ||e_j||_k, with non-dyadic weights too."""

    @pytest.mark.parametrize("c", [Fraction(5, 2), Fraction(2, 3)])
    @pytest.mark.parametrize("space, direction", [
        ("c0_Z", "forward"), ("lp_N", "forward"), ("halfline_Z", "forward"),
        ("c0_Z", "backward"), ("halfline_Z", "backward")])
    def test_curve_is_orbit_log2_at_the_low_end(self, space, direction, c):
        spec = preset(space, 2) if space == "lp_N" else preset(space)
        op = ShiftOperator(direction, constant_weights(c), spec)
        cfg, n_eff = HorizonConfig(n_max=200, window=30), 200
        for split in ("Z", "N", "-N") if op.bilateral else ("N",):
            lo, hi, _ = _split_window(split, cfg)
            for form in "AB" if op.bilateral else "A":
                for k, level in ((1, 1), (1, 3), (2, 4)):
                    nz = np.flatnonzero(spec.matrix.log2_row(k, lo, hi) != -np.inf)
                    if not nz.size:
                        continue  # no valid column: the curve is +inf
                    j = lo + int(nz[0])
                    pos, neg = next(_orbit_log2(op, j, [level], n_eff))
                    up = (form == "A") == (direction == "forward")  # lands at e_{j+n}
                    want = (pos if up else neg)[1:] - spec.matrix.log2_row(k, j, j)
                    curve, _ = _ue_curve(op, k, level, split, form, cfg, n_eff)
                    assert curve.tobytes() == want.tobytes(), (split, form, k, level)
