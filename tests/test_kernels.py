"""Kernels against per-step reference loops kept in this file.

window_inf_curve must be bitwise equal to the per-n loop it replaced
(values as bytes); the running average agrees with a sequential loop
within its error budget.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftlab import _kernels


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


def window_inf_curve_reference(g, h, valid, n_max):
    """The per-n loop: one gather over the valid indices per step."""
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    inf_curve = np.full(n_max, np.inf, dtype=np.float64)
    if not valid.any():
        return inf_curve
    idx = np.nonzero(valid)[0]
    hv = h[idx]
    for n in range(1, n_max + 1):
        vals = g[idx + n] - hv
        inf_curve[n - 1] = vals[int(np.argmin(vals))]
    return inf_curve


def assert_same_curve(got, want):
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


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


# few distinct values, so rows tie often; -inf only in g (h is finite on
# valid indices, as in the criteria)
_G_VALUES = st.sampled_from([-2.0, -0.5, 0.0, 1.0, 1.0, 3.25, -np.inf])
_H_VALUES = st.sampled_from([-1.0, 0.0, 0.5, 2.0])


@st.composite
def window_cases(draw):
    width = draw(st.integers(1, 40))
    n_max = draw(st.integers(1, 60))
    extra = draw(st.integers(0, 3))  # g may be longer than len(h) + n_max
    g = np.array(draw(st.lists(_G_VALUES, min_size=width + n_max + extra,
                               max_size=width + n_max + extra)))
    h = np.array(draw(st.lists(_H_VALUES, min_size=width, max_size=width)))
    shape = draw(st.sampled_from(["random", "none", "one-run", "single"]))
    if shape == "random":
        valid = np.array(draw(st.lists(st.booleans(), min_size=width, max_size=width)))
    else:
        valid = np.zeros(width, dtype=bool)
        a = draw(st.integers(0, width - 1))
        b = a + 1 if shape == "single" else draw(st.integers(a + 1, width))
        if shape != "none":
            valid[a:b] = True
    h[~valid] = draw(st.sampled_from([-np.inf, 7.0]))  # never read
    return g, h, valid, n_max


class TestWindowInfCurve:
    def _random_case(self, width=64, n_max=48):
        h = rng.uniform(-10, 10, size=width)
        g = rng.uniform(-10, 10, size=width + n_max)
        valid = rng.random(width) > 0.2
        return g, h, valid, n_max

    def test_matches_fallback_bitwise(self):
        g, h, valid, n_max = self._random_case()
        assert_same_curve(_kernels.window_inf_curve(g, h, valid, n_max),
                          window_inf_curve_reference(g, h, valid, n_max))

    @settings(max_examples=300, deadline=None)
    @given(window_cases())
    def test_matches_reference_bitwise(self, case):
        assert_same_curve(_kernels.window_inf_curve(*case), window_inf_curve_reference(*case))

    @pytest.mark.parametrize("width,n_max", [(300, 120), (1 << 14, 3), ((1 << 14) + 5, 4)])
    def test_wide_and_short_grids(self, width, n_max):
        g = rng.integers(-4, 4, size=width + n_max).astype(float)
        h = rng.integers(-4, 4, size=width).astype(float)
        for valid in (np.ones(width, dtype=bool), rng.random(width) > 0.3):
            assert_same_curve(_kernels.window_inf_curve(g, h, valid, n_max),
                              window_inf_curve_reference(g, h, valid, n_max))

    @pytest.mark.parametrize("n_max,width,invalid", [(9_000, 301, 0.0), (9_000, 301, 0.3),
                                                     (1_366, 301, 0.3), (1_365, 301, 0.3)])
    @pytest.mark.parametrize("neg_inf", [False, True], ids=["finite", "neg-inf-in-g"])
    def test_default_horizon_shapes(self, n_max, width, invalid, neg_inf):
        # horizons near the default (10 000) and of a thousand-odd steps,
        # longer than the hypothesis test draws
        g = rng.integers(-40, 40, size=width + n_max + 2).astype(float)
        h = rng.integers(-40, 40, size=width).astype(float)
        valid = rng.random(width) >= invalid
        valid[0] = True
        if neg_inf:
            g[rng.choice(g.size, size=g.size // 50, replace=False)] = -np.inf
        assert_same_curve(_kernels.window_inf_curve(g, h, valid, n_max),
                          window_inf_curve_reference(g, h, valid, n_max))

    def test_ties_take_first_index(self):
        g = np.zeros(10)
        h = np.zeros(5)
        valid = np.array([False, True, False, True, True])
        curve = _kernels.window_inf_curve(g, h, valid, 5)
        assert np.all(curve == 0.0)

    def test_all_invalid_gives_inf(self):
        g, h, _, n_max = self._random_case()
        curve = _kernels.window_inf_curve(g, h, np.zeros(h.size, dtype=bool), n_max)
        assert np.all(np.isinf(curve))

    def test_brute_force_small(self):
        g, h, valid, n_max = self._random_case(width=12, n_max=9)
        curve = _kernels.window_inf_curve(g, h, valid, n_max)
        for n in range(1, n_max + 1):
            vals = [g[j + n] - h[j] for j in range(h.size) if valid[j]]
            assert curve[n - 1] == min(vals)
