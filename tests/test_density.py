from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from block_oracle import backward_norms, cesaro_values
from shiftlab.blocks import build_blocks, norm_runs
from shiftlab.density import _rows, _run_density, density_rows, distributional_report
from shiftlab.scalars import log2_exact
from shiftlab.spaces import InvalidSpecError

F = Fraction


@pytest.fixture(scope="module")
def build4():
    return build_blocks(4)


class TestUpperDensity:
    def test_even_numbers(self):
        est = _run_density([(1, 1), (2, 1)] * 500, lambda v: v == 2, 1000, 100)
        assert est.value == F(1, 2)

    def test_full_set(self):
        assert _run_density([(1, 500)], bool, 500, None).value == 1

    def test_exact_ratio_at_the_run_end(self):
        assert _run_density([(True, 3), (False, 7)], bool, 10, 1).value == 1  # 1 at n <= 3
        assert _run_density([(False, 7), (True, 3)], bool, 10, 1).value == F(3, 10)

    def test_small_norm_set_at_block_horizon(self, build4):
        # the level-4 small set at horizon s_4 has density >= 3/4
        s4 = build4.layout[4].s
        est = _run_density(norm_runs(build4, "backward", s4), lambda v: v <= F(1, 5), s4, None)
        assert est.value >= 1 - F(1, 4)

    def test_base_validation(self):
        with pytest.raises(InvalidSpecError):
            _run_density([(True, 10)], bool, 10, 20)

    @given(st.lists(st.booleans(), min_size=5, max_size=120),
           st.lists(st.booleans(), min_size=5, max_size=120))
    def test_subset_monotone(self, a, b):
        n = min(len(a), len(b))
        sub = [(a[i] and b[i], 1) for i in range(n)]
        sup = [(a[i] or b[i], 1) for i in range(n)]
        assert _run_density(sub, bool, n, 1).value <= _run_density(sup, bool, n, 1).value


def _per_index_rows(runs, taus, kays):
    """The density CSV records with an exact running sum, one n at a time."""
    total, counts, n, out = F(0), [0] * (len(taus) + len(kays)), 0, []
    for v, m in runs:
        flags = [v <= t for t in taus] + [v >= K for K in kays]
        for _ in range(m):
            n, total = n + 1, total + v
            counts = [c + f for c, f in zip(counts, flags)]
            out.append(",".join([str(n), repr(log2_exact(v)), repr(float(total / n))]
                                + [repr(c / n) for c in counts]))
    return out


# small parts and parts past 2^60, where a float sum or ratio would round
_PART = st.one_of(st.integers(1, 60), st.integers(2 ** 60, 2 ** 66))


class TestDensityRows:
    @given(st.lists(st.tuples(st.builds(F, _PART, _PART), st.integers(1, 50)),
                    min_size=1, max_size=8),
           st.data())
    def test_runs_match_per_index_route(self, runs, data):
        # thresholds at a norm, just below or above it, or anywhere
        norms = [v for v, _ in runs]
        near = st.builds(lambda v, e: v * e, st.sampled_from(norms),
                         st.sampled_from([F(1), F(2 ** 62 - 1, 2 ** 62), F(2 ** 62 + 1, 2 ** 62)]))
        grid = st.lists(st.one_of(near, st.builds(F, _PART, _PART)), max_size=3)
        taus, kays = data.draw(grid), data.draw(grid)
        assert list(_rows(runs, taus, kays)) == _per_index_rows(runs, taus, kays)


class TestDistributionalReport:
    def test_levels_certified(self, build4):
        rep = distributional_report(build4)
        for j in range(2, 5):
            assert rep["irregularity_levels"][j]["evidence"]

    def test_level3_densities_at_t3(self, build4):
        rep = distributional_report(build4, n_horizon=build4.layout[3].t)
        level = rep["irregularity_levels"][3]
        assert F(level["large"]) >= F(2, 3)
        assert F(level["small"]) >= F(2, 3)

    def test_inverse_orbit_matches(self, build4):
        a = distributional_report(build4, "e-1-forward")
        b = distributional_report(build4, "e1-backward")
        assert a["irregularity_levels"] == b["irregularity_levels"]

    def test_horizon_guard(self, build4):
        with pytest.raises(InvalidSpecError):
            distributional_report(build4, n_horizon=build4.layout.t_max + 1)


def _running_averages(build, vector, n_max):
    """The density CSV's running_average column, the route to the Cesàro means."""
    return [float(row.split(",")[2]) for row in density_rows(build, vector, n_max, [], [])]


class TestCesaroTrace:
    def test_blocks_probe(self, build4):
        assert _running_averages(build4, "e-1-forward", 32)[8 - 1] == 7.5

    def test_eq4_band(self, build4):
        # exact averages: a float one could round onto the bound j + 1
        averages = cesaro_values(build4)
        layout = build4.layout
        for j in range(1, 4):
            p, nxt = layout[j], layout[j + 1]
            t_prev = p.t - p.a - p.b
            for n in range(t_prev + 4 * p.k, p.t + 4 * nxt.k + 1):
                assert averages[n - 1] >= j + 1

    def test_sides_agree(self, build4):
        assert _running_averages(build4, "e-1-forward", 500) == _running_averages(
            build4, "e1-backward", 500)

    def test_log_lane_agrees_with_exact_route(self, build4):
        # the criteria module forms its averages in the log domain; rebuild
        # the same branch aggregate with exact rationals and compare
        import numpy as np

        from shiftlab.criteria import _avg_term_logs
        from shiftlab import _kernels
        from shiftlab.scalars import log2_exact
        from shiftlab.shifts import ShiftOperator, weight_product
        from shiftlab.spaces import preset

        op = ShiftOperator("backward", build4, preset("c0_Z"))
        logs = _kernels.running_log2_average(_avg_term_logs(op, 1, "left", 2000))
        terms = [weight_product(build4, -j + 1, 0) for j in range(1, 2001)]
        acc = F(0)
        want = []
        for n, t in enumerate(terms, start=1):
            acc += t
            want.append(log2_exact(acc / n))
        np.testing.assert_allclose(logs, np.array(want), atol=1e-9)

    def test_trace_shifted_from_branch_terms(self, build4):
        # branch terms are the e_0 orbit norms; with w_0 = 1 they equal the
        # witness orbit norms shifted by one step
        from shiftlab.shifts import weight_product

        norms = backward_norms(build4, 50)
        for j in range(1, 50):
            assert weight_product(build4, -j + 1, 0) == norms[j - 1]
