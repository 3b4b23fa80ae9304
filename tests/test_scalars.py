import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from shiftlab import _kernels
from shiftlab.scalars import (
    InvalidSpecError,
    ZERO_LOG2,
    exact_from_json,
    exact_to_json,
    log2_exact,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=997)
nonzero_rationals = rationals.filter(lambda f: f != 0)


def ulp_tol(*values, n=2):
    scale = max([abs(v) for v in values] + [1.0])
    return n * math.ulp(scale)


class TestExactArith:
    def test_json_roundtrip(self):
        x = Fraction(-(10 ** 40) + 1, 3 ** 30)
        assert exact_from_json(exact_to_json(x)) == x

    @pytest.mark.parametrize("obj", [1, "1/2", [1, 2], None, {"num": "1"},
                                     {"num": "x", "den": "1"}, {"num": "1", "den": "0"}])
    def test_malformed_json_is_invalid_spec(self, obj):
        with pytest.raises(InvalidSpecError) as err:
            exact_from_json(obj)
        assert str(err.value).startswith("exact scalar must be ")
        assert str(err.value).endswith(f"got {obj!r}")

    def test_invalid_spec_error_reexported(self):
        from shiftlab.spaces import InvalidSpecError as from_spaces

        assert from_spaces is InvalidSpecError


def _log2_exact_reference(x) -> float:
    """log2_exact as first written: a Fraction mantissa in [1, 2)."""
    f = Fraction(x)
    num, den = abs(f.numerator), f.denominator
    if num == 0:
        return ZERO_LOG2
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        return float(num.bit_length() - den.bit_length())
    e = num.bit_length() - den.bit_length()
    mant = Fraction(num, den << e) if e >= 0 else Fraction(num << -e, den)
    if mant < 1:
        mant *= 2
        e -= 1
    return e + math.log2(float(mant))


def _same_float(a: float, b: float) -> bool:
    return math.copysign(1.0, a) == math.copysign(1.0, b) and a == b


# wide rationals, near-powers of two (mantissa at the ends of [1, 2)) and
# the (|j|+1)**k entries of the power matrix
wide_rationals = st.builds(Fraction, st.integers(-(2 ** 400), 2 ** 400),
                           st.integers(1, 2 ** 400))
near_pow2 = st.builds(lambda m, d, up: Fraction(2 ** m + d, 2 ** (m - up)),
                      st.integers(1, 300), st.sampled_from((-1, 1)), st.integers(0, 1))
power_entries = st.builds(lambda j, k: (j + 1) ** k, st.integers(0, 10 ** 5),
                          st.integers(1, 12))
# numerator and denominator of equal bit length (|x| in (1/2, 2)): log2 is
# below 1, so a mis-rounded mantissa shows in the result
same_length = st.builds(Fraction, st.integers(2 ** 300, 2 ** 301 - 1),
                        st.integers(2 ** 300, 2 ** 301 - 1))


class TestLog2ExactReference:
    @given(st.one_of(wide_rationals, near_pow2, same_length, power_entries,
                     st.integers(-(2 ** 80), 2 ** 80), power_entries.map(Fraction)))
    def test_bitwise_equal_to_reference(self, x):
        assert _same_float(log2_exact(x), _log2_exact_reference(x))

    @pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(3, 8), Fraction(2, 5),
                                   Fraction(5, 2), Fraction(8, 3), 0, Fraction(0), -7,
                                   Fraction(-5, 3), 2 ** 1100 + 1, Fraction(1, 2 ** 1100 - 1)])
    def test_fixed_values(self, x):
        assert _same_float(log2_exact(x), _log2_exact_reference(x))


class TestToLog:
    """Values of log2_exact, the exact-to-log conversion."""

    def test_quarter_exact(self):
        assert log2_exact(Fraction(1, 4)) == -2.0

    def test_power_exact(self):
        assert log2_exact(Fraction(2 ** 13)) == 13.0

    def test_zero_sentinel(self):
        assert log2_exact(0) == ZERO_LOG2

    def test_nontrivial_value(self):
        # independent evaluator: math.log2 on the small fraction directly
        got = log2_exact(Fraction(31, 6))
        want = math.log2(31 / 6)
        assert got == pytest.approx(want, abs=ulp_tol(want))

    def test_huge_value_no_overflow(self):
        x = Fraction(2 ** 5000 + 1, 3)
        got = log2_exact(x)
        want = 5000 - math.log2(3)
        assert got == pytest.approx(want, rel=1e-14)

    @given(nonzero_rationals, nonzero_rationals)
    def test_product_law(self, a, b):
        la, lb, lab = log2_exact(a), log2_exact(b), log2_exact(a * b)
        assert abs(lab - (la + lb)) <= ulp_tol(la, lb, lab)

    @given(st.integers(min_value=-200, max_value=200),
           st.integers(min_value=-200, max_value=200))
    def test_product_law_exact_for_dyadics(self, e1, e2):
        a, b = Fraction(2) ** e1, Fraction(2) ** e2
        assert log2_exact(a * b) == log2_exact(a) + log2_exact(b) == e1 + e2

    @given(nonzero_rationals, nonzero_rationals)
    def test_cmp_agrees_with_logs(self, a, b):
        la, lb = log2_exact(abs(a)), log2_exact(abs(b))
        if abs(la - lb) > 2.0 ** -30:
            assert (la < lb) == (abs(a) < abs(b))


class TestCompensatedSum:
    """Laws of _kernels.log2_magnitude_sum, the compensated sum of magnitudes
    behind spaces.seminorm."""

    def test_four_ones(self):
        assert _kernels.log2_magnitude_sum([0.0] * 4) == 2.0

    def test_geometric(self):
        # 2^1 + ... + 2^10 = 2^11 - 2 = 2046
        got = _kernels.log2_magnitude_sum([float(m) for m in range(1, 11)])
        assert got == pytest.approx(math.log2(2046), rel=1e-12)

    def test_first_block_norms_vs_exact(self):
        values = [2, 4, 8, 16, 16, 8, 4, 2] + [Fraction(1, 2)] * 4
        got = _kernels.log2_magnitude_sum([log2_exact(v) for v in values])
        assert got == pytest.approx(math.log2(62), rel=2.0 ** -40)

    def test_order_independence(self):
        logs = [log2_exact(Fraction(3, 7) ** k) for k in range(50)]
        assert (_kernels.log2_magnitude_sum(logs)
                == _kernels.log2_magnitude_sum(list(reversed(logs))))

    @given(st.lists(st.integers(min_value=-80, max_value=80), min_size=1, max_size=300))
    def test_dyadic_against_exact_oracle(self, exponents):
        # exact oracle: sum the dyadics as Fractions
        truth = sum((Fraction(2) ** e for e in exponents), Fraction(0))
        got = _kernels.log2_magnitude_sum([log2_exact(Fraction(2) ** e) for e in exponents])
        assert got == pytest.approx(log2_exact(truth), abs=2.0 ** -40 + ulp_tol(got))

    def test_million_term_dyadic(self):
        # 2^20 copies of 1 sum to exactly 2^20
        got = _kernels.log2_magnitude_sum([0.0] * (2 ** 20))
        assert abs(got - 20.0) <= 2.0 ** -40 * 20
