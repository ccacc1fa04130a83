"""Difference tables, exact alternating sums, branch splits, damped evaluation."""

import cmath
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pentafold import (
    Branch,
    NonPolynomialSequenceError,
    TruncationInfeasibleError,
    abel_evaluate,
    difference_table,
    euler_sum_alternating,
    pentagonal,
    pentagonal_power_sum,
    required_exponent_cap,
    residue_class_abel,
)
from pentafold.pentagonal import signed_values
from pentafold.summation import FloatRangeError

MINUS_ROW = [1, 5, 12, 22, 35, 51, 70]
PLUS_ROW = [2, 7, 15, 26, 40, 57, 77]
MINUS_SQUARES = [1, 25, 144, 484, 1225, 2601, 4900]
PLUS_SQUARES = [4, 49, 225, 676, 1600, 3249, 5929]


def test_difference_table_linear_case():
    table = difference_table(MINUS_ROW)
    assert table.rows[1] == (4, 7, 10, 13, 16, 19)
    assert table.rows[2] == (3, 3, 3, 3, 3)
    assert table.rows[3] == (0, 0, 0, 0)
    assert table.depth == 3


def test_difference_table_squares_case():
    table = difference_table(PLUS_SQUARES)
    assert table.rows[1] == (45, 176, 451, 924, 1649, 2680)
    assert table.rows[2] == (131, 275, 473, 725, 1031)
    assert table.rows[3] == (144, 198, 252, 306)
    assert table.rows[4] == (54, 54, 54)
    assert table.rows[5] == (0, 0)


def test_difference_table_constant_sequence():
    assert difference_table([7, 7, 7]).rows == ((7, 7, 7), (0, 0))


def test_difference_table_all_zero_input():
    assert difference_table([0, 0, 0]).rows == ((0, 0, 0),)


def test_difference_table_depth_limit():
    with pytest.raises(NonPolynomialSequenceError):
        difference_table(MINUS_SQUARES, depth_limit=3)


def test_difference_table_insufficient_terms():
    with pytest.raises(NonPolynomialSequenceError):
        difference_table([1, 5, 12])  # quadratic data, too short to bottom out


def test_difference_table_rejects_empty():
    with pytest.raises(ValueError):
        difference_table([])


def test_euler_sum_examples():
    assert euler_sum_alternating([1] * 8) == Fraction(1, 2)
    assert euler_sum_alternating(MINUS_ROW) == Fraction(-1, 8)
    assert euler_sum_alternating(PLUS_SQUARES) == Fraction(-3, 16)
    assert euler_sum_alternating(MINUS_SQUARES) == Fraction(3, 16)
    assert euler_sum_alternating(PLUS_ROW) == Fraction(1, 8)


def test_euler_sum_is_length_invariant():
    quartic = [k**4 - 3 * k + 2 for k in range(8)]
    longer = [k**4 - 3 * k + 2 for k in range(20)]
    assert euler_sum_alternating(quartic) == euler_sum_alternating(longer)


@given(
    st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=6),
)
def test_euler_sum_extension_invariance(coeffs, extra):
    def poly(k):
        return sum(c * k**d for d, c in enumerate(coeffs))

    base_len = len(coeffs) + 2
    base = [poly(k) for k in range(base_len)]
    extended = [poly(k) for k in range(base_len + extra)]
    assert euler_sum_alternating(base) == euler_sum_alternating(extended)


def test_power_sum_split_small_exponents():
    zero = pentagonal_power_sum(0)
    assert (zero.s, zero.t, zero.total) == (Fraction(-1, 2), Fraction(-1, 2), Fraction(0))
    one = pentagonal_power_sum(1)
    assert (one.s, one.t, one.total) == (Fraction(1, 8), Fraction(-1, 8), Fraction(0))
    two = pentagonal_power_sum(2)
    assert (two.s, two.t, two.total) == (Fraction(3, 16), Fraction(-3, 16), Fraction(0))


def test_power_sum_split_vanishes_through_ten():
    for exponent in range(11):
        assert pentagonal_power_sum(exponent).total == 0


def test_power_sum_split_rejects_negative():
    with pytest.raises(ValueError):
        pentagonal_power_sum(-1)


def test_required_cap_monotone_in_tolerance():
    loose = required_exponent_cap(1, 0.9, 1e-3)
    tight = required_exponent_cap(1, 0.9, 1e-9)
    assert loose <= tight


@pytest.mark.parametrize("tolerance", [0.0, -1e-9, math.nan])
def test_required_cap_rejects_a_tolerance_that_is_not_positive(tolerance):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        required_exponent_cap(1, 0.99, tolerance)


def test_required_cap_infeasible_names_needed_value():
    with pytest.raises(TruncationInfeasibleError) as exc:
        required_exponent_cap(1, 0.9999999, 1e-9)
    assert exc.value.needed > 10**6
    assert str(exc.value.needed) in str(exc.value)


def test_abel_parameter_validation():
    with pytest.raises(ValueError):
        abel_evaluate(0, 0, 0, 0.5)
    with pytest.raises(ValueError):
        abel_evaluate(0, 1, 0, 1.5)
    with pytest.raises(ValueError):
        residue_class_abel(0, 2, 2, 0.5)


def test_abel_matches_truncated_product():
    for rho in (0.3, 0.5, 0.9):
        tolerance = 1e-9
        value = abel_evaluate(0, 1, 0, rho, tolerance)
        cap = required_exponent_cap(0, rho, tolerance)
        product = 1.0
        for k in range(1, cap + 1):
            product *= 1.0 - rho**k
        assert abs(value - product) < tolerance


def test_abel_near_zero_damping_keeps_only_constant():
    assert abs(abel_evaluate(0, 1, 0, 1e-6, 1e-9) - 1.0) < 1e-4


def test_abel_small_at_minus_one():
    # the damped series at -rho sinks toward the limit 0
    assert abs(abel_evaluate(1, 2, 1, 0.99, 1e-9)) < 1e-3
    assert abs(abel_evaluate(1, 2, 1, 0.999, 1e-9)) < 1e-3


def test_abel_decay_with_matching_caps():
    for exponent in range(4):
        for m in range(1, 5):
            cap = required_exponent_cap(exponent, 0.999, 1e-9)
            for i in range(m):
                near = abs(abel_evaluate(exponent, m, i, 0.999, 1e-9, exponent_cap=cap))
                far = abs(abel_evaluate(exponent, m, i, 0.9, 1e-9, exponent_cap=cap))
                assert near < far, (exponent, m, i, near, far)


def test_abel_keeps_the_direct_formula_within_float_range():
    # bit-identical to summing sign * float(v**exponent) * rho**v * root**v
    for exponent, m, i, rho in ((0, 1, 0, 0.9), (3, 7, 3, 0.99), (40, 3, 1, 0.95)):
        cap = required_exponent_cap(exponent, rho, 1e-9)
        total = complex(1.0 if exponent == 0 else 0.0, 0.0)
        for value, sign in signed_values(cap):
            angle = 2.0 * math.pi / m * ((value * i) % m)
            magnitude = float(value**exponent) * rho**value
            total += sign * magnitude * complex(math.cos(angle), math.sin(angle))
        assert abel_evaluate(exponent, m, i, rho) == total


def test_residue_filter_keeps_the_direct_formula():
    # bit-identical to averaging the evaluations weighted by alpha**(-i*residue)
    for exponent, m, residue, rho in ((0, 5, 2, 0.9), (3, 7, 3, 0.99), (2, 12, 5, 0.95)):
        cap = required_exponent_cap(exponent, rho, 1e-9)
        total = complex(0.0, 0.0)
        for i in range(m):
            x = 2.0 * math.pi / m * ((i * residue) % m)
            weight = complex(math.cos(-x), math.sin(-x))
            total += weight * abel_evaluate(exponent, m, i, rho, exponent_cap=cap)
        assert residue_class_abel(exponent, m, residue, rho) == total / m


def test_abel_cost_does_not_grow_with_the_root_order():
    # only the roots the stream reaches are computed, never a table of all m
    tracemalloc.start()
    try:
        value = abel_evaluate(0, 10**6, 1, 0.9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    # at m = 10**8 the root sits next to 1, so the sum is Euler's product at 0.9
    product = 1.0
    for k in range(1, 400):
        product *= 1.0 - 0.9**k
    assert abel_evaluate(0, 10**8, 1, 0.9) == pytest.approx(product, abs=1e-6)
    assert abs(value - product) < 1e-3


def test_abel_log_domain_terms_match_exact_sum():
    # at rho = 0.74 the largest terms sit near value 400, where float(value**120)
    # overflows, so the log-domain magnitudes carry the sum
    for rho in (0.74, 0.5):
        cap = required_exponent_cap(120, rho, 1e-9)
        with localcontext() as ctx:
            ctx.prec = 60
            exact = sum(sign * Decimal(v) ** 120 * Decimal(rho) ** v for v, sign in signed_values(cap))
        got = abel_evaluate(120, 2, 0, rho, exponent_cap=cap)
        assert cmath.isfinite(got)
        assert abs(Decimal(got.real) / exact - 1) < Decimal("1e-10")


def test_abel_beyond_float_range_raises_typed_error():
    with pytest.raises(FloatRangeError):
        abel_evaluate(120, 2, 0, 0.9)
    with pytest.raises(FloatRangeError):
        residue_class_abel(130, 4, 1, 0.9)
    assert issubclass(FloatRangeError, ValueError)


def test_abel_deterministic_for_fixed_cap():
    a = abel_evaluate(2, 5, 3, 0.99, 1e-9)
    b = abel_evaluate(2, 5, 3, 0.99, 1e-9)
    assert a == b


def test_residue_filter_examples():
    at_099 = abs(residue_class_abel(1, 2, 0, 0.99, 1e-9))
    assert at_099 < 1e-2
    assert at_099 < abs(residue_class_abel(1, 2, 0, 0.9, 1e-9))
    assert abs(residue_class_abel(2, 3, 1, 0.999, 1e-9)) < abs(
        residue_class_abel(2, 3, 1, 0.9, 1e-9)
    )


def test_residue_filter_is_identity_for_order_one():
    assert residue_class_abel(0, 1, 0, 0.5, 1e-9) == abel_evaluate(0, 1, 0, 0.5, 1e-9)


def test_residue_filters_sum_to_unfiltered_value():
    for exponent in (0, 1, 2):
        for m in (2, 3, 5):
            total = sum(residue_class_abel(exponent, m, r, 0.9, 1e-9) for r in range(m))
            assert abs(total - abel_evaluate(exponent, m, 0, 0.9, 1e-9)) < 1e-9
