"""Difference tables, exact alternating sums, branch splits, damped evaluation."""

import cmath
import itertools
import math
import re
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pentafold import (
    Branch,
    NonPolynomialSequenceError,
    TruncationInfeasibleError,
    abel_decay,
    abel_evaluate,
    difference_table,
    euler_sum_alternating,
    pentagonal,
    pentagonal_power_sum,
    required_exponent_cap,
    residue_class_abel,
)
from pentafold import summation
from pentafold.cli import main
from pentafold.pentagonal import differences, signed_values
from pentafold.summation import MARGIN_BITS, FloatRangeError, fixed_point_bits, root_of_unity_fixed

MINUS_ROW = [1, 5, 12, 22, 35, 51, 70]
PLUS_ROW = [2, 7, 15, 26, 40, 57, 77]
MINUS_SQUARES = [1, 25, 144, 484, 1225, 2601, 4900]
PLUS_SQUARES = [4, 49, 225, 676, 1600, 3249, 5929]
PRECISION = 60  # decimal digits of the exact references below


def decimal_pi() -> Decimal:
    """pi by Machin's formula, at the context precision."""

    def atan_inverse(x: int) -> Decimal:
        total = term = Decimal(1) / x
        n, sign = 1, 1
        while abs(term) > Decimal(10) ** -(PRECISION + 10):
            term /= x * x
            n += 2
            sign = -sign
            total += sign * term / n
        return total

    return 16 * atan_inverse(5) - 4 * atan_inverse(239)


@lru_cache(maxsize=None)
def decimal_root(m: int, j: int) -> tuple[Decimal, Decimal]:
    """cos and sin of 2*j*pi/m by their Taylor series, to PRECISION digits."""
    with localcontext() as ctx:
        ctx.prec = PRECISION + 10
        x = 2 * decimal_pi() * (j % m) / m
        parts = [Decimal(0)] * 4  # the terms (ix)**k / k! land on 1, i, -1, -i
        term, k = Decimal(1), 0
        while abs(term) > Decimal(10) ** -(PRECISION + 10):
            parts[k % 4] += term
            k += 1
            term = term * x / k
        return +(parts[0] - parts[2]), +(parts[1] - parts[3])


@lru_cache(maxsize=None)
def exact_terms(exponent: int, rho: float, cap: int) -> tuple[tuple[int, Decimal], ...]:
    """(v, sign * v**exponent * rho**v) over the stream values up to cap, with
    the exact binary rho, to PRECISION digits."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        r = Decimal(rho)
        return tuple((v, sign * Decimal(v) ** exponent * r**v) for v, sign in signed_values(cap))


def exact_class_sums(exponent: int, m: int, rho: float, cap: int) -> list[Decimal]:
    """The damped class sums up to cap, constant term included, to PRECISION digits."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        sums = [Decimal(int(exponent == 0))] + [Decimal(0)] * (m - 1)
        for v, term in exact_terms(exponent, rho, cap):
            sums[v % m] += term
        return sums


def exact_value(sums: list[Decimal], i: int) -> tuple[Decimal, Decimal]:
    """Real and imaginary part of sum over r of sums[r] * alpha**(i*r)."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        re = im = Decimal(0)
        for r, total in enumerate(sums):
            cos, sin = decimal_root(len(sums), r * i)
            re += total * cos
            im += total * sin
        return re, im


def distance(got: complex, reference: tuple[Decimal, Decimal]) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PRECISION
        re, im = reference
        return ((Decimal(got.real) - re) ** 2 + (Decimal(got.imag) - im) ** 2).sqrt()


def assert_within(got: complex, reference: tuple[Decimal, Decimal], tolerance: float) -> None:
    """|got - reference| within the bound abel_evaluate states for the sum up
    to the cap, 2/10 of the tolerance with MARGIN_BITS to spare (so well
    within the tolerance), plus one unit in the last place of |reference|: a
    float is spaced that far from its neighbours, so no float does better."""
    bound = Decimal(tolerance) / 5 / 2**MARGIN_BITS
    spacing = math.ulp(float(abs(complex(float(reference[0]), float(reference[1])))))
    assert distance(got, reference) <= bound + Decimal(spacing), (got, reference)


def check_against_exact_sums(exponent: int, m: int, rho: float, tolerance: float) -> None:
    """Every root and every residue class of one (exponent, m, rho), or, where
    the tail bound needs a cap past HARD_EXPONENT_CAP, the refusal."""
    try:
        cap = required_exponent_cap(exponent, rho, tolerance)
    except TruncationInfeasibleError:
        with pytest.raises(TruncationInfeasibleError):
            abel_evaluate(exponent, m, 0, rho, tolerance)
        with pytest.raises(TruncationInfeasibleError):
            residue_class_abel(exponent, m, 0, rho, tolerance)
        return
    sums = exact_class_sums(exponent, m, rho, cap)
    for i in range(m):
        assert_within(abel_evaluate(exponent, m, i, rho, tolerance), exact_value(sums, i), tolerance)
    for residue in range(m):
        got = residue_class_abel(exponent, m, residue, rho, tolerance)
        assert_within(got, (sums[residue], Decimal(0)), tolerance)


def test_difference_table_linear_case():
    rows = difference_table(MINUS_ROW)
    assert rows[1] == (4, 7, 10, 13, 16, 19)
    assert rows[2] == (3, 3, 3, 3, 3)
    assert rows[3] == (0, 0, 0, 0)
    assert len(rows) - 1 == 3


def test_difference_table_squares_case():
    rows = difference_table(PLUS_SQUARES)
    assert rows[1] == (45, 176, 451, 924, 1649, 2680)
    assert rows[2] == (131, 275, 473, 725, 1031)
    assert rows[3] == (144, 198, 252, 306)
    assert rows[4] == (54, 54, 54)
    assert rows[5] == (0, 0)


def test_difference_table_constant_sequence():
    assert difference_table([7, 7, 7]) == ((7, 7, 7), (0, 0))


def test_difference_table_all_zero_input():
    assert difference_table([0, 0, 0]) == ((0, 0, 0),)


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


def test_an_infinite_tolerance_is_refused_by_every_damped_entry():
    with pytest.raises(ValueError, match="tolerance must be finite, got inf"):
        required_exponent_cap(1, 0.99, math.inf)
    with pytest.raises(ValueError, match="tolerance must be finite, got inf"):
        abel_evaluate(1, 2, 1, 0.99, math.inf)
    with pytest.raises(ValueError, match="tolerance must be finite, got inf"):
        residue_class_abel(1, 2, 1, 0.99, math.inf)
    for point in ({"i": 1}, {"residue": 1}):
        with pytest.raises(ValueError, match="tolerance must be finite, got inf"):
            abel_decay(1, 2, 0.99, 0.9, math.inf, **point)


def test_required_cap_rejects_a_tolerance_whose_tenth_underflows():
    with pytest.raises(ValueError, match="underflows"):
        required_exponent_cap(1, 0.99, 5e-324)
    assert required_exponent_cap(1, 0.99, 1e-320) > required_exponent_cap(1, 0.99, 1e-9)


def test_required_cap_infeasible_names_needed_value():
    with pytest.raises(TruncationInfeasibleError) as exc:
        required_exponent_cap(1, 0.9999999, 1e-9)
    assert isinstance(exc.value, ValueError)  # a usage error at the CLI, like a bad tolerance
    assert exc.value.needed > 10**6
    assert str(exc.value.needed) in str(exc.value)


def clears_tail_bound(exponent, rho, tolerance, cap):
    """Whether cap**exponent * rho**cap / (1 - rho) lies below tolerance/10,
    with anything past exp(700) counted as not below it."""
    arg = exponent * math.log(cap) + cap * math.log(rho)
    return arg <= 700.0 and math.exp(arg) / (1.0 - rho) < tolerance / 10.0


@settings(max_examples=300, deadline=None)
@given(
    exponent=st.integers(0, 30),
    rho=st.floats(0.01, 0.9999999),
    tolerance=st.floats(1e-320, 0.1),
)
@example(exponent=1, rho=0.9999999, tolerance=1e-9)  # infeasible
@example(exponent=30, rho=0.9999999, tolerance=1e-320)
@example(exponent=0, rho=0.01, tolerance=0.1)
def test_required_cap_is_the_least_cap_past_the_peak_that_clears_the_bound(exponent, rho, tolerance):
    start = 1 if exponent == 0 else max(1, math.ceil(exponent / -math.log(rho)))
    try:
        cap = required_exponent_cap(exponent, rho, tolerance)
    except TruncationInfeasibleError as exc:
        cap = exc.needed
        assert cap > summation.HARD_EXPONENT_CAP
    else:
        assert cap <= summation.HARD_EXPONENT_CAP
    assert cap >= start
    assert clears_tail_bound(exponent, rho, tolerance, cap)
    assert cap == start or not clears_tail_bound(exponent, rho, tolerance, cap - 1)


def test_abel_parameter_validation():
    with pytest.raises(ValueError):
        abel_evaluate(0, 0, 0, 0.5)
    with pytest.raises(ValueError):
        abel_evaluate(0, 1, 0, 1.5)
    with pytest.raises(ValueError):
        residue_class_abel(0, 2, 2, 0.5)


def test_damped_entries_check_the_root_order_then_rho_then_the_tolerance():
    with pytest.raises(ValueError, match="^root order must be positive, got 0$"):
        abel_evaluate(1, 0, 0, 1.5)
    with pytest.raises(ValueError, match="^rho must lie strictly between 0 and 1, got 1.5$"):
        residue_class_abel(1, 2, 0, 1.5, math.nan)
    with pytest.raises(ValueError, match="^root order must be positive, got 0$"):
        abel_decay(1, 0, 1.5, 0.9, math.nan)
    with pytest.raises(ValueError, match="^tolerance must be positive, got nan$"):
        abel_decay(1, 2, 0.99, 1.5, math.nan)  # the near point is checked first
    with pytest.raises(ValueError, match="^rho must lie strictly between 0 and 1, got 1.5$"):
        abel_decay(1, 2, 0.99, 1.5)
    with pytest.raises(ValueError, match="^tolerance must be positive, got nan$"):
        required_exponent_cap(1, 1.5, math.nan)


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
            for i in range(m):
                near, far, decays = abel_decay(exponent, m, 0.999, 0.9, 1e-9, i=i)
                assert decays and near < far, (exponent, m, i, near, far)


def abel_at_cap(exponent, m, i, rho, tolerance, cap):
    """abel_evaluate truncated at a pinned cap, as abel_evaluate's former
    exponent_cap argument gave it.  The point cache is keyed without the cap,
    so it is emptied on entry and on exit: the pinned value neither reads an
    entry made at the searched cap nor leaves one for later calls."""
    summation._damped_classes.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(summation, "required_exponent_cap", lambda *args: cap)
            return abel_evaluate(exponent, m, i, rho, tolerance)
    finally:
        summation._damped_classes.cache_clear()


def test_an_evaluation_after_a_pinned_cap_equals_a_fresh_one():
    args = (2, 3, 1, 0.99, 1e-9)
    before = abel_evaluate(*args)
    pinned = abel_at_cap(*args, cap=100)
    after = abel_evaluate(*args)
    summation._damped_classes.cache_clear()
    assert before == after == abel_evaluate(*args) != pinned


@settings(max_examples=60, deadline=None)
@given(
    exponent=st.integers(min_value=0, max_value=4),
    m=st.sampled_from([1, 2, 3, 5, 7, 12]),
    index=st.integers(min_value=0, max_value=11),
    on_residue=st.booleans(),
    rho=st.sampled_from([0.9, 0.99, 0.995, 0.999]),
    baseline=st.sampled_from([0.5, 0.9, 0.95, 0.999]),
    tolerance=st.sampled_from([1e-6, 1e-9]),
)
@example(exponent=3, m=1, index=0, on_residue=False, rho=0.999, baseline=0.99, tolerance=1e-9)  # FAIL
@example(exponent=1, m=5, index=3, on_residue=True, rho=0.99, baseline=0.9, tolerance=1e-9)  # empty class
def test_abel_decay_keeps_the_cap_rule_of_each_point(exponent, m, index, on_residue, rho, baseline, tolerance):
    # a root pair shares the cap of its larger radius; a residue value keeps its own
    index %= m
    if on_residue:
        near, far = (abs(residue_class_abel(exponent, m, index, r, tolerance)) for r in (rho, baseline))
        got = abel_decay(exponent, m, rho, baseline, tolerance, residue=index)
    else:
        cap = required_exponent_cap(exponent, max(rho, baseline), tolerance)
        near, far = (abs(abel_at_cap(exponent, m, index, r, tolerance, cap)) for r in (rho, baseline))
        got = abel_decay(exponent, m, rho, baseline, tolerance, i=index)
    assert got == (near, far, near < far)


def test_abel_is_within_tolerance_of_the_exact_sum():
    for exponent, m, i, rho in ((0, 1, 0, 0.9), (3, 7, 3, 0.99), (40, 3, 1, 0.95)):
        cap = required_exponent_cap(exponent, rho, 1e-9)
        reference = exact_value(exact_class_sums(exponent, m, rho, cap), i)
        assert_within(abel_evaluate(exponent, m, i, rho), reference, 1e-9)


def test_residue_filter_is_within_tolerance_of_the_exact_class_sum():
    for exponent, m, residue, rho in ((0, 5, 2, 0.9), (3, 7, 3, 0.99), (2, 12, 5, 0.95)):
        cap = required_exponent_cap(exponent, rho, 1e-9)
        reference = exact_class_sums(exponent, m, rho, cap)[residue]
        assert_within(residue_class_abel(exponent, m, residue, rho), (reference, Decimal(0)), 1e-9)


@pytest.mark.parametrize(
    "exponent, m, i, rho, value",
    [(3, 1, 0, 0.999, 1.92e-14), (4, 2, 1, 0.999, -1.06e-13), (3, 2, 1, 0.9999, 8.17e-15)],
)
def test_abel_near_one_is_within_tolerance_not_rounding_noise(exponent, m, i, rho, value):
    # summing rounded float terms of size ~1e9 returned 8.39e-07, -3.23e-03 and
    # 6.12e-04 here: every term's rounding error, not the value
    cap = required_exponent_cap(exponent, rho, 1e-9)
    re, im = exact_value(exact_class_sums(exponent, m, rho, cap), i)
    assert float(re) == pytest.approx(value, rel=5e-3) and abs(im) < 1e-40
    got = abel_evaluate(exponent, m, i, rho)
    assert distance(got, (re, im)) <= Decimal("1e-9")


def near_zero_radii(test):
    """Examples at rho = 1e-5 and 1e-3: caps 3 to 5, where the roots take
    their largest share of the fixed-point bound."""
    for exponent, m, rho in itertools.product(range(5), (3, 7, 12), (1e-5, 1e-3)):
        test = example(exponent, m, rho)(test)
    return test


@settings(max_examples=25, deadline=None)
@near_zero_radii
@example(3, 12, 0.999)  # class sums near 5e7 cancel to about 1e-13 at every root
@example(4, 12, 0.999)  # class sums near 2e11
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([0.5, 0.9, 0.99, 0.999]),
)
def test_damped_values_are_within_tolerance_of_the_exact_sums(exponent, m, rho):
    check_against_exact_sums(exponent, m, rho, 1e-9)


@pytest.mark.slow
def test_damped_values_are_within_tolerance_on_the_full_grid():
    for exponent in range(7):
        for rho in (0.3, 0.9, 0.99, 0.999, 0.9999):
            for m in range(1, 13):
                check_against_exact_sums(exponent, m, rho, 1e-9)


def test_fixed_point_roots_are_within_two_units():
    bits = 120
    cases = [(m, j, bits) for m in range(1, 25) for j in range(-m, 2 * m)]
    cases += [  # large orders too, at j on and around each quarter turn
        (m, j, width)
        for m in (997, 300001, 10**8, 2**40 + 1)
        for j in (0, 1, 2, m // 4 - 1, m // 4, m // 4 + 1, m // 2, m // 2 + 1, 3 * m // 4, m - 1, -1, 7 * m + 3)
        for width in (0, 1, 53, 160)
    ]
    for m, j, width in cases:
        cos, sin = root_of_unity_fixed(m, j, width)
        exact_cos, exact_sin = decimal_root(m, j)
        with localcontext() as ctx:
            ctx.prec = PRECISION
            assert abs(cos - exact_cos * 2**width) < 2 and abs(sin - exact_sin * 2**width) < 2, (m, j, width)
    for m, j, root in ((1, 0, (1, 0)), (2, 1, (-1, 0)), (4, 1, (0, 1)), (8, 6, (0, -1)), (12, 9, (0, -1))):
        assert root_of_unity_fixed(m, j, bits) == (root[0] << bits, root[1] << bits)


def test_fixed_point_error_is_within_the_stated_bound():
    exponent, m, rho, tolerance = 3, 12, 0.9999, 1e-9
    cap = required_exponent_cap(exponent, rho, tolerance)
    bits = fixed_point_bits(exponent, rho, cap, tolerance)
    terms = len(signed_values(cap))
    assert terms <= 2 * math.isqrt(cap)
    with localcontext() as ctx:
        ctx.prec = PRECISION
        bound = Decimal(terms**3 * cap**exponent) / 2**bits  # the bound fixed_point_bits states
        assert bound <= Decimal(tolerance) / 10 / 2**MARGIN_BITS
        got_bits, sums = summation._damped_classes(exponent, m, rho, tolerance, rho)
        assert got_bits == bits
        for residue, exact in enumerate(exact_class_sums(exponent, m, rho, cap)):
            assert abs(Decimal(sums.get(residue, 0)) / 2**bits - exact) <= bound


@pytest.mark.parametrize(
    "exponent, m, i, rho, baseline", [(3, 5, 2, 0.99, 0.9), (0, 1, 0, 0.999, 0.99), (2, 12, 7, 0.9, 0.5)]
)
def test_roots_are_read_at_the_class_sums_own_precision(monkeypatch, exponent, m, i, rho, baseline):
    # one precision per damped point: each class sum meets its root at the
    # point's P, in abel_evaluate and at both radii of a decay pair
    asked = []
    root = summation.root_of_unity_fixed
    monkeypatch.setattr(summation, "root_of_unity_fixed", lambda m, j, bits: asked.append(bits) or root(m, j, bits))
    tolerance = 1e-9
    bits, sums = summation._damped_classes(exponent, m, rho, tolerance, rho)
    abel_evaluate(exponent, m, i, rho, tolerance)
    assert asked == [bits] * len(sums)
    asked.clear()
    abel_decay(exponent, m, rho, baseline, tolerance, i=i)
    pair = [summation._damped_classes(exponent, m, r, tolerance, max(rho, baseline)) for r in (rho, baseline)]
    assert asked == [pair_bits for pair_bits, classes in pair for _ in classes]


def test_shared_class_sums_equal_a_fresh_pass_and_are_read_only():
    args = (3, 4, 0.99, 1e-9, 0.99)
    fresh = summation._damped_classes.__wrapped__(*args)
    shared = summation._damped_classes(*args)
    assert shared == fresh and len(shared[1]) == 4 and shared is not fresh
    assert summation._damped_classes(*args) is shared
    for _, sums in (shared, fresh):
        with pytest.raises(TypeError):
            sums[0] = 0
        with pytest.raises(AttributeError):
            sums.clear()
    assert summation._damped_classes(*args) == summation._damped_classes.__wrapped__(*args)


def test_one_point_at_two_cap_radii_keeps_two_entries():
    # the key holds cap_radius, not the cap it leads to, so a root pair's
    # shared cap and the point's own cap are cached apart
    summation._damped_classes.cache_clear()
    try:
        entries = [summation._damped_classes(2, 3, 0.99, 1e-9, radius) for radius in (0.99, 0.999)]
        info = summation._damped_classes.cache_info()
        assert info.misses == info.currsize == 2
        for radius, entry in zip((0.99, 0.999), entries):
            assert entry == summation._damped_classes.__wrapped__(2, 3, 0.99, 1e-9, radius)
        assert entries[0] != entries[1]
    finally:
        summation._damped_classes.cache_clear()


def fused_class_pass(exponent, m, rho, cap, bits):
    """Oracle: the class sums from one walk that buckets each term as it
    goes, the form the damped sums had before the walk was shared."""
    numerator, denominator = rho.as_integer_ratio()
    shift = denominator.bit_length() - 1
    one = 1 << bits
    sums = {0: one} if exponent == 0 else {}
    to_minus = to_plus = numerator << (bits - shift)
    numerator_sq, shift_sq = numerator * numerator, 2 * shift
    damp, value, sign, k = one, 0, -1, 1
    while True:
        for gap, factor in ((2 * k - 1, to_minus), (k, to_plus)):
            value += gap
            damp = damp * factor >> bits
            if value > cap or not damp:
                return sums
            r = value % m
            sums[r] = sums.get(r, 0) + sign * value**exponent * damp
        to_minus = to_minus * numerator_sq >> shift_sq
        to_plus = to_plus * numerator >> shift
        sign = -sign
        k += 1


@settings(max_examples=60, deadline=None)
@given(
    exponent=st.integers(min_value=0, max_value=4),
    m=st.integers(min_value=1, max_value=13),
    rho=st.sampled_from([0.5, 0.9, 0.99, 0.999]),
    tolerance=st.sampled_from([1e-3, 1e-9, 1e-12]),
    pinned=st.booleans(),
)
def test_shared_walk_class_sums_equal_the_fused_pass(exponent, m, rho, tolerance, pinned):
    # a pinned cap is the rho = 0.999 one, as criterion 10 pins it for rho = 0.9
    radius = 0.999 if pinned else rho
    cap = required_exponent_cap(exponent, radius, tolerance)
    bits = fixed_point_bits(exponent, rho, cap, tolerance)
    got = summation._damped_classes(exponent, m, rho, tolerance, radius)
    assert got == (bits, fused_class_pass(exponent, m, rho, cap, bits))


def gap_walk_terms(exponent, rho, cap, bits):
    """Oracle: the damped stream as _stream_terms walked it when it stepped
    the values by their gaps and flipped the sign itself, not reading them
    from iter_signed_values."""
    numerator, denominator = rho.as_integer_ratio()
    shift = denominator.bit_length() - 1
    terms = []
    to_minus = to_plus = numerator << (bits - shift)  # rho**1, exact
    numerator_sq, shift_sq = numerator * numerator, 2 * shift
    damp, value, sign, k = 1 << bits, 0, -1, 1
    while True:
        for gap, factor in ((2 * k - 1, to_minus), (k, to_plus)):
            value += gap
            damp = damp * factor >> bits
            if value > cap or not damp:  # past the cap, or every later factor is 0
                return tuple(terms)
            terms.append((value, sign * value**exponent * damp))
        to_minus = to_minus * numerator_sq >> shift_sq
        to_plus = to_plus * numerator >> shift
        sign = -sign
        k += 1


def outcome(walk, *args):
    """A walk's terms, or the type of the error it raised: a rho whose
    binary exponent needs more than `bits` fraction bits makes both walks
    refuse with a negative shift count."""
    try:
        return walk(*args)
    except ValueError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(
    exponent=st.integers(min_value=0, max_value=6),
    rho=st.one_of(
        st.sampled_from([0.3, 0.5, 0.9, 0.99, 0.999]),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    ),
    cap=st.integers(min_value=1, max_value=10**4),
    bits=st.integers(min_value=40, max_value=400),
)
@example(exponent=4, rho=0.999, cap=5000, bits=300)
@example(exponent=0, rho=0.3, cap=1, bits=60)
def test_stream_walk_equals_the_gap_walk(exponent, rho, cap, bits):
    args = (exponent, rho, cap, bits)
    assert outcome(summation._stream_terms.__wrapped__, *args) == outcome(gap_walk_terms, *args)


@given(
    coeffs=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=7),
    extra=st.integers(min_value=0, max_value=6),
)
def test_difference_table_rows_are_repeated_differences(coeffs, extra):
    # coeffs[d] multiplies n**d; a sequence of a degree-D polynomial needs
    # D + 2 terms for its rows to vanish
    degree = max((d for d, c in enumerate(coeffs) if c), default=-1)
    seq = [sum(c * n**d for d, c in enumerate(coeffs)) for n in range(degree + 2 + extra)]
    rows = [seq]
    while any(rows[-1]):
        rows.append(differences(rows[-1]))
    table = difference_table(seq)
    assert table == tuple(map(tuple, rows))
    assert len(table) - 1 == degree + 1


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
        got = abel_evaluate(120, 2, 0, rho)
        assert cmath.isfinite(got)
        assert abs(Decimal(got.real) / exact - 1) < Decimal("1e-10")


def test_abel_beyond_float_range_raises_typed_error():
    with pytest.raises(FloatRangeError):
        abel_evaluate(120, 2, 0, 0.9)
    with pytest.raises(FloatRangeError):
        residue_class_abel(130, 4, 1, 0.9)
    assert issubclass(FloatRangeError, ValueError)


def test_a_pass_wider_than_the_bits_cap_is_refused_before_the_walk(monkeypatch):
    def exact_pass(*args):
        raise AssertionError("the exact pass ran")

    monkeypatch.setattr(summation, "_stream_terms", exact_pass)
    with pytest.raises(ValueError, match="needs 96504 fraction bits, beyond the cap 16384"):
        abel_evaluate(5000, 3, 0, 0.9)


def test_roots_past_the_roots_cap_are_refused_before_the_first(monkeypatch, capsys):
    # 1,380 classes at P = 15,690 bits: about 0.1 s a root, minutes in all
    def root(*args):
        raise AssertionError("a root was computed")

    monkeypatch.setattr(summation, "root_of_unity_fixed", root)
    message = "1380 roots at 15690 fraction bits pass the cap 17179869184 on roots * bits**2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        abel_evaluate(800, 10**6, 1, 0.985)
    assert main(["abel", "--lambda", "800", "--m", "1000000", "--i", "1", "--rho", "0.985"]) == 2
    assert capsys.readouterr() == ("", f"pentafold: {message}\n")
    assert residue_class_abel(800, 10**6, 1, 0.985) == -0.985  # a class value needs no root
    monkeypatch.undo()
    with pytest.raises(FloatRangeError):  # at i = 0 every root is 1, exact at no cost
        abel_evaluate(800, 10**6, 0, 0.985)


@pytest.mark.parametrize(
    "exponent, rho, tolerance, bits, value",
    [(2580, 1e-300, 5e-322, 9714, 2.2009551202413418e303), (2753, 5e-324, 5e-323, 10293, 5.411843404375727e307)],
)
def test_the_widest_passes_whose_terms_fit_a_float_are_still_answered(exponent, rho, tolerance, bits, value):
    # every term of these requests fits a float, and no wider such pass was
    # found on sweeps of lambda, rho and tolerance: the bits cap admits them
    cap = required_exponent_cap(exponent, rho, tolerance)
    assert fixed_point_bits(exponent, rho, cap, tolerance) == bits
    assert abs(abel_evaluate(exponent, 1, 0, rho, tolerance)) == value


def test_a_class_is_not_refused_for_terms_outside_it():
    # class 1 mod 10**6 holds only v = 1 (sign -1), though v = 1426 of the
    # stream has a term past float range at rho = 0.9
    assert residue_class_abel(150, 10**6, 1, 0.9) == -0.9
    assert residue_class_abel(150, 10**6, 1, 0.5) == -0.5
    assert residue_class_abel(150, 5, 3, 0.9) == 0  # no stream value is 3 mod 5


def test_a_finite_value_with_terms_past_float_range_is_summed_exactly():
    # the largest term, at v = 8932, is near 10**316; the value is near 10**282
    cap = required_exponent_cap(90, 0.99, 1e-9)
    with localcontext() as ctx:
        ctx.prec = 80
        exact = sum(sign * Decimal(v) ** 90 * Decimal(0.99) ** v for v, sign in signed_values(cap))
    got = abel_evaluate(90, 1, 0, 0.99)
    assert got.imag == 0
    assert abs(Decimal(got.real) / exact - 1) < Decimal("1e-15")


def test_a_modulus_beyond_float_range_is_refused_as_the_value_is():
    # both parts fit a float, 8.5e307 and -1.8e308; their modulus does not
    with pytest.raises(FloatRangeError, match="^damped sum at rho=0.92 lies beyond float range$"):
        abel_evaluate(114, 7, 1, 0.92)


def test_a_total_beyond_float_range_raises_typed_error():
    # every term fits in a float; the class sum, -3.8e308, does not
    with pytest.raises(FloatRangeError):
        residue_class_abel(92, 7, 0, 0.985)


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
