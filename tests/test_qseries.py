"""Product expansion, sparse series, and reciprocal-root bookkeeping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pentafold import (
    DenseSeries,
    elementary_symmetric,
    euler_product,
    is_pentagonal,
    multiply_truncated,
    pentagonal_series,
    power_sums,
    sigma_brute,
)


def naive_product(factors, cap):
    """Oracle: plain list convolution of the given 1 - x**k factors."""
    coeffs = [1]
    for k in factors:
        factor = [0] * (k + 1)
        factor[0], factor[k] = 1, -1
        out = [0] * (len(coeffs) + k)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        coeffs = out[: cap + 1]
    coeffs += [0] * (cap + 1 - len(coeffs))
    return coeffs


def newton_reference(coeffs, count):
    """Oracle: dense O(n^2) Newton's identities on e_k = (-1)**k * coeffs[k]."""
    e = [(-1) ** k * coeffs[k] for k in range(count + 1)]
    p = [0]
    for k in range(1, count + 1):
        acc = (-1) ** (k - 1) * k * e[k]
        for j in range(1, k):
            acc += (-1) ** (j - 1) * e[j] * p[k - j]
        p.append(acc)
    return p[1:]


def naive_convolution(a, b, cap):
    """Oracle: every coefficient pair, kept when its degree is within the cap."""
    out = [0] * (cap + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= cap:
                out[i + j] += x * y
    return out


@st.composite
def monic_series(draw, sparse):
    """A monic integer series and a count within its degree cap; the sparse
    kind keeps only a handful of nonzero coefficients."""
    cap = draw(st.integers(min_value=1, max_value=40))
    coeffs = [1] + [0] * cap
    if sparse:
        for degree, value in draw(st.dictionaries(st.integers(1, cap), st.integers(-3, 3), max_size=4)).items():
            coeffs[degree] = value
    else:
        coeffs[1:] = draw(st.lists(st.integers(-9, 9), min_size=cap, max_size=cap))
    return DenseSeries(tuple(coeffs)), draw(st.integers(min_value=1, max_value=cap))


small_series = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8).map(
    lambda cs: DenseSeries(tuple(cs))
)


def test_multiply_hand_expansions():
    a = DenseSeries((1, -1))
    b = DenseSeries((1, 0, -1))
    assert multiply_truncated(a, b, 3).coeffs == (1, -1, -1, 1)
    assert multiply_truncated(a, a, 1).coeffs == (1, -2)


def test_multiply_matches_naive_oracle_through_k7():
    result = DenseSeries((1,))
    for k in range(1, 8):
        factor_coeffs = [0] * (k + 1)
        factor_coeffs[0], factor_coeffs[k] = 1, -1
        result = multiply_truncated(result, DenseSeries(tuple(factor_coeffs)), 7)
    assert list(result.coeffs) == naive_product(range(1, 8), 7)
    assert result.coeffs == (1, -1, -1, 0, 0, 1, 0, 1)


def test_multiply_rejects_negative_cap():
    with pytest.raises(ValueError):
        multiply_truncated(DenseSeries((1,)), DenseSeries((1,)), -1)


@given(small_series, small_series, st.integers(min_value=0, max_value=12))
def test_multiply_is_commutative(a, b, cap):
    assert multiply_truncated(a, b, cap) == multiply_truncated(b, a, cap)


@given(small_series, small_series, small_series, st.integers(min_value=0, max_value=12))
def test_multiply_is_associative_under_shared_cap(a, b, c, cap):
    left = multiply_truncated(multiply_truncated(a, b, cap), c, cap)
    right = multiply_truncated(a, multiply_truncated(b, c, cap), cap)
    assert left == right


@given(small_series, small_series, st.integers(min_value=0, max_value=20))
def test_multiply_matches_naive_convolution(a, b, cap):
    assert list(multiply_truncated(a, b, cap).coeffs) == naive_convolution(a.coeffs, b.coeffs, cap)


def test_euler_product_examples():
    assert euler_product(0).coeffs == (1,)
    assert euler_product(7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)
    at26 = euler_product(26)
    assert at26.coeffs[22] == 1
    assert at26.coeffs[26] == 1


def test_euler_product_coefficients_stay_small():
    series = euler_product(300)
    assert series.coeffs[0] == 1
    assert all(c in (-1, 0, 1) for c in series.coeffs)


def test_euler_product_matches_naive_oracle():
    cap = 40
    assert list(euler_product(cap).coeffs) == naive_product(range(1, cap + 1), cap)


def test_pentagonal_series_examples():
    assert pentagonal_series(2).coeffs == (1, -1, -1)
    at15 = pentagonal_series(15)
    assert at15.coeffs[12] == -1
    assert at15.coeffs[15] == -1
    assert pentagonal_series(4).coeffs[3] == 0
    assert pentagonal_series(4).coeffs[4] == 0


def test_product_equals_sparse_series_at_1000():
    assert euler_product(1000) == pentagonal_series(1000)


def test_nonzero_count_matches_membership_test():
    series = euler_product(1000)
    nonzero = sum(1 for c in series.coeffs if c)
    members = sum(1 for v in range(1001) if is_pentagonal(v) is not None)
    assert nonzero == members
    # square-root growth: ~2*sqrt(2M/3) values up to M
    assert 50 <= nonzero <= 55


def test_elementary_symmetric_values():
    e = elementary_symmetric(euler_product(10), 7)
    assert e[:5] == [1, -1, 0, 0, -1]
    assert e[5] == 0   # coefficient of x**6 vanishes
    assert e[6] == -1  # the first later nonzero entry


def test_power_sums_first_values():
    p = power_sums(euler_product(10), 4)
    assert p == [1, 3, 4, 7]


def test_power_sums_equal_divisor_sums():
    p = power_sums(euler_product(50), 50)
    assert p == [sigma_brute(k) for k in range(1, 51)]


@given(st.one_of(monic_series(sparse=True), monic_series(sparse=False)))
def test_power_sums_match_dense_newton(case):
    series, count = case
    assert power_sums(series, count) == newton_reference(series.coeffs, count)


def test_power_sums_resume_from_a_known_prefix():
    series = pentagonal_series(400)
    cold = power_sums(series, 400)
    # prefixes ending just before, on and after nonzero degrees 1, 2, 5, 7, 12, 15
    for n0 in (0, 1, 2, 4, 5, 6, 7, 12, 15, 16, 399, 400):
        assert power_sums(series, 400, known=cold[:n0]) == cold
    with pytest.raises(ValueError):
        power_sums(series, 400, known=cold + [0])


@given(st.one_of(monic_series(sparse=True), monic_series(sparse=False)), st.data())
def test_power_sums_resume_matches_cold_on_random_series(case, data):
    series, count = case
    cold = power_sums(series, count)
    n0 = data.draw(st.integers(min_value=0, max_value=count))
    assert power_sums(series, count, known=cold[:n0]) == cold


def test_symmetric_function_domain_errors():
    series = euler_product(5)
    with pytest.raises(ValueError):
        elementary_symmetric(series, 6)
    with pytest.raises(ValueError):
        power_sums(series, 9)
    shifted = DenseSeries((2, 1, 1))
    with pytest.raises(ValueError):
        elementary_symmetric(shifted, 2)


def test_dense_series_shape():
    with pytest.raises(ValueError):
        DenseSeries(())
    series = DenseSeries((1, 0, -1))
    assert series.degree_cap == 2
    assert series.nonzero() == [(0, 1), (2, -1)]
