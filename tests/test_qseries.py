"""Product expansion, sparse series, and reciprocal-root bookkeeping."""

import math
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentafold import (
    elementary_symmetric,
    euler_product,
    fold_product,
    is_pentagonal,
    pentagonal_series,
    power_sums,
    qseries,
    sigma_brute,
)
from pentafold.qseries import BLOCK, _slot_bits


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


@st.composite
def monic_series(draw, sparse, max_cap=40, max_nonzero=4, largest=None):
    """A monic integer series and a count within its degree cap; the sparse
    kind keeps at most max_nonzero nonzero coefficients.  Coefficients lie in
    -largest..largest, by default 3 for the sparse kind and 9 for the dense."""
    cap = draw(st.integers(min_value=1, max_value=max_cap))
    coeffs = [1] + [0] * cap
    if sparse:
        largest = largest or 3
        terms = st.dictionaries(st.integers(1, cap), st.integers(-largest, largest), max_size=max_nonzero)
        for degree, value in draw(terms).items():
            coeffs[degree] = value
    else:
        largest = largest or 9
        coeffs[1:] = draw(st.lists(st.integers(-largest, largest), min_size=cap, max_size=cap))
    return tuple(coeffs), draw(st.integers(min_value=1, max_value=cap))


def test_fold_product_matches_naive_oracle():
    # every cap's product is a prefix of the one at 200, as in euler_product
    reference = naive_product(range(1, 201), 200)
    for cap in range(201):
        assert list(fold_product(cap)) == reference[: cap + 1]


def test_fold_product_rejects_negative_cap():
    with pytest.raises(ValueError, match="degree cap must be non-negative, got -1"):
        fold_product(-1)


def test_euler_product_examples():
    assert euler_product(0) == (1,)
    assert euler_product(7) == (1, -1, -1, 0, 0, 1, 0, 1)
    at26 = euler_product(26)
    assert at26[22] == 1
    assert at26[26] == 1


def test_euler_product_coefficients_stay_small():
    series = euler_product(300)
    assert series[0] == 1
    assert all(c in (-1, 0, 1) for c in series)


def test_euler_product_matches_naive_oracle():
    # factors past a cap cannot reach its degrees, so every cap's product is a
    # prefix of the one at 200; caps 0..200 cross slot widths 8 to 40 bits
    reference = naive_product(range(1, 201), 200)
    for cap in range(201):
        assert list(euler_product(cap)) == reference[: cap + 1]
    assert len({_slot_bits(cap) for cap in range(201)}) == 5


def test_euler_product_equals_the_fold_route():
    # the fold passes over coefficient slices, the kernel over big integers
    folded = fold_product(3000)
    for cap in (1000, 1503, 3000):
        assert euler_product(cap) == folded[: cap + 1]


def test_slot_width_bounds_every_coefficient():
    # |c_d| <= q(d), the number of partitions of d into distinct parts, counted
    # here by the 0/1 knapsack over the parts 1..3000
    limit = 3000
    q = [1] + [0] * limit
    for k in range(1, limit + 1):
        q[k:] = list(map(add, q[k:], q))
    assert q[:10] == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8]
    for d in range(limit + 1):
        bound = math.exp(math.pi * math.sqrt(d / 3))
        assert q[d] <= bound < 2.0 ** (_slot_bits(d) - 2)


def test_euler_product_rejects_negative_cap():
    with pytest.raises(ValueError, match="degree cap must be non-negative, got -1"):
        euler_product(-1)


def test_pentagonal_series_examples():
    assert pentagonal_series(2) == (1, -1, -1)
    at15 = pentagonal_series(15)
    assert at15[12] == -1
    assert at15[15] == -1
    assert pentagonal_series(4)[3] == 0
    assert pentagonal_series(4)[4] == 0


def test_product_equals_sparse_series_at_1000():
    assert euler_product(1000) == pentagonal_series(1000)


def test_nonzero_count_matches_membership_test():
    series = euler_product(1000)
    nonzero = sum(1 for c in series if c)
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
    assert power_sums(series, count) == newton_reference(series, count)


# Caps up to five blocks, so that many rows read degrees j >= BLOCK as slices.
@settings(deadline=None)
@given(
    st.one_of(
        monic_series(sparse=True, max_cap=5 * BLOCK, max_nonzero=24),
        monic_series(sparse=False, max_cap=5 * BLOCK),
    )
)
def test_blocked_power_sums_match_dense_newton(case):
    series, count = case
    assert power_sums(series, count) == newton_reference(series, count)


EDGES = (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1)


@pytest.mark.parametrize("count", EDGES)
def test_power_sums_at_block_edges(count):
    # a series with a coefficient at every degree, of every size, and the
    # pentagonal one, at counts ending on and beside the block edges
    dense = (1, *(((d * 7) % 11 - 5) for d in range(1, 2 * BLOCK + 2)))
    for series in (dense, pentagonal_series(2 * BLOCK + 1)):
        assert power_sums(series, count) == newton_reference(series, count)


def test_power_sums_sweep_every_count_and_every_prefix():
    # every count through three blocks and past them, on the pentagonal
    # series and on one with a coefficient at every degree: p_1..p_count do
    # not depend on the count, so each count returns a prefix of one reference
    cap = 3 * BLOCK + 8
    dense = (1, *(((d * 7) % 11 - 5) for d in range(1, cap + 1)))
    for series in (dense, pentagonal_series(cap)):
        reference = newton_reference(series, cap)
        for count in range(1, cap + 1):
            assert power_sums(series, count) == reference[:count]


@pytest.mark.parametrize("block", [32, 40, 48, 64, 96, 128])
def test_power_sums_at_every_block_width(monkeypatch, block):
    # Newton's inverse must be right mod 2**(w * BLOCK) when that is no power
    # of two: with too few steps, BLOCK = 40 and 48 gave p_33 = -8301 and
    # BLOCK = 96 gave p_65 = -1741546, and the slot certificate let them pass
    monkeypatch.setattr(qseries, "BLOCK", block)
    count = 2000
    assert power_sums(pentagonal_series(count), count) == [sigma_brute(k) for k in range(1, count + 1)]
    cap = 3 * block + 8
    dense = (1, *(((d * 7) % 11 - 5) for d in range(1, cap + 1)))
    assert power_sums(dense, cap) == newton_reference(dense, cap)


def first_uncertified_row(coeffs, reference, w=32):
    """The least k at which top + mass * max |p_1..p_k| reaches 2**(w - 1):
    power_sums keeps no block holding row k in w-bit slots, and solves it
    again in wider ones.  None if every row is certified at w."""
    mass = sum(map(abs, coeffs))
    top = max(j * abs(c) for j, c in enumerate(coeffs))
    largest = 0
    for k, p in enumerate(reference, start=1):
        largest = max(largest, abs(p))
        if top + mass * largest >= 2 ** (w - 1):
            return k
    return None


def test_power_sums_widen_inside_the_first_block():
    # 1 - 3x has p_k = 3**k, past 32-bit slots at k = 19 and past 64-bit ones
    # at k = 39; p_197 needs 512-bit slots, so every width up to it is tried,
    # each time from row 1
    count = 3 * BLOCK + 5
    series = (1, -3) + (0,) * count
    reference = newton_reference(series, count)
    assert reference == [3**k for k in range(1, count + 1)]
    assert first_uncertified_row(series, reference) == 19
    assert first_uncertified_row(series, reference, w=64) == 39
    assert power_sums(series, count) == reference


def test_power_sums_widen_after_late_blocks():
    # 1 + x^7 - 3x^20 first outgrows 32-bit slots at row 209, in the fourth
    # block: the three blocks before it are kept, and the rest are solved in
    # 64-bit slots, which hold every row to 400
    count = 400
    series = (1,) + (0,) * 6 + (1,) + (0,) * 12 + (-3,) + (0,) * (count - 20)
    reference = newton_reference(series, count)
    breaks = first_uncertified_row(series, reference)
    assert breaks == 209 and 3 * BLOCK < breaks <= 4 * BLOCK
    assert first_uncertified_row(series, reference, w=64) is None
    assert power_sums(series, count) == reference


# Coefficients up to 10**6 outgrow 32-bit slots within a few rows.
@settings(deadline=None)
@given(
    st.one_of(
        monic_series(sparse=True, max_cap=3 * BLOCK, max_nonzero=8, largest=10**6),
        monic_series(sparse=False, max_cap=BLOCK // 2, largest=10**6),
    )
)
def test_power_sums_with_large_coefficients_match_dense_newton(case):
    series, count = case
    assert power_sums(series, count) == newton_reference(series, count)


def test_symmetric_function_domain_errors():
    series = euler_product(5)
    with pytest.raises(ValueError):
        elementary_symmetric(series, 6)
    with pytest.raises(ValueError):
        power_sums(series, 9)
    for bad in [(2, 1, 1), ()]:  # not monic, and no constant coefficient at all
        for function in (elementary_symmetric, power_sums):
            with pytest.raises(ValueError):
                function(bad, 2)
