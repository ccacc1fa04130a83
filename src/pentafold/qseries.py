"""Truncated power series with exact integer coefficients: the product
(1-x)(1-x^2)(1-x^3)... against its sparse pentagonal expansion, plus the
symmetric functions and power sums of the reciprocal roots."""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from itertools import compress
from operator import sub
from typing import NamedTuple

from .pentagonal import signed_values

# Rows of power sums computed per block; support degrees j >= BLOCK read only
# rows of earlier blocks, so their share is summed a whole block at a time.
BLOCK = 64


class _DenseSeriesFields(NamedTuple):
    coeffs: tuple[int, ...]


class DenseSeries(_DenseSeriesFields):
    """coeffs[d] is the coefficient of x**d, for 0 <= d <= degree_cap."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]) -> DenseSeries:
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        return super().__new__(cls, coeffs)

    @property
    def degree_cap(self) -> int:
        return len(self.coeffs) - 1

    def nonzero(self) -> list[tuple[int, int]]:
        """(degree, coefficient) pairs for the nonzero coefficients."""
        coeffs = self.coeffs
        return [(d, coeffs[d]) for d in compress(range(len(coeffs)), coeffs)]


def fold_product(degree_cap: int) -> DenseSeries:
    """Expand the product of (1 - x^k) for k = 1..degree_cap one factor at a
    time, as Euler did: each factor is one C-level slice pass over the kept
    coefficients, O(cap**2) in all.  euler_product computes the same series
    by big-integer evaluation; this route checks it with other arithmetic."""
    if degree_cap < 0:
        raise ValueError(f"degree cap must be non-negative, got {degree_cap}")
    coeffs = [1] + [0] * degree_cap
    for k in range(1, degree_cap + 1):
        # slice assignment builds the right side into a list before it writes,
        # so the pass reads every coefficient as it stood before this factor
        coeffs[k:] = map(sub, coeffs[k:], coeffs)
    return DenseSeries(tuple(coeffs))


def _slot_bits(degree_cap: int) -> int:
    """Bits per coefficient slot in euler_product: a whole number of bytes w
    with 2**(w - 2) >= e**(pi * sqrt(degree_cap / 3)), which bounds every
    coefficient up to the cap (see euler_product)."""
    return 8 * math.ceil((math.pi * math.sqrt(degree_cap / 3) / math.log(2) + 2) / 8)


def euler_product(degree_cap: int) -> DenseSeries:
    """Expand the product of (1 - x^k) for k = 1..degree_cap, truncated there.

    Factors with k beyond the cap cannot touch the kept degrees, so the result
    agrees with the infinite product coefficient-for-coefficient.

    The product is computed by Kronecker substitution: x -> 2**w maps
    Z[x]/(x**(cap+1)) into the integers mod 2**(w*(cap+1)), and the map is a
    ring homomorphism, so the image of the product is the product of the
    images whatever the intermediate coefficients do; only the final ones
    must fit in a slot of w bits, and the bound below does not assume the
    pentagonal number theorem this product is checked against (which would
    put every c_d in -1..1).  They fit: c_d is the number of partitions
    of d into an even number of distinct parts minus the number into an odd
    number, so |c_d| <= q(d), the number of partitions into distinct parts,
    and q(d) * e**(-t*d) <= prod(1 + e**(-k*t)) <= e**(pi**2 / (12*t)) for
    every t > 0 (the sum of log(1 + e**(-k*t)) is at most its integral), which
    at t = pi / sqrt(12*d) gives q(d) <= e**(pi * sqrt(d/3)) <= 2**(w - 2)
    (_slot_bits: one bit for the sign, one spare for rounding the bound).

    Each factor k <= h = cap // 2 is one shift and subtract of the kept low
    slots.  The factors k > h go in at once: a product of two of them has
    degree at least 2h + 3 > cap, so together they are 1 - sum of x**k over
    h < k <= cap; the running image times that sum is its low L = cap - h
    slots times 1 + 2**w + ... + 2**(w*(L-1)), shifted up h + 1 slots, so
    one multiply applies them all.  Decoding adds 2**(w - 1) to every slot,
    which puts each slot's content c_d + 2**(w - 1) in [0, 2**w), so no slot
    carries into the next and each is read off its bytes.
    """
    if degree_cap < 0:
        raise ValueError(f"degree cap must be non-negative, got {degree_cap}")
    w = _slot_bits(degree_cap)
    slots = degree_cap + 1
    half = degree_cap // 2
    full = (1 << w * slots) - 1  # x is kept as its least residue mod full + 1
    ones = full // ((1 << w) - 1)  # 1 in every slot
    x = 1
    for k in range(1, half + 1):
        x = (x - ((x & (full >> w * k)) << w * k)) & full
    top = w * (half + 1)
    low = full >> top
    x = (x - (((x & low) * (ones >> top) & low) << top)) & full
    bias = 1 << w - 1
    data = ((x + bias * ones) & full).to_bytes(w * slots // 8, "little")
    step = w // 8
    return DenseSeries(tuple([
        int.from_bytes(data[i : i + step], "little") - bias for i in range(0, len(data), step)
    ]))


def pentagonal_series(degree_cap: int) -> DenseSeries:
    """Sparse construction 1 - x - x^2 + x^5 + x^7 - x^12 - ... up to the cap."""
    if degree_cap < 0:
        raise ValueError(f"degree cap must be non-negative, got {degree_cap}")
    coeffs = [0] * (degree_cap + 1)
    coeffs[0] = 1
    for value, sign in signed_values(degree_cap):
        coeffs[value] = sign
    return DenseSeries(tuple(coeffs))


def _require_monic(series: DenseSeries, count: int) -> None:
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if count > series.degree_cap:
        raise ValueError(
            f"need coefficients up to degree {count}, series stops at {series.degree_cap}"
        )
    if series.coeffs[0] != 1:
        raise ValueError(f"constant coefficient must be 1, got {series.coeffs[0]}")


def elementary_symmetric(series: DenseSeries, count: int) -> list[int]:
    """e_1..e_count of the reciprocal roots of the series read as a product of
    (1 - x/root) factors: e_k = (-1)**k times the coefficient of x**k."""
    _require_monic(series, count)
    return [-c if k % 2 else c for k, c in enumerate(series.coeffs[1 : count + 1], start=1)]


def power_sums(series: DenseSeries, count: int, known: Sequence[int] = ()) -> list[int]:
    """p_1..p_count of the reciprocal roots, exact integers throughout.

    Newton's identities in coefficient form, p_k = -k*a_k - sum over j < k of
    a_j * p_(k-j), read off series * sum(p_k x^k) = -x * series'.  Only the
    nonzero a_j are visited, so the cost is O(count * nonzeros): O(n sqrt n)
    on the pentagonal series, where the -k*a_k term is the recurrence's
    boundary rule (a subtrahend hitting k contributes k).

    known, if given, is taken as p_1..p_n0 and the identities resume at
    n0 + 1, so extending a list costs O((count - n0) * nonzeros).  It is
    trusted as given: a wrong prefix gives wrong sums after it.

    The rows are computed BLOCK at a time, with BLOCK zeros kept in front of
    p, so that p[BLOCK + n] is p_n and every n <= 0 reads 0 (p_0 = 0 stands in
    at j = k, and degrees j > k add nothing).  A degree j >= BLOCK reads only
    rows before the block, so for the block from row K to row L - 1 it is one
    slice p[BLOCK+K-j : BLOCK+L-j]; the slices are summed column by column at
    C level, one sum per coefficient value, and scaled once.  Only the degrees
    j < BLOCK are read row by row.
    """
    _require_monic(series, count)
    if len(known) > count:
        raise ValueError(f"{len(known)} known power sums exceed count {count}")
    a = series.coeffs
    support = [(j, c) for j, c in series.nonzero()[1:] if j <= count]
    degrees = [j for j, _ in support]
    low = bisect_left(degrees, BLOCK)  # support[:low] holds the degrees j < BLOCK
    near = support[:low]
    p = [0] * (BLOCK + 1) + [*known] + [0] * (count - len(known))
    for start in range(len(known) + 1, count + 1, BLOCK):
        stop = min(start + BLOCK, count + 1)
        slices: dict[int, list[list[int]]] = {}
        for j, c in support[low : bisect_left(degrees, stop)]:
            slices.setdefault(c, []).append(p[BLOCK + start - j : BLOCK + stop - j])
        columns = [0] * (stop - start)
        for c, group in slices.items():
            columns = [t + c * s for t, s in zip(columns, map(sum, zip(*group)))]
        for row, k, column in zip(range(BLOCK + start, BLOCK + stop), range(start, stop), columns):
            p[row] = -k * a[k] - column - sum([c * p[row - j] for j, c in near])
    return p[BLOCK + 1 :]
