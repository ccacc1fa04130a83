"""Truncated power series, each a tuple of exact integer coefficients from x**0
up: the product (1-x)(1-x^2)(1-x^3)... against its sparse pentagonal expansion,
plus the symmetric functions and power sums of the reciprocal roots."""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from itertools import compress
from operator import rshift, sub

from .pentagonal import signed_values

# Rows of power sums solved per block, each block packed into one integer.
BLOCK = 64


def fold_product(degree_cap: int) -> tuple[int, ...]:
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
    return tuple(coeffs)


def _slot_bits(degree_cap: int) -> int:
    """Bits per coefficient slot in euler_product: a whole number of bytes w
    with 2**(w - 2) >= e**(pi * sqrt(degree_cap / 3)), which bounds every
    coefficient up to the cap (see euler_product)."""
    return 8 * math.ceil((math.pi * math.sqrt(degree_cap / 3) / math.log(2) + 2) / 8)


def euler_product(degree_cap: int) -> tuple[int, ...]:
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
        x = (x - ((x << w * k) & full)) & full
    top = w * (half + 1)
    low = full >> top
    x = (x - (((x & low) * (ones >> top) & low) << top)) & full
    bias = 1 << w - 1
    data = ((x + bias * ones) & full).to_bytes(w * slots // 8, "little")
    step = w // 8
    return tuple([
        int.from_bytes(data[i : i + step], "little") - bias for i in range(0, len(data), step)
    ])


def pentagonal_series(degree_cap: int) -> tuple[int, ...]:
    """Sparse construction 1 - x - x^2 + x^5 + x^7 - x^12 - ... up to the cap."""
    if degree_cap < 0:
        raise ValueError(f"degree cap must be non-negative, got {degree_cap}")
    coeffs = [0] * (degree_cap + 1)
    coeffs[0] = 1
    for value, sign in signed_values(degree_cap):
        coeffs[value] = sign
    return tuple(coeffs)


def _require_monic(series: tuple[int, ...], count: int) -> None:
    if not series:
        raise ValueError("a series needs at least its constant coefficient")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if count >= len(series):
        raise ValueError(
            f"need coefficients up to degree {count}, series stops at {len(series) - 1}"
        )
    if series[0] != 1:
        raise ValueError(f"constant coefficient must be 1, got {series[0]}")


def elementary_symmetric(series: tuple[int, ...], count: int) -> list[int]:
    """e_1..e_count of the reciprocal roots of the series read as a product of
    (1 - x/root) factors: e_k = (-1)**k times the coefficient of x**k."""
    _require_monic(series, count)
    return [-c if k % 2 else c for k, c in enumerate(series[1 : count + 1], start=1)]


def power_sums(series: tuple[int, ...], count: int) -> list[int]:
    """p_1..p_count of the reciprocal roots, exact integers throughout.

    Newton's identities in coefficient form, p_k = -k*a_k - sum over j < k of
    a_j * p_(k-j), read off S * P = T with P = sum(p_k x^k) and T = -x * S'.
    Only the nonzero a_j are visited: O(count * nonzeros), O(n sqrt n) on the
    pentagonal series, where -k*a_k is the recurrence's boundary rule (a
    subtrahend hitting k contributes k).

    Rows are solved B = BLOCK at a time, each block one integer of w-bit
    slots p + 2**(w-1) (x -> 2**w maps Z[x]/(x**B) into the integers mod
    2**(w*B), a ring homomorphism), after B zero rows.  Degree j reads
    its share of block b as pairs[b - d] >> w*r, r = -j mod B, d = (j + r)/B,
    where pairs[q] is block q with q + 1 above it and block b reads 0.  Less
    their biases the shares are acc, and the block R solves S_B * R = T - acc
    mod x**B (S_B = S mod x**B) by one multiply with the inverse of S_B's
    image, which Newton's iteration finds.  R is kept only while
    top + mass * M < 2**(w-1), for mass = sum |a_j|, top = max j*|a_j| and M
    the largest |p| decoded: then S_B * R and T - acc fit the slots and
    agree mod 2**(w*B), so they are equal and the decoded R is the solution,
    whether or not the pentagonal number theorem holds.  Otherwise w doubles,
    from 32, the rows kept so far (whole blocks) are packed again, and R is
    solved again.
    """
    _require_monic(series, count)
    support = [(j, series[j]) for j in compress(range(count + 1), series)]  # nonzero a_j, j <= count
    mass, top = sum(map(abs, series[: count + 1])), max([j * abs(c) for j, c in support])
    by_value: dict[int, list[int]] = {}
    for j, c in support[1:]:
        by_value.setdefault(c, []).append(j)
    p, w = [], 16  # w doubles to 32 before the first block
    while len(p) < count:
        w *= 2
        size, bias, big = w * BLOCK, 1 << w - 1, max(map(abs, p), default=0)
        mask = (1 << size) - 1
        fill = mask // ((1 << w) - 1) * bias  # the bias in every slot: a block of zeros
        padded = [0] * BLOCK + p + [0] * BLOCK  # zero rows, p (whole blocks), and block b, which reads 0
        data = b"".join([(v + bias).to_bytes(w // 8, "little") for v in padded])
        pairs = [int.from_bytes(data[i : i + size // 4], "little") for i in range(0, len(data) - size // 8, size // 8)]
        image, inv = sum([c << w * j for j, c in support if j < BLOCK]), 1  # image is odd: inv = 1 is right mod 2
        for k in range(1, (size - 1).bit_length() + 1):  # Newton's step: inv right mod 2**(2**k), up to 2**size
            inv = inv * (2 - image * inv) & (1 << (1 << k)) - 1
        # (c, degrees j, -d_j, w * r_j): while block b is solved, len(pairs) == b, so pairs[-d] is pairs[b - d]
        reads = [(c, js, [-j // BLOCK for j in js], [w * (-j % BLOCK) for j in js]) for c, js in by_value.items()]
        unpack = struct.Struct(f"<{BLOCK}{'iq'[w > 32]}").unpack if w <= 64 else lambda twos: [
            int.from_bytes(twos[i : i + w // 8], "little", signed=True) for i in range(0, size // 8, w // 8)]
        for first in range(len(p) + 1, count + 1, BLOCK):
            acc = biases = 0
            for c, js, back, shifts in reads:
                active = bisect_left(js, first + BLOCK)
                biases += c * active
                acc += c * sum(map(rshift, map(pairs.__getitem__, back[:active]), shifts[:active]))
            here = support[bisect_left(support, (first,)) : bisect_left(support, (first + BLOCK,))]
            r = inv * (sum([-j * c << w * (j - first) for j, c in here]) - acc + biases * fill) + fill & mask
            rows = [*unpack((r ^ fill).to_bytes(size // 8, "little"))][: count - first + 1]  # r ^ fill: p, signed
            big = max(big, *map(abs, rows))
            if mass * big >= bias - top:
                break
            p += rows
            pairs[-1] = pairs[-1] & mask | r << size
            pairs.append(r | fill << size)
    return p
