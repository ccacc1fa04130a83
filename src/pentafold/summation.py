"""Summation of the divergent series attached to the pentagonal stream: exact
difference-table summation for alternating series with eventually-polynomial
terms, the two-branch power-sum split, and damped numeric evaluation on
residue classes and at roots of unity, from fixed-point class sums and roots."""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .pentagonal import Branch, differences, iter_signed_values, pentagonal

if TYPE_CHECKING:
    from fractions import Fraction

HARD_EXPONENT_CAP = 10**6
# Fraction bits P of one damped point's exact pass, which set the width, and
# so the memory and time, of every term of its walk.  It sits above the widest
# P found for a request whose every term fits a float: 10,293 bits, at
# lambda 2753, rho 5e-324 and tolerance 5e-323.
HARD_BITS_CAP = 2**14
# Roots times P**2 for one value at a root of unity.  A root at P <= HARD_BITS_CAP
# bits takes under 6e-10 * P**2 s (2-core host), so a value's roots take under 10 s.
HARD_ROOTS_CAP = 2**34
# Bits kept past the fixed-point bound of a damped value (class sums and roots
# together), so that a value far below the tolerance, as near rho -> 1, still
# comes out with its own digits.
MARGIN_BITS = 64


class NonPolynomialSequenceError(ValueError):
    """The forward differences never became all zero; no value is invented."""


class FloatRangeError(ValueError):
    """A damped value or its modulus lies beyond float range; no value is invented."""


class TruncationInfeasibleError(ValueError):
    """The damped tail cannot be pushed under the tolerance within the cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(
            f"tail bound needs exponents up to {needed}, beyond the configured cap {cap}"
        )
        self.needed = needed
        self.cap = cap


def difference_table(seq: Sequence) -> tuple[tuple, ...]:
    """The rows of seq's difference table: row 0 is seq, row d+1 holds the
    forward differences of row d, and the final row is the first all-zero one.

    Raises NonPolynomialSequenceError when the rows shrink away before
    vanishing (the caller supplied too few terms).
    """
    if not seq:
        raise ValueError("cannot difference an empty sequence")
    rows = [tuple(seq)]
    while any(rows[-1]):
        if len(rows[-1]) < 2:
            raise NonPolynomialSequenceError(
                "differences did not vanish before the rows ran out; supply more terms"
            )
        rows.append(tuple(differences(rows[-1])))
    return tuple(rows)


def euler_sum_alternating(seq: Sequence) -> Fraction:
    """Exact value assigned to seq[0] - seq[1] + seq[2] - ..., seq holding
    integers: the leading entry of difference row d contributes
    (-1)**d / 2**(d+1), and the sum is finite because the rows vanish."""
    from fractions import Fraction  # imported here so the damped sums run without it

    rows = difference_table(seq)  # every term over the common denominator 2**len(rows)
    total = sum((-row[0] if d % 2 else row[0]) << (len(rows) - 1 - d) for d, row in enumerate(rows))
    return Fraction(total, 1 << len(rows))


class PowerSumSplit(NamedTuple):
    """The two branch sums s and t for one exponent, plus the full-series total
    (the k=0 constant is folded back in at exponent 0)."""

    exponent: int
    s: Fraction
    t: Fraction
    total: Fraction


def pentagonal_power_sum(exponent: int) -> PowerSumSplit:
    """Sum value**exponent over the signed stream, split by branch.

    Each branch gives a strictly alternating series whose terms are polynomial
    in k (degree 2*exponent), so 2*exponent + 3 terms make the difference
    tables terminate.  For exponent >= 1 the pair is reported with s >= 0; the
    identity fixes only s + t = 0, so the orientation is presentation.  total
    is always computed from the raw branch sums plus the exponent-0 constant.
    """
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    length = 2 * exponent + 3
    minus = [pentagonal(k, Branch.MINUS) ** exponent for k in range(1, length + 1)]
    plus = [pentagonal(k, Branch.PLUS) ** exponent for k in range(1, length + 1)]
    s = -euler_sum_alternating(minus)
    t = -euler_sum_alternating(plus)
    total = s + t + (1 if exponent == 0 else 0)
    if exponent >= 1 and s < 0:
        s, t = -s, -t
    return PowerSumSplit(exponent, s, t, total)


def required_exponent_cap(exponent: int, rho: float, tolerance: float) -> int:
    """Smallest cap M with M**exponent * rho**M / (1 - rho) below tolerance/10.

    The search is restricted to M at or past the expression's peak, where it
    actually bounds the damped tail.  Raises TruncationInfeasibleError, naming
    the needed cap, when the answer exceeds HARD_EXPONENT_CAP.
    """
    return _exponent_cap(exponent, rho, tolerance)


@lru_cache(maxsize=16)  # a report asks 48 times for 4 distinct inputs
def _exponent_cap(exponent: int, rho: float, tolerance: float) -> int:
    if not tolerance > 0.0:  # written so that NaN fails too
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if tolerance == math.inf:  # the bits for it would be ceil(-inf)
        raise ValueError(f"tolerance must be finite, got {tolerance}")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie strictly between 0 and 1, got {rho}")
    bound = tolerance / 10.0
    if not bound > 0.0:  # the doubling search below would never reach it
        raise ValueError(f"tolerance {tolerance} is too small: its tenth underflows to 0")
    log_rho = math.log(rho)

    def clears(cap: int) -> bool:
        arg = exponent * math.log(cap) + cap * log_rho
        return arg <= 700.0 and math.exp(arg) / (1.0 - rho) < bound

    start = 1 if exponent == 0 else max(1, math.ceil(exponent / -log_rho))
    high = start
    while not clears(high):
        high *= 2
    needed = start + bisect_left(range(start, high + 1), True, key=clears)
    if needed > HARD_EXPONENT_CAP:
        raise TruncationInfeasibleError(needed, HARD_EXPONENT_CAP)
    return needed


def fixed_point_bits(exponent: int, rho: float, cap: int, tolerance: float) -> int:
    """Fraction bits P for the damping factors rho**v and the roots of unity,
    enough that the fixed-point error of a damped value over the stream values
    up to cap is under (tolerance/5) * 2**-MARGIN_BITS.

    The class sums: there are N <= s = 2*isqrt(cap) such values.  Each step to
    the next value truncates once and multiplies by a gap factor that has been
    advanced, truncating, fewer than N times, so it adds less than N units of
    2**-P to the error of rho**v, and every factor is off by less than N**2
    units.  The sum of sign * v**exponent * rho**v is then off by less than
    N**3 * cap**exponent * 2**-P, which P >= needed + 1 keeps within E/2,
    E = (tolerance/10) * 2**-MARGIN_BITS.  The roots: every D_v truncates
    downward, so sum |C_r| * 2**-P <= N * cap**exponent + 1 <= (s + 1) *
    cap**exponent, and a root at P bits is within 2*sqrt(2) * 2**-P of the
    true root, so the roots add at most sqrt(2) * (s + 1) / s**3 * E <= 0.53 E,
    s being at least 2.  Together that is under 2E.  P is also at least the e
    of rho = a / 2**e, which makes the first factor rho exact.
    """
    _, denominator = rho.as_integer_ratio()
    exact_rho = denominator.bit_length() - 1
    needed = exponent * math.log2(cap) + 3 * math.log2(2 * math.isqrt(cap))
    needed += math.log2(10) - math.log2(tolerance) + MARGIN_BITS
    return max(exact_rho, math.ceil(needed) + 1)


@lru_cache(maxsize=16)  # criterion 10 walks 8 distinct streams for 6 root orders each
def _stream_terms(exponent: int, rho: float, cap: int, bits: int) -> tuple[tuple[int, int], ...]:
    """The damped stream in one walk: a pair (v, sign * v**exponent * D_v)
    for each stream value v <= cap, D_v being rho**v times 2**bits,
    truncated, up to the first D_v that truncates to 0 (every later one
    does too).  It does not depend on m, so every root order shares it.

    The values and signs are read from iter_signed_values, index k's MINUS
    value and then its PLUS value.  The gaps to them are 2k - 1 and k, and
    the gap factors rho**(2k - 1) and rho**k advance by rho**2 and rho once
    per index, so each term costs two truncating multiplies and no float.
    """
    numerator, denominator = rho.as_integer_ratio()
    shift = denominator.bit_length() - 1
    terms = []
    to_minus = to_plus = numerator << (bits - shift)  # rho**1, exact
    numerator_sq, shift_sq = numerator * numerator, 2 * shift
    damp, stream = 1 << bits, iter_signed_values()
    while True:
        for factor in (to_minus, to_plus):
            value, sign = next(stream)
            damp = damp * factor >> bits
            if value > cap or not damp:  # past the cap, or every later factor is 0
                return tuple(terms)
            terms.append((value, sign * value**exponent * damp))
        to_minus = to_minus * numerator_sq >> shift_sq
        to_plus = to_plus * numerator >> shift


@lru_cache(maxsize=64)  # criterion 10 alone asks 208 times for 48 distinct points
def _damped_classes(
    exponent: int, m: int, rho: float, tolerance: float, cap_radius: float
) -> tuple[int, Mapping[int, int]]:
    """The fixed-point bits and the read-only exact class sums of one damped
    point: entry r sums the terms of _stream_terms whose value v is r (mod m),
    and the constant term adds 2**bits at r = 0 when exponent is 0.  A class
    no term reaches has no entry, so the cost follows the cap, not m.

    Checks m and rho, truncates at the cap of cap_radius (rho, or the larger
    radius of an abel_decay pair), whose search checks the tolerance, and
    refuses a P past HARD_BITS_CAP before any exact work.  Each distinct point
    runs once; every later call, such as another root index, shares it."""
    if m < 1:
        raise ValueError(f"root order must be positive, got {m}")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie strictly between 0 and 1, got {rho}")
    cap = required_exponent_cap(exponent, cap_radius, tolerance)
    bits = fixed_point_bits(exponent, rho, cap, tolerance)
    if bits > HARD_BITS_CAP:
        raise ValueError(f"the exact pass needs {bits} fraction bits, beyond the cap {HARD_BITS_CAP}")
    sums = {0: 1 << bits} if exponent == 0 else {}
    for value, term in _stream_terms(exponent, rho, cap, bits):
        r = value % m
        sums[r] = sums.get(r, 0) + term
    return bits, MappingProxyType(sums)


_GUARD_BITS = 20  # absorbs the truncation errors below, a few units per series term


@lru_cache(maxsize=32)  # a report asks 40 times for 4 distinct widths
def _pi_fixed(bits: int) -> int:
    """pi * 2**bits to within 2 units, by Machin's pi/4 = 4 atan(1/5) - atan(1/239)."""
    one = 1 << (bits + _GUARD_BITS)

    def atan_inverse(x: int) -> int:  # atan(1/x) * one, each term truncated
        total = term = one // x
        n, sign = 1, 1
        while term:
            term //= x * x
            n += 2
            sign = -sign
            total += sign * (term // n)
        return total

    return 4 * (4 * atan_inverse(5) - atan_inverse(239)) >> _GUARD_BITS


def root_of_unity_fixed(m: int, j: int, bits: int) -> tuple[int, int]:
    """cos(2j*pi/m) and sin(2j*pi/m) times 2**bits as integers, each within 2
    units of the exact value: the root at any precision, for sums whose
    coordinates are too large for float roots.

    The quarter turns in j/m are rotated out exactly, so the roots 1, -1, i and
    -i come out exact, and the rest is the Taylor series of exp(sqrt(-1)*phi)
    for phi in [0, pi/2), in fixed point with guard bits.
    """
    return _root_fixed(m, j, bits)


@lru_cache(maxsize=256)  # a report asks 648 times for 84 distinct roots
def _root_fixed(m: int, j: int, bits: int) -> tuple[int, int]:
    if m < 1:
        raise ValueError(f"root order must be positive, got {m}")
    quarter, rest = divmod(4 * (j % m), m)  # 2j*pi/m = quarter*pi/2 + (pi/2)*rest/m
    width = bits + _GUARD_BITS
    one = 1 << width
    phi = _pi_fixed(width) * rest // (2 * m) if rest else 0
    parts = [0, 0, 0, 0]  # the Taylor terms i**k phi**k / k! land on 1, i, -1, -i
    term, k = one, 0
    while term:
        parts[k % 4] += term
        k += 1
        term = (term * phi >> width) // k
    cos, sin = parts[0] - parts[2], parts[1] - parts[3]
    for _ in range(quarter):
        cos, sin = -sin, cos
    return cos >> _GUARD_BITS, sin >> _GUARD_BITS


def _to_complex(re: int, im: int, bits: int, rho: float) -> complex:
    """re + sqrt(-1)*im over 2**bits, each part rounded once to a float; a
    part or a modulus beyond float range raises FloatRangeError."""
    scale = 1 << bits
    try:
        value = complex(re / scale, im / scale)
        abs(value)
    except OverflowError:
        raise FloatRangeError(f"damped sum at rho={rho} lies beyond float range") from None
    return value


def abel_evaluate(exponent: int, m: int, i: int, rho: float, tolerance: float = 1e-9) -> complex:
    """Damped numeric value of the stream series of value**exponent at the
    point rho times the i-th m-th root of unity alpha**i: the sum over the
    classes r of C_r * 2**-P * alpha**(i*r), from _damped_classes.

    Truncation stops at the smallest cap clearing the tail bound at rho.  Each
    class sum is multiplied exactly by its root at the class sums' own P bits,
    so the result is within (tolerance/5) * 2**-MARGIN_BITS (fixed_point_bits)
    of the damped sum up to the cap, and within tolerance/10 more (the tail)
    of the whole damped series, besides rounding each part once to a float.
    Cost: one pass over the stream up to the cap and one root per class that a
    term reaches, so it does not grow with m.  A value beyond float range
    raises FloatRangeError after the exact pass; a pass wider than
    HARD_BITS_CAP fraction bits raises ValueError before it, and roots times
    P**2 past HARD_ROOTS_CAP before the first root.
    """
    return _root_value(exponent, m, i, rho, tolerance, rho)


def _root_value(exponent: int, m: int, i: int, rho: float, tolerance: float, cap_radius: float) -> complex:
    """abel_evaluate truncated at the cap of cap_radius."""
    bits, sums = _damped_classes(exponent, m, rho, tolerance, cap_radius)
    roots = sum(1 for r in sums if 4 * r * i % m)  # a quarter turn's root is exact at no cost
    if roots * bits**2 > HARD_ROOTS_CAP:
        raise ValueError(f"{roots} roots at {bits} fraction bits pass the cap {HARD_ROOTS_CAP} on roots * bits**2")
    re = im = 0
    for r, total in sums.items():
        cos, sin = root_of_unity_fixed(m, r * i % m, bits)
        re += total * cos
        im += total * sin
    return _to_complex(re, im, 2 * bits, rho)


def residue_class_abel(exponent: int, m: int, residue: int, rho: float, tolerance: float = 1e-9) -> complex:
    """Damped value of the stream terms whose exponent is congruent to residue
    mod m: the class sum C_residue of _damped_classes, read directly, within
    the bounds abel_evaluate states (no roots involved).  Expected to sink
    toward 0 as rho -> 1."""
    if not 0 <= residue < m:
        raise ValueError(f"residue must lie in 0..{m - 1}, got {residue}")
    bits, sums = _damped_classes(exponent, m, rho, tolerance, rho)
    return _to_complex(sums.get(residue, 0), 0, bits, rho)


def abel_decay(
    exponent: int, m: int, rho: float, baseline: float, tolerance: float = 1e-9,
    *, i: int = 0, residue: int | None = None,
) -> tuple[float, float, bool]:
    """(near, far, decays): |value| at rho, |value| at the baseline radius,
    and whether damping toward rho shrank it, near < far.  The point is the
    i-th m-th root of unity, or the class residue mod m when residue is given.

    At a root both values are truncated at the cap of the larger radius,
    which clears the tail bound at both, so the pair sums the same terms.  A
    residue class value keeps the cap of its own radius, as residue_class_abel
    gives it.  Errors are those of the two evaluations, near first.
    """
    radii = (rho, baseline)
    if residue is not None:
        near, far = (abs(residue_class_abel(exponent, m, residue, r, tolerance)) for r in radii)
    else:
        near, far = (abs(_root_value(exponent, m, i, r, tolerance, max(radii))) for r in radii)
    return near, far, near < far
