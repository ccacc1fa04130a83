"""Summation of the divergent series attached to the pentagonal stream: exact
difference-table summation for alternating series with eventually-polynomial
terms, the two-branch power-sum split, and damped numeric evaluation at roots
of unity with a root-of-unity filter for residue classes."""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .cyclotomic import root_of_unity
from .pentagonal import Branch, pentagonal, signed_values

if TYPE_CHECKING:
    from fractions import Fraction

HARD_EXPONENT_CAP = 10**6


class NonPolynomialSequenceError(ValueError):
    """The forward differences never became all zero; no value is invented."""


class FloatRangeError(ValueError):
    """A damped term or total lies beyond float range; no value is invented."""


class TruncationInfeasibleError(RuntimeError):
    """The damped tail cannot be pushed under the tolerance within the cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(
            f"tail bound needs exponents up to {needed}, beyond the configured cap {cap}"
        )
        self.needed = needed
        self.cap = cap


class DifferenceTable(NamedTuple):
    """Row 0 is the input sequence; row d+1 holds the forward differences of
    row d; the final row is the first all-zero one."""

    rows: tuple[tuple, ...]

    @property
    def depth(self) -> int:
        return len(self.rows) - 1

    def leading_entries(self) -> list:
        return [row[0] for row in self.rows]


def difference_table(seq: Sequence, depth_limit: int | None = None) -> DifferenceTable:
    """Difference seq repeatedly until a row vanishes.

    Raises NonPolynomialSequenceError when depth_limit is hit first, or when
    the rows shrink away before vanishing (the caller supplied too few terms).
    """
    if not seq:
        raise ValueError("cannot difference an empty sequence")
    rows = [tuple(seq)]
    while any(rows[-1]):
        if depth_limit is not None and len(rows) - 1 >= depth_limit:
            raise NonPolynomialSequenceError(
                f"no all-zero difference row within depth {depth_limit}"
            )
        current = rows[-1]
        if len(current) < 2:
            raise NonPolynomialSequenceError(
                "differences did not vanish before the rows ran out; supply more terms"
            )
        rows.append(tuple(b - a for a, b in zip(current, current[1:])))
    return DifferenceTable(tuple(rows))


def euler_sum_alternating(seq: Sequence) -> Fraction:
    """Exact value assigned to seq[0] - seq[1] + seq[2] - ...: the leading
    entry of difference row d contributes (-1)**d / 2**(d+1), and the sum is
    finite because the rows vanish."""
    from fractions import Fraction  # imported here so the damped sums run without it

    table = difference_table(seq)
    total = Fraction(0)
    for d, lead in enumerate(table.leading_entries()):
        term = Fraction(lead) / 2 ** (d + 1)
        total += -term if d % 2 else term
    return total


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
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie strictly between 0 and 1, got {rho}")
    if not tolerance > 0.0:  # written so that NaN fails too
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    bound = tolerance / 10.0
    log_rho = math.log(rho)

    def tail(cap: int) -> float:
        arg = exponent * math.log(cap) + cap * log_rho
        if arg > 700.0:
            return math.inf
        return math.exp(arg) / (1.0 - rho)

    start = 1 if exponent == 0 else max(1, math.ceil(exponent / -log_rho))
    if tail(start) < bound:
        needed = start
    else:
        high = start
        while tail(high) >= bound:
            high *= 2
        low = max(start, high // 2)
        while low + 1 < high:
            mid = (low + high) // 2
            if tail(mid) < bound:
                high = mid
            else:
                low = mid
        needed = high
    if needed > HARD_EXPONENT_CAP:
        raise TruncationInfeasibleError(needed, HARD_EXPONENT_CAP)
    return needed


def abel_evaluate(
    exponent: int,
    m: int,
    i: int,
    rho: float,
    tolerance: float = 1e-9,
    exponent_cap: int | None = None,
) -> complex:
    """Damped numeric value of the stream series of value**exponent at the
    point rho times the i-th m-th root of unity.

    Terms are summed in ascending exponent order (bit-identical results for a
    fixed cap), each as sign * value**exponent * rho**value * root**value with
    the root power reduced mod m exactly before root_of_unity.  Truncation
    stops at the smallest cap clearing the tail bound, or at exponent_cap when
    the caller pins one (e.g. to compare different rho on equal footing).
    The k=0 constant contributes 1 when exponent is 0.  A magnitude whose
    value**exponent factor alone leaves float range is taken in the log
    domain instead; a term or total beyond float range raises FloatRangeError.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie strictly between 0 and 1, got {rho}")
    if exponent_cap is not None:
        cap = exponent_cap
    else:
        cap = required_exponent_cap(exponent, rho, tolerance)
    total = complex(1.0, 0.0) if exponent == 0 else complex(0.0, 0.0)
    for value, sign in signed_values(cap):
        try:
            magnitude = float(value**exponent) * rho**value
        except OverflowError:
            try:
                magnitude = math.exp(exponent * math.log(value) + value * math.log(rho))
            except OverflowError:
                raise FloatRangeError(
                    f"term {value}**{exponent} * {rho}**{value} lies beyond float range"
                ) from None
        total += sign * magnitude * root_of_unity(m, value * i)
    if not cmath.isfinite(total):
        raise FloatRangeError(f"damped sum at rho={rho} lies beyond float range")
    return total


def residue_class_abel(
    exponent: int,
    m: int,
    residue: int,
    rho: float,
    tolerance: float = 1e-9,
) -> complex:
    """Root-of-unity filter: average the damped evaluations at all m roots,
    weighted by alpha**(-i*residue), isolating the stream terms whose exponent
    is congruent to residue mod m.  Expected to sink toward 0 as rho -> 1."""
    if not 0 <= residue < m:
        raise ValueError(f"residue must lie in 0..{m - 1}, got {residue}")
    cap = required_exponent_cap(exponent, rho, tolerance)
    total = complex(0.0, 0.0)
    for i in range(m):
        weight = root_of_unity(m, i * residue).conjugate()
        total += weight * abel_evaluate(exponent, m, i, rho, exponent_cap=cap)
    return total / m
