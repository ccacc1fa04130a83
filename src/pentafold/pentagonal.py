"""Generalized pentagonal numbers and the signed term stream built on them.

The two quadratic branches (3k^2 - k)/2 and (3k^2 + k)/2 merge, in increasing
order, into 0, 1, 2, 5, 7, 12, 15, 22, 26, 35, 40, ...; attaching the sign
(-1)**k to the index-k pair gives the term stream every other module consumes.
"""

from __future__ import annotations

from enum import Enum
from itertools import islice, takewhile
from math import isqrt
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    from fractions import Fraction


class Branch(Enum):
    """Which of the two quadratic branches produced a value."""

    MINUS = "minus"  # (3k^2 - k) / 2
    PLUS = "plus"    # (3k^2 + k) / 2


class PentagonalTerm(NamedTuple):
    """One signed series term, sign * x**value, at index k on one branch."""

    k: int
    branch: Branch
    value: int
    sign: int


def pentagonal(k: int, branch: Branch) -> int:
    """Return (3k^2 -+ k)/2 for the given branch, exactly."""
    if k < 0:
        raise ValueError(f"index must be non-negative, got {k}")
    if branch is Branch.MINUS:
        return (3 * k * k - k) // 2
    return (3 * k * k + k) // 2


def iter_signed_values() -> Iterator[tuple[int, int]]:
    """Yield (value, sign) for the stream terms after the constant, in stream
    order, indefinitely: the plain-integer source every hot loop reads.

    Position p >= 1 carries index k = ceil(p/2), MINUS branch when p is odd,
    so signs run -, -, +, + with period four.
    """
    k = 1
    while True:
        sign = -1 if k % 2 else 1
        minus = (3 * k * k - k) // 2
        yield minus, sign
        yield minus + k, sign
        k += 1


def signed_values(limit: int) -> list[tuple[int, int]]:
    """(value, sign) for every stream term with 1 <= value <= limit, in stream
    order; values increase strictly, so the list stops at the first one past
    the limit."""
    return list(takewhile(lambda term: term[0] <= limit, iter_signed_values()))


def iter_terms(include_zero: bool = False) -> Iterator[PentagonalTerm]:
    """Yield stream terms in strictly increasing value order, indefinitely,
    each labelled with its index k and branch.  The k=0 term (both branches
    collapse to 0, sign +) is emitted exactly once, and only on request.
    """
    if include_zero:
        yield PentagonalTerm(0, Branch.MINUS, 0, 1)
    for p, (value, sign) in enumerate(iter_signed_values(), start=1):
        yield PentagonalTerm((p + 1) // 2, Branch.MINUS if p % 2 else Branch.PLUS, value, sign)


def term_stream(count: int, include_zero: bool = False) -> list[PentagonalTerm]:
    """First `count` stream terms; with include_zero the single k=0 term leads."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return list(islice(iter_terms(include_zero), count))


def differences(seq: Sequence) -> list:
    """Forward differences, successor minus predecessor."""
    if len(seq) < 2:
        raise ValueError("need at least two entries to take differences")
    return [b - a for a, b in zip(seq, seq[1:])]


def interpolated_sequence(count: int) -> list[Fraction]:
    """The merged sequence 1, 2, 5, 7, 12, ... with a fraction interpolated
    after every branch pair: 1, 2, 10/3, 5, 7, 28/3, 12, 15, 55/3, 22, ...

    The inserted value after pair k is triangular(3k+1)/3, which turns the
    whole sequence into consecutive triangular numbers scaled by 1/3.
    """
    from fractions import Fraction  # imported here so the rest of the module runs without it

    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    out: list[Fraction] = []
    for k in range(1, count // 3 + 2):
        minus, plus, side = pentagonal(k, Branch.MINUS), pentagonal(k, Branch.PLUS), 3 * k + 1
        out += Fraction(minus), Fraction(plus), Fraction(side * (side + 1), 6)
    return out[:count]


def is_pentagonal(value: int) -> tuple[int, Branch] | None:
    """Invert pentagonal(): (k, branch) for generalized pentagonal values,
    None otherwise.  0 reports (0, MINUS) by convention.

    Uses the discriminant 24*value + 1, a perfect square (6k -+ 1)**2 exactly
    on the pentagonal values.  A square root of it is prime to 6, since its
    square is 1 mod 24, so it is 5 or 1 mod 6: MINUS or PLUS.
    """
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    if value == 0:
        return (0, Branch.MINUS)
    disc = 24 * value + 1
    root = isqrt(disc)
    if root * root != disc:
        return None
    if root % 6 == 5:
        return ((root + 1) // 6, Branch.MINUS)
    return ((root - 1) // 6, Branch.PLUS)
