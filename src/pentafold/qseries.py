"""Truncated power series with exact integer coefficients: the product
(1-x)(1-x^2)(1-x^3)... against its sparse pentagonal expansion, plus the
symmetric functions and power sums of the reciprocal roots."""

from __future__ import annotations

from collections.abc import Sequence

from .pentagonal import signed_values


class DenseSeries:
    """coeffs[d] is the coefficient of x**d, for 0 <= d <= degree_cap.
    Immutable; equal series compare and hash equal."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return f"DenseSeries(coeffs={self.coeffs!r})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, not __setattr__
        return DenseSeries, (self.coeffs,)

    @property
    def degree_cap(self) -> int:
        return len(self.coeffs) - 1

    def nonzero(self) -> list[tuple[int, int]]:
        """(degree, coefficient) pairs for the nonzero coefficients."""
        return [(d, c) for d, c in enumerate(self.coeffs) if c]


def multiply_truncated(a: DenseSeries, b: DenseSeries, degree_cap: int) -> DenseSeries:
    """Convolve a and b, discarding every degree above degree_cap; each nonzero
    coefficient of b adds one shifted, scaled copy of a (O(cap) per factor
    1 - x^k)."""
    if degree_cap < 0:
        raise ValueError(f"degree cap must be non-negative, got {degree_cap}")
    out = [0] * (degree_cap + 1)
    head = a.coeffs[: degree_cap + 1]
    for j, cb in b.nonzero():
        if j > degree_cap:
            break
        span = head[: degree_cap + 1 - j]
        out[j : j + len(span)] = [o + ca * cb for o, ca in zip(out[j:], span)]
    return DenseSeries(tuple(out))


def euler_product(degree_cap: int) -> DenseSeries:
    """Expand the product of (1 - x^k) for k = 1..degree_cap, truncated there.

    Factors with k beyond the cap cannot touch the kept degrees, so the result
    agrees with the infinite product coefficient-for-coefficient.  Each factor
    is applied as one in-place shift-and-subtract pass.
    """
    if degree_cap < 0:
        raise ValueError(f"degree cap must be non-negative, got {degree_cap}")
    coeffs = [0] * (degree_cap + 1)
    coeffs[0] = 1
    for k in range(1, degree_cap + 1):
        for d in range(degree_cap, k - 1, -1):
            coeffs[d] -= coeffs[d - k]
    return DenseSeries(tuple(coeffs))


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
    """
    _require_monic(series, count)
    if len(known) > count:
        raise ValueError(f"{len(known)} known power sums exceed count {count}")
    a = series.coeffs
    support = [(j, c) for j, c in series.nonzero()[1:] if j <= count]
    p = [0, *known] + [0] * (count - len(known))
    live = sum(1 for j, _ in support if j <= len(known))  # support[:live] holds the degrees j < k
    for k in range(len(known) + 1, count + 1):
        if live < len(support) and support[live][0] < k:
            live += 1
        p[k] = -k * a[k] - sum([c * p[k - j] for j, c in support[:live]])
    return p[1:]
