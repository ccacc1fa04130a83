"""Exact bookkeeping over formal integer combinations of the m-th roots of
unity, the roots themselves in trigonometric form, and the cancellation checks
on the signed pentagonal term stream: 4m-term period sums, per-residue sign
substreams, and their running partial sums."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import cycle, islice
from typing import Iterator

from .pentagonal import iter_signed_values


@dataclass(frozen=True)
class CycVec:
    """Integer coordinates on the powers alpha^0 .. alpha^(m-1) of a primitive
    m-th root alpha; exponent arithmetic happens mod m before anything lands
    here, so the representation is exact."""

    m: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"order must be positive, got {self.m}")
        if len(self.coords) != self.m:
            raise ValueError(f"need exactly {self.m} coordinates, got {len(self.coords)}")

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def as_complex(self) -> complex:
        """Numeric image with alpha = exp(2*pi*sqrt(-1)/m)."""
        return sum((c * root for c, root in zip(self.coords, roots_of_unity(self.m)) if c), 0j)


def zero_vector(m: int) -> CycVec:
    return CycVec(m, (0,) * m)


def root_of_unity(m: int, j: int) -> complex:
    """alpha**j for alpha = exp(2*pi*sqrt(-1)/m) in trigonometric form, the
    exponent reduced mod m first: cos(2j*pi/m) + sqrt(-1)*sin(2j*pi/m).  The
    one formula every float evaluation at a root goes through."""
    if m < 1:
        raise ValueError(f"root order must be positive, got {m}")
    angle = 2.0 * math.pi / m * (j % m)
    return complex(math.cos(angle), math.sin(angle))


def roots_of_unity(m: int) -> list[complex]:
    """All m roots of x^m = 1, entry j being root_of_unity(m, j)."""
    if m < 1:
        raise ValueError(f"root order must be positive, got {m}")
    return [root_of_unity(m, j) for j in range(m)]


def iter_profile(m: int) -> Iterator[tuple[int, int]]:
    """(sign, exponent mod m) over stream positions 0, 1, 2, ...; position 0 is
    the constant term, +1 at residue 0."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    yield 1, 0
    for value, sign in iter_signed_values():
        yield sign, value % m


def period_profile(m: int) -> list[tuple[int, int]]:
    """One 4m-position block of (sign, residue); the stream repeats it forever,
    since values are congruent mod m under k -> k + 2m and signs under k -> k + 2."""
    return list(islice(iter_profile(m), 4 * m))


def substitute_stream(m: int, i: int, term_count: int) -> CycVec:
    """Image of the first term_count stream terms (constant included) after
    writing the i-th m-th root in place of x; negative i reaches the
    reciprocal roots.  Exact: exponents reduce mod m, coordinates accumulate."""
    if term_count < 1:
        raise ValueError(f"term count must be positive, got {term_count}")
    if m < 1:
        raise ValueError(f"order must be positive, got {m}")
    coords = [0] * m
    for sign, residue in islice(iter_profile(m), term_count):
        coords[(residue * i) % m] += sign
    return CycVec(m, tuple(coords))


@dataclass(frozen=True)
class PeriodCancellationReport:
    """Outcome of checking consecutive 4m-term blocks of the stream."""

    m: int
    periods: int
    block_length: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_period_cancellation(m: int, periods: int) -> PeriodCancellationReport:
    """Over `periods` consecutive 4m-term blocks, check that (a) the signed
    count at every residue is zero within each block, and (b) every block
    repeats block 0's (sign, residue) profile position-for-position.
    Violations are report content, not errors."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if periods < 1:
        raise ValueError(f"period count must be positive, got {periods}")
    block_length = 4 * m
    profile = list(islice(iter_profile(m), block_length * periods))
    base = profile[:block_length]
    violations: list[str] = []
    for j in range(periods):
        block = profile[j * block_length : (j + 1) * block_length]
        sums = [0] * m
        for sign, residue in block:
            sums[residue] += sign
        for residue, total in enumerate(sums):
            if total:
                violations.append(f"block {j}: residue {residue} sums to {total}")
        if block != base:
            for offset, (got, want) in enumerate(zip(block, base)):
                if got != want:
                    violations.append(
                        f"position {j * block_length + offset}: profile {got} "
                        f"breaks the block-0 pattern {want}"
                    )
                    break
    return PeriodCancellationReport(m, periods, block_length, tuple(violations))


def _block_signs(m: int, residue: int) -> list[int]:
    """Signs of the residue class within one 4m block, in stream order."""
    if not 0 <= residue < m:
        raise ValueError(f"residue must lie in 0..{m - 1}, got {residue}")
    return [sign for sign, r in period_profile(m) if r == residue]


def residue_substream(m: int, residue: int, count: int) -> list[int]:
    """Signs of the stream terms (constant included) whose exponent leaves the
    given residue mod m, in stream order; at most `count` of them.

    The stream repeats its 4m block, so the class repeats its signs from one
    block; a residue that never occurs there comes back as an empty list.
    """
    block = _block_signs(m, residue)
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return list(islice(cycle(block), count))


@dataclass(frozen=True)
class BasisCancellationReport:
    """One residue class: its sign period, the running partial sums over one
    period (the basis), and the two cancellation totals."""

    m: int
    residue: int
    period_length: int
    signs: tuple[int, ...]
    partial_sums: tuple[int, ...]
    signed_sum: int
    basis_sum: int

    @property
    def passed(self) -> bool:
        return self.signed_sum == 0 and self.basis_sum == 0


def verify_basis_cancellation(m: int, residue: int) -> BasisCancellationReport:
    """Find the smallest sign period L of the residue substream by search (the
    classes have different sub-periods, so nothing is assumed), then check that
    one period sums to zero and that its L running partial sums sum to zero
    (zero mean partial sum, the averaging reading of the cancellation)."""
    block = _block_signs(m, residue)
    if not block:
        return BasisCancellationReport(m, residue, 0, (), (), 0, 0)
    window = block * 3
    length = len(block)
    for candidate in range(1, len(block) + 1):
        if all(window[pos] == window[pos - candidate] for pos in range(candidate, len(window))):
            length = candidate
            break
    signs = tuple(window[:length])
    partial_sums: list[int] = []
    running = 0
    for sign in signs:
        running += sign
        partial_sums.append(running)
    return BasisCancellationReport(
        m, residue, length, signs, tuple(partial_sums), sum(signs), sum(partial_sums)
    )


def partial_sum_aggregate(m: int) -> CycVec:
    """Coordinate-wise sum of the 4m leading partial sums of one stream block.

    This aggregate is reported alongside the period checks rather than
    asserted in general; only the smallest cases are pinned down elsewhere.
    """
    coords = [0] * m
    running = [0] * m
    for sign, residue in period_profile(m):
        running[residue] += sign
        for r in range(m):
            coords[r] += running[r]
    return CycVec(m, tuple(coords))
