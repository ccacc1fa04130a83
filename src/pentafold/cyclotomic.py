"""The cancellation checks on the signed pentagonal term stream, read from its
(sign, exponent mod m) profile: the 4m-term block, proven to repeat, and the
residue-class and partial-sum checks read from it."""

from __future__ import annotations

from itertools import accumulate, islice
from typing import Iterable, NamedTuple, Sequence

from .pentagonal import iter_signed_values


def _check_residues(m: int, block: Iterable[tuple[int, int]] = ()) -> None:
    """Refuse a modulus below 1, or a block position whose residue lies outside 0..m-1."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    bad = next((residue for _, residue in block if not 0 <= residue < m), None)
    if bad is not None:
        raise ValueError(f"residue must lie in 0..{m - 1}, got {bad}")


def _profile(m: int, length: int) -> list[tuple[int, int]]:
    """(sign, exponent mod m) over stream positions 0..length-1; position 0 is
    the constant term, +1 at residue 0."""
    return [(1, 0)] + [(sign, value % m) for value, sign in islice(iter_signed_values(), length - 1)]


def period_profile(m: int) -> list[tuple[int, int]]:
    """One 4m-position block of (sign, residue); the stream repeats it forever,
    since values are congruent mod m under k -> k + 2m and signs under k -> k + 2."""
    _check_residues(m)
    return _profile(m, 4 * m)


class PeriodCancellationReport(NamedTuple):
    """Outcome of checking consecutive 4m-term blocks of the stream, with
    block 0, the 4m (sign, residue) pairs every later block was checked against."""

    m: int
    periods: int
    block: tuple[tuple[int, int], ...]
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_period_cancellation(m: int, periods: int) -> PeriodCancellationReport:
    """Over `periods` consecutive 4m-term blocks, check that (a) the signed
    count at every residue is zero within each block, and (b) every block
    repeats block 0's (sign, residue) profile position-for-position, in one
    stream walk.  Violations are report content, not errors."""
    _check_residues(m)
    if periods < 1:
        raise ValueError(f"period count must be positive, got {periods}")
    block_length = 4 * m
    profile = _profile(m, block_length * periods)
    base = profile[:block_length]
    def residue_sums(block: list[tuple[int, int]]) -> list[int]:
        sums = [0] * m
        for sign, residue in block:
            sums[residue] += sign
        return sums
    base_sums = residue_sums(base)
    violations: list[str] = []
    for j in range(periods):
        block = profile[j * block_length : (j + 1) * block_length]
        repeats = block == base  # then its sums are block 0's
        for residue, total in enumerate(base_sums if repeats else residue_sums(block)):
            if total:
                violations.append(f"block {j}: residue {residue} sums to {total}")
        if not repeats:
            for offset, (got, want) in enumerate(zip(block, base)):
                if got != want:
                    violations.append(
                        f"position {j * block_length + offset}: profile {got} "
                        f"breaks the block-0 pattern {want}"
                    )
                    break
    return PeriodCancellationReport(m, periods, tuple(base), tuple(violations))


class BasisCancellationReport(NamedTuple):
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


def verify_basis_cancellation(
    m: int, block: Sequence[tuple[int, int]]
) -> list[BasisCancellationReport]:
    """One report per residue class, in residue order, from one grouping pass
    over block, period_profile(m) or a period report's block.  A class's sign
    period L is the smallest divisor of its length whose rotation leaves its
    signs unchanged (the classes have different sub-periods, so nothing is
    assumed); then one period must sum to zero and so must its L running
    partial sums (zero mean partial sum, the averaging reading of the
    cancellation).  The stream repeats its block, so each class repeats these
    signs forever."""
    _check_residues(m, block)
    classes: list[list[int]] = [[] for _ in range(m)]
    for sign, residue in block:
        classes[residue].append(sign)
    reports = []
    for residue, signs in enumerate(classes):
        length = len(signs)
        period = next(
            (c for c in range(1, length + 1) if length % c == 0 and signs[c:] + signs[:c] == signs), 0
        )
        basis = signs[:period]
        partial_sums = tuple(accumulate(basis))
        reports.append(
            BasisCancellationReport(
                m, residue, period, tuple(basis), partial_sums, sum(basis), sum(partial_sums)
            )
        )
    return reports


def partial_sum_aggregate(m: int, block: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """The sum of the leading partial sums of block (period_profile(m) or a
    period report's block) as m coordinates, one per residue: the term at t
    lies in the last len(block) - t of them, so coordinate r is the sum of
    sign * (len(block) - t) over the positions t of residue r, O(len(block)).

    This aggregate is reported alongside the period checks rather than
    asserted in general; only the smallest cases are pinned down elsewhere.
    """
    _check_residues(m, block)
    coords = [0] * m
    length = len(block)
    for t, (sign, residue) in enumerate(block):
        coords[residue] += sign * (length - t)
    return tuple(coords)
