"""Divisor sums two ways: by the divisors themselves (trial division for one
n, a sieve for a table), and by the recurrence over pentagonal subtrahends with
its boundary rule (a subtrahend hitting n contributes n).  A table read from
disk is certified by multiplicativity before use."""

from __future__ import annotations

import os
from itertools import repeat
from math import isqrt
from pathlib import Path

from .pentagonal import signed_values
from .qseries import pentagonal_series, power_sums


class SigmaTable:
    """sigma(1..max_n), where sigma(n) sums all divisors of n, n included."""

    def __init__(self, max_n: int, values: list[int]) -> None:
        self.max_n = max_n
        self.values = values  # values[n] = sigma(n); index 0 is an unused sentinel

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.max_n:
            raise ValueError(f"table holds sigma(1..{self.max_n}), asked for sigma({n})")
        return self.values[n]


def sigma_brute(n: int) -> int:
    """Sum of all divisors of n by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError(f"divisor sum needs n >= 1, got {n}")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d
            partner = n // d
            if partner != d:
                total += partner
        d += 1
    return total


def recurrence_terms(n: int, table: SigmaTable, boundary_rule: bool = True) -> list[int]:
    """Signed contributions making up sigma(n) by recurrence, in stream order.

    Subtrahends run through 1, 2, 5, 7, 12, 15, ... while n - subtrahend >= 0,
    carrying signs +, +, -, - (the series signs moved across the equation).
    A subtrahend hitting n exactly contributes the number n itself with the
    same sign; boundary_rule=False drops that contribution, which is only
    useful for demonstrating that the recurrence then fails.
    """
    if n < 1:
        raise ValueError(f"recurrence needs n >= 1, got {n}")
    out: list[int] = []
    for value, sign in signed_values(n):
        rest = n - value
        if rest == 0:
            if boundary_rule:
                out.append(-sign * n)
        else:
            out.append(-sign * table[rest])
    return out


def sigma_recurrence(n: int, table: SigmaTable, boundary_rule: bool = True) -> int:
    """sigma(n) from previously known sigma(1..n-1)."""
    return sum(recurrence_terms(n, table, boundary_rule))


def sigma_table(max_n: int, method: str = "recurrence") -> SigmaTable:
    """Fill sigma(1..max_n) by "brute" or by "recurrence".

    "brute" is the additive divisor sieve: every d is added to each of its
    multiples, O(n log n), summing the divisors themselves with no use of the
    pentagonal numbers.  The recurrence is Newton's identities on the
    pentagonal series: sigma(k) is the k-th power sum of its reciprocal roots,
    which power_sums reads off the sparse coefficients in O(n sqrt n).
    recurrence_terms spells out the same sum for one n.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    if method not in ("brute", "recurrence"):
        raise ValueError(f"method must be 'brute' or 'recurrence', got {method!r}")
    if method == "brute":
        values = [0] * (max_n + 1)
        for d in range(1, max_n + 1):
            for multiple in range(d, max_n + 1, d):
                values[multiple] += d
    else:
        values = [0]
        values += power_sums(pentagonal_series(max_n), max_n)
    return SigmaTable(max_n, values)


def extend_table(table: SigmaTable, max_n: int) -> SigmaTable:
    """sigma(1..max_n), resuming the recurrence after the table's last row:
    O((max_n - n0) sqrt max_n) for a table of n0 rows.  The rows held are
    trusted, so certify a table from outside first (load_table does)."""
    values = [0]
    values += power_sums(pentagonal_series(max_n), max_n, known=table.values[1:])
    return SigmaTable(max_n, values)


def _smallest_prime_factors(limit: int) -> list[int]:
    """spf[n] = the smallest prime dividing n, for 2 <= n <= limit."""
    spf = list(range(limit + 1))
    root = isqrt(limit)
    composite = bytearray(root + 1)
    primes = []
    for p in range(2, root + 1):
        if not composite[p]:
            primes.append(p)
            composite[p * p :: p] = b"\x01" * len(range(p * p, root + 1, p))
    for p in reversed(primes):  # the smallest prime writes last
        spf[p * p :: p] = repeat(p, len(range(p * p, limit + 1, p)))
    return spf


def first_wrong_sigma(values: list[int], upto: int) -> int | None:
    """The least n in 1..upto with values[n] != sigma(n), or None.

    An O(upto) certificate that computes no divisor sum: sigma(1) = 1, and
    with p the smallest prime of n = p*q, multiplicativity gives
    sigma(n) = (p+1)*sigma(q) - p*sigma(q/p) when p divides q, else
    (p+1)*sigma(q).  Each row is checked against the stored rows below it, so
    by induction on n a table that passes holds sigma(1..upto).
    """
    if upto < 1:
        return None
    if values[1] != 1:
        return 1
    spf = _smallest_prime_factors(upto)
    for n in range(2, upto + 1):
        p = spf[n]
        q = n // p
        expected = (p + 1) * values[q]
        if q % p == 0:
            expected -= p * values[q // p]
        if values[n] != expected:
            return n
    return None


def save_table(table: SigmaTable, path: str | Path) -> None:
    """Write one "n,sigma" record per line, ASCII decimal, no header.

    The records go to a temporary file beside the target, which then replaces
    it in one step, so a write that fails part-way leaves the old file intact.
    """
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with partial.open("w", encoding="ascii") as handle:
            handle.writelines(f"{n},{table.values[n]}\n" for n in range(1, table.max_n + 1))
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def load_table(path: str | Path, rows: int | None = None) -> SigmaTable:
    """Read a table written by save_table and certify its first `rows` rows
    (all of them by default) with first_wrong_sigma.  Gaps, malformed lines
    and a certified row that is not sigma are errors; the error for a wrong
    row names n, the stored value and sigma(n)."""
    values = [0]
    for lineno, line in enumerate(Path(path).read_text(encoding="ascii").splitlines(), start=1):
        if not line.strip():
            continue
        n_text, sep, sigma_text = line.partition(",")
        if not sep:
            raise ValueError(f"{path}: line {lineno}: expected 'n,sigma', got {line!r}")
        n, value = int(n_text), int(sigma_text)
        if n != len(values):
            raise ValueError(f"{path}: line {lineno}: expected record for {len(values)}, got {n}")
        values.append(value)
    max_n = len(values) - 1
    bad = first_wrong_sigma(values, max_n if rows is None else min(rows, max_n))
    if bad is not None:
        raise ValueError(f"{path}: record n={bad} holds {values[bad]}, but sigma({bad}) = {sigma_brute(bad)}")
    return SigmaTable(max_n, values)
