"""Divisor sums two ways: trial division, and the recurrence over pentagonal
subtrahends with its boundary rule (a subtrahend hitting n contributes n)."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .pentagonal import signed_values
from .qseries import pentagonal_series, power_sums


@dataclass
class SigmaTable:
    """sigma(1..max_n), where sigma(n) sums all divisors of n, n included."""

    max_n: int
    values: list[int]  # values[n] = sigma(n); index 0 is an unused sentinel

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

    The recurrence is Newton's identities on the pentagonal series: sigma(k)
    is the k-th power sum of its reciprocal roots, which power_sums reads off
    the sparse coefficients in O(n sqrt n).  recurrence_terms spells out the
    same sum for one n.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    if method not in ("brute", "recurrence"):
        raise ValueError(f"method must be 'brute' or 'recurrence', got {method!r}")
    values = [0]
    if method == "brute":
        values += map(sigma_brute, range(1, max_n + 1))
    else:
        values += power_sums(pentagonal_series(max_n), max_n)
    return SigmaTable(max_n, values)


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


def load_table(path: str | Path) -> SigmaTable:
    """Read a table written by save_table; gaps or malformed lines are errors."""
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
    return SigmaTable(len(values) - 1, values)
