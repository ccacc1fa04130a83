"""Divisor sums two ways: by the divisors themselves (trial division for one
n, a sieve for a table), and by the recurrence over pentagonal subtrahends with
its boundary rule (a subtrahend hitting n contributes n).  Each table is built
whole, from row 1.  A table read from disk is certified against the divisor
sieve before use."""

from __future__ import annotations

import os
import re
from math import isqrt
from operator import add
from pathlib import Path

from .pentagonal import signed_values

# The records save_table writes, and nothing else: every line "n,sigma" in
# ASCII digits, each ended by a newline.
_WELL_FORMED = re.compile(rb"(?:[0-9]+,[0-9]+\n)*")


def sigma_brute(n: int) -> int:
    """Sum of all divisors of n by trial division up to sqrt(n): each divisor
    d <= sqrt(n) brings its partner n // d, and a square root, its own
    partner, is taken back once.  An odd n has no even divisor (and a whole
    square root of it is odd), so only odd candidates are tried for it."""
    if n < 1:
        raise ValueError(f"divisor sum needs n >= 1, got {n}")
    root = isqrt(n)
    total = sum([d + n // d for d in range(1, root + 1, 1 + n % 2) if not n % d])
    return total - root if root * root == n else total


def recurrence_terms(n: int, table: list[int], boundary_rule: bool = True) -> list[int]:
    """Signed contributions making up sigma(n) by recurrence, in stream order,
    read from the list table = [0, sigma(1), ..., sigma(m)], m >= n - 1.

    Subtrahends run through 1, 2, 5, 7, 12, 15, ... while n - subtrahend >= 0,
    carrying signs +, +, -, - (the series signs moved across the equation).
    A subtrahend hitting n exactly contributes the number n itself with the
    same sign; boundary_rule=False drops that contribution, which is only
    useful for demonstrating that the recurrence then fails.
    """
    if n < 1:
        raise ValueError(f"recurrence needs n >= 1, got {n}")
    if len(table) < n:
        raise ValueError(f"sigma({n}) needs sigma(1..{n - 1}), table holds sigma(1..{len(table) - 1})")
    out: list[int] = []
    for value, sign in signed_values(n):
        rest = n - value
        if rest == 0:
            if boundary_rule:
                out.append(-sign * n)
        else:
            out.append(-sign * table[rest])
    return out


def sigma_recurrence(n: int, table: list[int], boundary_rule: bool = True) -> int:
    """sigma(n) from previously known sigma(1..n-1)."""
    return sum(recurrence_terms(n, table, boundary_rule))


def sigma_table(max_n: int, method: str = "recurrence") -> list[int]:
    """The list [0, sigma(1), ..., sigma(max_n)] by "brute" or by "recurrence".

    "brute" is the additive divisor sieve, paired: each d <= sqrt(max_n)
    adds d + q to every multiple d*q with q >= d, one C-level slice pass per
    d, and takes d back once at d*d, where q = d is the same divisor.  That is
    about (n/2) ln n additions, summing the divisors themselves with no use of
    the pentagonal numbers.  The recurrence is Newton's identities on the
    pentagonal series: sigma(k) is the k-th power sum of its reciprocal roots,
    which power_sums reads off the sparse coefficients in O(n sqrt n), from
    row 1: 64 rows at a time in packed w-bit slots, every block certified to
    fit them, whatever the series.  recurrence_terms spells out the same sum
    for one n.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    if method not in ("brute", "recurrence"):
        raise ValueError(f"method must be 'brute' or 'recurrence', got {method!r}")
    if method == "brute":
        return _divisor_sieve(max_n)
    from .qseries import pentagonal_series, power_sums

    return [0, *power_sums(pentagonal_series(max_n), max_n)]


def _divisor_sieve(max_n: int) -> list[int]:
    """[0, sigma(1), ..., sigma(max_n)] by the paired sieve of sigma_table."""
    values = [*range(1, max_n + 2)]  # d = 1 adds 1 + n to every n; sigma(1) = 1
    values[:2] = 0, 1
    for d in range(2, isqrt(max_n) + 1):
        square = d * d
        values[square::d] = map(add, values[square::d], range(2 * d, d + max_n // d + 1))
        values[square] -= d
    return values


def first_wrong_sigma(values: list[int], upto: int) -> int | None:
    """The least n in 1..upto with values[n] missing or != sigma(n), or None.
    Rows 1..upto (not the sentinel values[0]) are compared with the divisor
    sieve in one C-level list comparison; only a table that differs is scanned."""
    if upto < 1:
        return None
    expected = _divisor_sieve(upto)
    if values[1 : upto + 1] == expected[1:]:
        return None
    return next(n for n in range(1, upto + 1) if n >= len(values) or values[n] != expected[n])


def save_table(table: list[int], path: str | Path) -> None:
    """Write one "n,sigma" record per line, ASCII decimal, no header, by one %.

    The records go to a temporary file beside the target, which then replaces
    it in one step, so a write that fails part-way leaves the old file intact;
    an OSError names the target, not the temporary file.
    """
    flat = [0] * (2 * len(table) - 2)
    flat[0::2] = range(1, len(table))
    flat[1::2] = table[1:]
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with partial.open("w", encoding="ascii") as handle:
            handle.write("%d,%d\n" * (len(table) - 1) % tuple(flat))
        os.replace(partial, path)
    except BaseException as exc:
        partial.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def load_table(path: str | Path, rows: int | None = None) -> list[int]:
    """Read the list save_table wrote and certify its first `rows` rows (all
    of them by default) with first_wrong_sigma.  Rows past `rows` are parsed
    but not certified, so serve none of them.  Any other layout, a gap in the
    numbering and a certified row that is not sigma are errors; the error for
    a wrong row names n, the stored value and sigma(n)."""
    table = _parse_records(path, Path(path).read_bytes())
    bad = first_wrong_sigma(table, len(table) - 1 if rows is None else min(rows, len(table) - 1))
    if bad is not None:
        raise ValueError(f"{path}: record n={bad} holds {table[bad]}, but sigma({bad}) = {sigma_brute(bad)}")
    return table


def _parse_records(path: str | Path, text: bytes) -> list[int]:
    """[0, sigma(1), sigma(2), ...] from the records save_table writes,
    numbered 1, 2, 3, ... in order, parsed at C level.  Anything else raises
    ValueError naming the first line that is not such a record."""
    if _WELL_FORMED.fullmatch(text):
        try:
            fields = list(map(int, text.replace(b"\n", b",").split(b",")[:-1]))
        except ValueError:  # a field longer than int() takes, located below
            pass
        else:
            if fields[0::2] == list(range(1, len(fields) // 2 + 1)):
                values = fields[1::2]
                values.insert(0, 0)
                return values
    end = _WELL_FORMED.match(text).end()
    lines = text[:end].splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            n, _ = map(int, line.split(b","))
        except ValueError as exc:  # a field longer than int() takes
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        if n != lineno:
            raise ValueError(f"{path}: line {lineno}: expected record for {lineno}, got {n}")
    bad = text[end:].partition(b"\n")[0][:60].decode("ascii", "backslashreplace")
    raise ValueError(f"{path}: line {len(lines) + 1}: expected 'n,sigma' in ASCII digits and a newline, got {bad!r}")
