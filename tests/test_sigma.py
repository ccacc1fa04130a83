"""Divisor sums: brute oracle, recurrence, boundary rule, persistence."""

import errno
import os
from itertools import repeat
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pentafold import (
    first_wrong_sigma,
    is_pentagonal,
    load_table,
    recurrence_terms,
    save_table,
    sigma_brute,
    sigma_recurrence,
    sigma_table,
)

def divisor_sieve(limit):
    """Oracle: add every d to each of its multiples, O(n log n)."""
    sums = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for multiple in range(d, limit + 1, d):
            sums[multiple] += d
    return sums


PAPER_TABLE = [1, 3, 4, 7, 6, 12, 8, 15, 13, 18, 12]  # sigma(1..11)


def test_brute_first_eleven():
    assert [sigma_brute(n) for n in range(1, 12)] == PAPER_TABLE
    assert sigma_brute(6) == 12
    assert sigma_brute(1) == 1
    assert sigma_brute(11) == 12


def test_brute_rejects_zero():
    with pytest.raises(ValueError):
        sigma_brute(0)


def test_brute_on_primes_and_composites():
    def is_prime(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(2, 200):
        if is_prime(n):
            assert sigma_brute(n) == n + 1
        else:
            assert sigma_brute(n) > n + 1


def test_brute_is_multiplicative_on_coprime_pairs():
    for p in range(2, 101):
        for q in range(2, 101):
            if gcd(p, q) == 1:
                assert sigma_brute(p * q) == sigma_brute(p) * sigma_brute(q)


def test_recurrence_trace_for_twelve():
    table = sigma_table(11, "brute")
    terms = recurrence_terms(12, table)
    assert terms == [12, 18, -8, -6, 12]
    assert sum(terms) == 28


def test_recurrence_trace_for_thirteen():
    table = sigma_table(12, "recurrence")
    terms = recurrence_terms(13, table)
    assert terms == [28, 12, -15, -12, 1]
    assert sum(terms) == 14


def test_recurrence_boundary_at_two():
    table = sigma_table(1, "brute")
    assert recurrence_terms(2, table) == [1, 2]
    assert sigma_recurrence(2, table) == sigma_brute(2) == 3


def test_recurrence_at_one_needs_no_history():
    table = sigma_table(1, "recurrence")
    assert table[1] == 1


def test_table_methods_agree():
    brute = sigma_table(10**4, "brute")
    recurrence = sigma_table(10**4, "recurrence")
    assert brute == recurrence


def test_paired_sieve_matches_the_divisor_sieve_at_every_small_size():
    for max_n in range(1, 51):
        assert sigma_table(max_n, "brute") == divisor_sieve(max_n)


def test_brute_sieve_matches_trial_division():
    # every perfect square and partner pair up to here, odd n tried with odd
    # candidates only
    limit = 3 * 10**4
    assert sigma_table(limit, "brute")[1:] == [sigma_brute(n) for n in range(1, limit + 1)]


@pytest.fixture(scope="module")
def recurrence_30k():
    return sigma_table(3 * 10**4, "recurrence")


def test_recurrence_table_matches_divisor_sieve_at_scale(recurrence_30k):
    limit = 3 * 10**4
    assert recurrence_30k == divisor_sieve(limit)


def test_certificate_passes_the_recurrence_at_scale(recurrence_30k):
    assert first_wrong_sigma(recurrence_30k, len(recurrence_30k) - 1) is None


def test_certificate_passes_the_recurrence_at_a_hundred_thousand():
    assert first_wrong_sigma(sigma_table(10**5, "recurrence"), 10**5) is None


@pytest.mark.slow
def test_certificate_passes_the_recurrence_at_a_million():
    """Certifying sigma up to 10**6 also proves the pentagonal number theorem
    to degree 10**6: the product and the pentagonal series S both have
    constant term 1, and -x*S'/S = sum of sigma(n)*x**n then fixes every
    later coefficient."""
    table = sigma_table(10**6, "recurrence")
    assert first_wrong_sigma(table, 10**6) is None


def test_certificate_finds_a_planted_error_at_every_small_n():
    values = divisor_sieve(500)
    assert first_wrong_sigma(values, 500) is None
    for n in range(1, 501):
        planted = list(values)
        planted[n] += 1
        assert first_wrong_sigma(planted, 500) == n


def test_certificate_finds_a_planted_error_at_a_large_prime():
    values = sigma_table(10**4, "brute")
    values[9973] += 1
    assert first_wrong_sigma(values, 10**4) == 9973
    assert first_wrong_sigma(values, 9972) is None  # rows beyond upto are not read


def test_certificate_of_no_rows_passes():
    assert first_wrong_sigma([0], 0) is None


def test_certificate_names_the_first_missing_row():
    assert first_wrong_sigma([0, 1, 3], 5) == 3
    assert first_wrong_sigma([0, 1, 4], 5) == 2  # a wrong row before the missing ones
    assert first_wrong_sigma([0], 1) == 1
    assert first_wrong_sigma([], 3) == 1
    assert first_wrong_sigma([0, 1, 3], 2) is None


def smallest_prime_factors(limit):
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


def multiplicative_certificate(values, upto):
    """Reference: the certificate first_wrong_sigma once was, computing no
    divisor sum.  sigma(1) = 1, and with p the smallest prime of n = p*q,
    sigma(n) = (p+1)*sigma(q) - p*sigma(q/p) when p divides q, else
    (p+1)*sigma(q); each row is checked against the stored rows below it, so
    the first row flagged is the least wrong one."""
    if upto < 1:
        return None
    if values[1] != 1:
        return 1
    spf = smallest_prime_factors(upto)
    for n in range(2, upto + 1):
        p = spf[n]
        q = n // p
        expected = (p + 1) * values[q]
        if q % p == 0:
            expected -= p * values[q // p]
        if values[n] != expected:
            return n
    return None


@settings(max_examples=150, deadline=None)
@given(
    max_n=st.integers(1, 2000),
    changes=st.lists(
        st.tuples(st.booleans(), st.integers(0, 10**6), st.integers(0, 10**6), st.integers(-3, 3)),
        min_size=1,
        max_size=3,
    ),
    upto=st.integers(0, 10**6),
)
def test_certificate_finds_what_the_multiplicative_reference_finds(max_n, changes, upto):
    values = sigma_table(max_n, "brute")
    for swap, i, j, delta in changes:
        i, j = i % (max_n + 1), j % (max_n + 1)  # the sentinel at index 0 is drawn too
        if swap:
            values[i], values[j] = values[j], values[i]
        else:
            values[i] += delta
    upto %= max_n + 1
    assert first_wrong_sigma(values, upto) == multiplicative_certificate(values, upto)


def test_table_examples():
    assert sigma_table(11, "brute") == [0, *PAPER_TABLE]
    assert sigma_table(1, "brute") == [0, 1]
    assert sigma_table(1, "recurrence") == [0, 1]
    assert sigma_table(13, "recurrence")[13] == 14


def test_table_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sigma_table(0)
    with pytest.raises(ValueError):
        sigma_table(5, "guess")


def test_recurrence_requires_table_coverage():
    # the list must hold sigma(n - 1): a short one is a ValueError, never an IndexError
    for n, table in [(20, sigma_table(3)), (2, [0]), (5, [0, 1, 3])]:
        message = f"sigma({n}) needs sigma(1..{n - 1}), table holds sigma(1..{len(table) - 1})"
        for recur in (recurrence_terms, sigma_recurrence):
            with pytest.raises(ValueError) as exc:
                recur(n, table)
            assert str(exc.value) == message
    assert sigma_recurrence(1, [0]) == 1
    assert sigma_recurrence(4, [0, 1, 3, 4]) == 7


def test_disabling_boundary_rule_breaks_every_pentagonal_n():
    table = sigma_table(120, "brute")
    for n in range(1, 101):
        crippled = sigma_recurrence(n, table, boundary_rule=False)
        if is_pentagonal(n):
            assert crippled != sigma_brute(n), f"boundary rule was dead code at n={n}"
        else:
            assert crippled == sigma_brute(n)


def test_save_and_load_roundtrip(tmp_path):
    table = sigma_table(40)
    path = tmp_path / "sigma.csv"
    save_table(table, path)
    text = path.read_text(encoding="ascii")
    assert text.splitlines()[0] == "1,1"
    assert text.splitlines()[-1] == f"40,{sigma_brute(40)}"
    loaded = load_table(path)
    assert loaded == table


def test_save_table_writes_the_golden_records_byte_for_byte(tmp_path):
    path = tmp_path / "sigma.csv"
    save_table(sigma_table(300), path)
    assert path.read_bytes() == (Path(__file__).parent / "golden" / "sigma_300.csv").read_bytes()


class FullDisk:
    """A writable file that takes `room` more characters, then fails the way
    a full disk does, leaving what fitted on disk."""

    def __init__(self, handle, room):
        self.handle, self.room = handle, room

    def write(self, text):
        if len(text) > self.room:
            self.handle.write(text[: self.room])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(text)
        return self.handle.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()


def test_save_failing_part_way_leaves_old_cache_intact(tmp_path, monkeypatch):
    path = tmp_path / "sigma.csv"
    save_table(sigma_table(10), path)
    before = path.read_bytes()
    real_open = Path.open
    with monkeypatch.context() as patch:
        patch.setattr(Path, "open", lambda self, *args, **kwargs: FullDisk(real_open(self, *args, **kwargs), 50))
        with pytest.raises(OSError) as exc:
            save_table(sigma_table(40), path)
    assert str(exc.value) == f"[Errno {errno.ENOSPC}] No space left on device: '{path}'"  # the target, not the partial file
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sigma.csv"]


def test_save_interrupted_at_the_replace_reraises_and_leaves_old_cache_intact(tmp_path, monkeypatch):
    path = tmp_path / "sigma.csv"
    save_table(sigma_table(10), path)
    before = path.read_bytes()

    def interrupted(*args):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):  # not an OSError, so not renamed to the target
            save_table(sigma_table(40), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sigma.csv"]


def test_load_rejects_gaps(tmp_path):
    path = tmp_path / "sigma.csv"
    path.write_text("1,1\n3,4\n", encoding="ascii")
    with pytest.raises(ValueError):
        load_table(path)


def test_load_certifies_the_rows_it_is_asked_for(tmp_path):
    path = tmp_path / "sigma.csv"
    path.write_text("1,1\n2,3\n3,4\n4,8\n5,6\n", encoding="ascii")
    assert load_table(path, rows=3) == [0, 1, 3, 4, 8, 6]  # row 4 not certified
    for rows in (4, 5, 99, None):
        with pytest.raises(ValueError, match=r"n=4 holds 8, but sigma\(4\) = 7"):
            load_table(path, rows=rows)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "sigma.csv"
    path.write_text("1;1\n", encoding="ascii")
    with pytest.raises(ValueError):
        load_table(path)


def read_line_by_line(path):
    """Reference: the line reader load_table once fell back to, and so what it
    accepted.  Blank lines are skipped, int() takes signs, spaces and
    underscores, and the first malformed or out-of-order record raises."""
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
    return values


def assert_read_as_a_subset(path, line):
    """load_table accepts the file exactly when line is None, and then the
    reference accepts it with the same values; otherwise it refuses it with a
    message naming the path and that line.  Returns whether the reference
    accepted the file."""
    try:
        expected = read_line_by_line(path)
    except ValueError:
        expected = None
    if line is None:
        assert load_table(path) == expected
    else:
        with pytest.raises(ValueError) as raised:
            load_table(path)
        assert str(raised.value).startswith(f"{path}: line {line}: "), str(raised.value)
    return expected is not None


# Each text with the first line that load_table refuses (None where it reads
# the file) and whether the reference reads it: the lax layouts, which
# load_table now refuses.  Every text that is read holds sigma.
@pytest.mark.parametrize(
    "text, line, lax",
    [
        pytest.param("1,1\n3,4\n", 2, False, id="gap"),
        pytest.param("1,1\n\n2,3\n", 2, True, id="blank-line"),
        pytest.param("1;1\n", 1, False, id="semicolon"),
        pytest.param("1,1,1\n2,3\n", 1, False, id="three-fields"),
        pytest.param("1,1\n2,x\n", 2, False, id="non-numeric"),
        pytest.param("1,1\n2,3\n3,4", 3, True, id="no-final-newline"),
        # the fields of two bad lines line up as two records
        pytest.param("1\n1,2,3\n", 1, False, id="misaligned"),
        pytest.param("2,3\n1,1\n", 1, False, id="out-of-order"),
        pytest.param("1,1\r\n2,3\r\n", 1, True, id="crlf"),
        pytest.param("1,1\r2,3\n", 1, True, id="lone-cr"),
        pytest.param(" 1, 1\n+2,3\n3,4_0\n", 1, True, id="lax-ints"),
        pytest.param("01,1\n002,3\n", None, False, id="leading-zeros"),
        pytest.param("1,1\n2,3\n\n\n", 3, True, id="trailing-blank-lines"),
        pytest.param("", None, False, id="empty"),
        pytest.param("1,1\n2,3\n3,4\n", None, False, id="well-formed"),
        # a gap before a value too long for int()
        pytest.param("1,1\n3,4\n4," + "9" * 5000 + "\n", 2, False, id="gap-then-long-field"),
        pytest.param("1,1\n2,3\n3," + "9" * 5000 + "\n", 3, False, id="long-field"),
        pytest.param("1,1\n2,3\xc3\n", 2, False, id="non-ascii"),
    ],
)
def test_load_refuses_and_reads_as_the_line_reader_does(tmp_path, text, line, lax):
    path = tmp_path / "sigma.csv"
    path.write_bytes(text.encode("latin-1"))
    assert assert_read_as_a_subset(path, line) == (line is None or lax)


def perturbed(lines, kind, k, other):
    """The canonical records lines (each ended by a newline) with one fault at
    line k + 1, and that line number."""
    n, value = lines[k][:-1].split(",")
    if kind == "crlf":
        lines[k] = f"{n},{value}\r\n"
    elif kind == "blank":
        lines.insert(k, "\n")
    elif kind in ("+", "-", " "):
        lines[k] = f"{n},{kind}{value}\n" if other % 2 else f"{kind}{n},{value}\n"
    elif kind == "underscore":
        lines[k] = f"{n},{value[:1]}_{value[1:]}\n"
    elif kind == "no-final-newline":
        k = len(lines) - 1
        lines[k] = lines[k][:-1]
    elif kind == "swap":
        other = k + 1 + other % (len(lines) - k - 1)
        lines[k], lines[other] = lines[other], lines[k]
    else:  # a field of 5,000 digits
        lines[k] = f"{n},{'9' * 5000}\n"
    return "".join(lines), k + 1


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(1, 40),
    kind=st.sampled_from(["crlf", "blank", "+", "-", " ", "underscore", "no-final-newline", "swap", "long"]),
    where=st.integers(0, 10**6),
    other=st.integers(0, 10**6),
)
def test_one_fault_in_a_canonical_file_is_refused_at_its_line(tmp_path_factory, count, kind, where, other):
    assume(kind != "swap" or count >= 2)
    path = tmp_path_factory.mktemp("cache") / "sigma.csv"
    save_table(sigma_table(count), path)
    lines = path.read_text(encoding="ascii").splitlines(keepends=True)
    text, line = perturbed(lines, kind, where % (count - 1 if kind == "swap" else count), other)
    path.write_text(text, encoding="ascii", newline="")
    assert_read_as_a_subset(path, line)
