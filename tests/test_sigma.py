"""Divisor sums: brute oracle, recurrence, boundary rule, persistence."""

import errno
from math import gcd
from pathlib import Path

import pytest

from pentafold import (
    extend_table,
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
    assert brute.values == recurrence.values


def test_brute_sieve_matches_trial_division():
    limit = 5000
    assert sigma_table(limit, "brute").values[1:] == [sigma_brute(n) for n in range(1, limit + 1)]


@pytest.fixture(scope="module")
def recurrence_30k():
    return sigma_table(3 * 10**4, "recurrence")


def test_recurrence_table_matches_divisor_sieve_at_scale(recurrence_30k):
    limit = 3 * 10**4
    assert recurrence_30k.values == divisor_sieve(limit)


def test_certificate_passes_the_recurrence_at_scale(recurrence_30k):
    assert first_wrong_sigma(recurrence_30k.values, recurrence_30k.max_n) is None


@pytest.mark.slow
def test_certificate_passes_the_recurrence_at_a_million():
    table = sigma_table(10**6, "recurrence")
    assert first_wrong_sigma(table.values, table.max_n) is None


def test_certificate_finds_a_planted_error_at_every_small_n():
    values = divisor_sieve(500)
    assert first_wrong_sigma(values, 500) is None
    for n in range(1, 501):
        planted = list(values)
        planted[n] += 1
        assert first_wrong_sigma(planted, 500) == n


def test_certificate_finds_a_planted_error_at_a_large_prime():
    values = sigma_table(10**4, "brute").values
    values[9973] += 1
    assert first_wrong_sigma(values, 10**4) == 9973
    assert first_wrong_sigma(values, 9972) is None  # rows beyond upto are not read


def test_certificate_of_no_rows_passes():
    assert first_wrong_sigma([0], 0) is None


def test_extend_resumes_the_recurrence():
    full = sigma_table(2000)
    for n0 in (1, 2, 5, 7, 100, 1999, 2000):
        assert extend_table(sigma_table(n0), 2000).values == full.values
    with pytest.raises(ValueError):
        extend_table(full, 1999)


def test_table_examples():
    assert sigma_table(11, "brute").values[1:] == PAPER_TABLE
    assert sigma_table(1, "brute").values[1:] == [1]
    assert sigma_table(1, "recurrence").values[1:] == [1]
    assert sigma_table(13, "recurrence")[13] == 14


def test_table_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sigma_table(0)
    with pytest.raises(ValueError):
        sigma_table(5, "guess")


def test_table_lookup_bounds():
    table = sigma_table(5)
    with pytest.raises(ValueError):
        table[0]
    with pytest.raises(ValueError):
        table[6]


def test_recurrence_requires_table_coverage():
    table = sigma_table(3)
    with pytest.raises(ValueError):
        sigma_recurrence(20, table)


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
    assert loaded.max_n == 40
    assert loaded.values == table.values


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

    def writelines(self, lines):
        for line in lines:
            self.write(line)

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
        with pytest.raises(OSError):
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
    assert load_table(path, rows=3).values == [0, 1, 3, 4, 8, 6]  # row 4 not certified
    for rows in (4, 5, 99, None):
        with pytest.raises(ValueError, match=r"n=4 holds 8, but sigma\(4\) = 7"):
            load_table(path, rows=rows)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "sigma.csv"
    path.write_text("1;1\n", encoding="ascii")
    with pytest.raises(ValueError):
        load_table(path)
