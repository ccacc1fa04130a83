"""Term stream, differences, interpolation, and recognition."""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pentafold import (
    Branch,
    differences,
    interpolated_sequence,
    is_pentagonal,
    iter_terms,
    pentagonal,
    term_stream,
)
from pentafold.pentagonal import signed_values


def branch_values_up_to(limit: int) -> list[int]:
    """Independent oracle: collect both quadratic branches directly and sort."""
    values = set()
    k = 0
    while (3 * k * k - k) // 2 <= limit:
        for v in ((3 * k * k - k) // 2, (3 * k * k + k) // 2):
            if v <= limit:
                values.add(v)
        k += 1
    return sorted(values)


def test_pentagonal_table_rows():
    assert [pentagonal(k, Branch.MINUS) for k in range(7)] == [0, 1, 5, 12, 22, 35, 51]
    assert [pentagonal(k, Branch.PLUS) for k in range(7)] == [0, 2, 7, 15, 26, 40, 57]
    assert pentagonal(4, Branch.MINUS) == 22
    assert pentagonal(0, Branch.PLUS) == 0
    assert pentagonal(6, Branch.PLUS) == 57


def test_pentagonal_rejects_negative_index():
    with pytest.raises(ValueError):
        pentagonal(-1, Branch.MINUS)


def test_term_stream_first_eight():
    terms = term_stream(8)
    assert [t.value for t in terms] == [1, 2, 5, 7, 12, 15, 22, 26]
    assert [t.sign for t in terms] == [-1, -1, 1, 1, -1, -1, 1, 1]


def test_term_stream_single_zero_term():
    terms = term_stream(1, include_zero=True)
    assert len(terms) == 1
    zero = terms[0]
    assert (zero.k, zero.value, zero.sign) == (0, 0, 1)


def test_term_stream_twelfth_value():
    assert term_stream(12)[-1].value == 57


def test_term_stream_requires_positive_count():
    with pytest.raises(ValueError):
        term_stream(0)


def test_position_mapping_and_sign_period():
    terms = term_stream(40)
    for position, term in enumerate(terms, start=1):
        assert term.k == (position + 1) // 2
        assert term.branch is (Branch.MINUS if position % 2 else Branch.PLUS)
        assert term.sign == (-1) ** term.k
    signs = [t.sign for t in terms]
    assert signs[:4] == [-1, -1, 1, 1]
    assert signs == (signs[:4] * 10)


def test_stream_is_strictly_increasing_and_complete():
    terms = term_stream(400, include_zero=True)
    values = [t.value for t in terms]
    assert all(a < b for a, b in zip(values, values[1:]))
    limit = values[-1]
    assert values == branch_values_up_to(limit)


def test_term_invariants_hold_on_stream():
    for term in term_stream(200, include_zero=True):
        assert term.value == pentagonal(term.k, term.branch)
        assert term.sign == (-1) ** term.k


def test_differences_merged_sequence():
    merged = [0] + [t.value for t in term_stream(8)]
    assert differences(merged) == [1, 1, 3, 2, 5, 3, 7, 4]


def test_differences_constant_sequence():
    assert differences([5, 5, 5]) == [0, 0]


def test_differences_through_57_tail():
    merged = [0] + [t.value for t in term_stream(12)]
    assert merged[-1] == 57
    assert differences(merged) == [1, 1, 3, 2, 5, 3, 7, 4, 9, 5, 11, 6]


def test_differences_requires_two_entries():
    with pytest.raises(ValueError):
        differences([1])


def test_interpolated_prefix():
    assert interpolated_sequence(6) == [
        Fraction(1),
        Fraction(2),
        Fraction(10, 3),
        Fraction(5),
        Fraction(7),
        Fraction(28, 3),
    ]


def test_interpolated_tenth_entry():
    assert interpolated_sequence(10)[9] == 22


def test_interpolated_differences_are_thirds():
    seq = interpolated_sequence(11)
    expected = [Fraction(n, 3) for n in range(3, 13)]
    assert differences(seq) == expected


def test_interpolated_is_triangular_thirds():
    seq = interpolated_sequence(1000)
    for j, entry in enumerate(seq, start=1):
        triangular = (j + 1) * (j + 2) // 2
        assert entry * 3 == triangular


def test_is_pentagonal_examples():
    assert is_pentagonal(26) == (4, Branch.PLUS)
    assert is_pentagonal(0) == (0, Branch.MINUS)
    assert is_pentagonal(13) is None
    with pytest.raises(ValueError):
        is_pentagonal(-1)


def test_is_pentagonal_matches_stream_up_to_1e5():
    limit = 10**5
    members = set(branch_values_up_to(limit))
    for v in range(limit + 1):
        hit = is_pentagonal(v)
        assert (hit is not None) == (v in members)
        if hit is not None and v > 0:
            k, branch = hit
            assert pentagonal(k, branch) == v


@given(st.integers(min_value=1, max_value=10**6))
def test_branch_gap_is_k(k):
    assert pentagonal(k, Branch.PLUS) - pentagonal(k, Branch.MINUS) == k


@given(st.integers(min_value=1, max_value=10**5), st.sampled_from(list(Branch)))
def test_is_pentagonal_roundtrip(k, branch):
    assert is_pentagonal(pentagonal(k, branch)) == (k, branch)


def test_iter_terms_is_lazy():
    first_three = list(islice(iter_terms(), 3))
    assert [t.value for t in first_three] == [1, 2, 5]


def test_signed_values_is_the_stream_up_to_a_limit():
    for limit in (0, 1, 2, 4, 5, 6, 7, 26, 27, 1000):
        expected = [(t.value, t.sign) for t in islice(iter_terms(), 60) if t.value <= limit]
        assert signed_values(limit) == expected
    assert [v for v, _ in signed_values(1000)] == branch_values_up_to(1000)[1:]
