"""Roots of unity, stream substitution, and the cancellation checks."""

import math
from itertools import islice

import pytest

from pentafold import (
    CycVec,
    iter_terms,
    partial_sum_aggregate,
    period_profile,
    residue_substream,
    root_of_unity,
    roots_of_unity,
    substitute_profile,
    substitute_stream,
    verify_basis_cancellation,
    verify_period_cancellation,
    zero_vector,
)

# One full 4m-term block in stream order, (sign, residue) per position;
# these are the printed eight/twelve/sixteen/twenty-term periods.
BLOCK_M2 = [(1, 0), (-1, 1), (-1, 0), (1, 1), (1, 1), (-1, 0), (-1, 1), (1, 0)]
BLOCK_M3 = [
    (1, 0), (-1, 1), (-1, 2), (1, 2), (1, 1), (-1, 0),
    (-1, 0), (1, 1), (1, 2), (-1, 2), (-1, 1), (1, 0),
]
BLOCK_M4 = [
    (1, 0), (-1, 1), (-1, 2), (1, 1), (1, 3), (-1, 0), (-1, 3), (1, 2),
    (1, 2), (-1, 3), (-1, 0), (1, 3), (1, 1), (-1, 2), (-1, 1), (1, 0),
]
BLOCK_M5 = [
    (1, 0), (-1, 1), (-1, 2), (1, 0), (1, 2), (-1, 2), (-1, 0), (1, 2), (1, 1), (-1, 0),
    (-1, 0), (1, 1), (1, 2), (-1, 0), (-1, 2), (1, 2), (1, 0), (-1, 2), (-1, 1), (1, 0),
]


def numeric_stream_value(m: int, i: int, term_count: int) -> complex:
    """Oracle: evaluate the truncated series at the i-th root by complex powers."""
    angle = 2.0 * math.pi * i / m
    w = complex(math.cos(angle), math.sin(angle))
    total = complex(0.0)
    for term in islice(iter_terms(include_zero=True), term_count):
        total += term.sign * w**term.value
    return total


def test_roots_of_unity_small_orders():
    assert roots_of_unity(1)[0] == pytest.approx(1 + 0j)
    quartics = {(round(r.real, 9), round(r.imag, 9)) for r in roots_of_unity(4)}
    assert (0.0, 1.0) in quartics and (0.0, -1.0) in quartics
    with pytest.raises(ValueError):
        roots_of_unity(0)


def test_single_root_reduces_the_exponent_mod_m():
    for m in range(1, 13):
        table = roots_of_unity(m)
        for j in range(-2 * m, 3 * m):
            assert root_of_unity(m, j) == table[j % m]
    with pytest.raises(ValueError):
        root_of_unity(0, 1)


def test_fifth_root_matches_radical_expression():
    root = roots_of_unity(5)[1]
    assert abs(root.real - (-1 + math.sqrt(5)) / 4) < 1e-12
    assert abs(root.imag - math.sqrt(10 + 2 * math.sqrt(5)) / 4) < 1e-12


def test_root_invariants():
    for m in range(1, 13):
        for root in roots_of_unity(m):
            assert abs(root.real**2 + root.imag**2 - 1.0) < 1e-12
            assert abs(root**m - 1.0) < 1e-9


def test_conjugate_of_each_root_is_a_root():
    for m in range(1, 13):
        snapshot = {(round(r.real, 9), round(r.imag, 9)) for r in roots_of_unity(m)}
        conjugates = {(re, -im) for re, im in snapshot}
        assert conjugates == snapshot


def test_substitute_stream_examples():
    assert substitute_stream(1, 1, 4).coords == (0,)
    assert substitute_stream(2, 1, 8).is_zero
    assert substitute_stream(3, 1, 12).is_zero


def test_substitute_stream_partial_period_m2():
    # first three terms: 1 - alpha - 1 -> coordinates (0, -1)
    assert substitute_stream(2, 1, 3).coords == (0, -1)


def test_exponent_reduction_mod_order():
    for m in range(1, 13):
        for i in range(0, 2 * m + 1):
            for count in (1, 7, 50, 200):
                assert substitute_stream(m, i, count) == substitute_stream(m, i + m, count)


def test_negative_index_reaches_reciprocal_roots():
    for m in range(1, 9):
        assert substitute_stream(m, -1, 60) == substitute_stream(m, m - 1, 60)


def test_full_periods_cancel_exactly():
    for m in range(1, 25):
        for multiple in (1, 2, 3):
            assert substitute_stream(m, 1, 4 * m * multiple) == zero_vector(m)


def test_numeric_and_exact_agree():
    for m in range(1, 9):
        for i in range(m):
            for count in (1, 25, 100):
                exact = substitute_stream(m, i, count).as_complex()
                numeric = numeric_stream_value(m, i, count)
                assert abs(exact - numeric) < 1e-9


def test_period_profile_printed_blocks():
    assert period_profile(1) == [(1, 0), (-1, 0), (-1, 0), (1, 0)]
    assert period_profile(2) == BLOCK_M2
    assert period_profile(3) == BLOCK_M3
    assert period_profile(4) == BLOCK_M4
    assert period_profile(5) == BLOCK_M5


def test_period_profile_m5_skips_two_residues():
    residues = {r for _, r in period_profile(5)}
    assert residues == {0, 1, 2}


def test_verify_period_cancellation_examples():
    assert verify_period_cancellation(2, 3).passed
    assert verify_period_cancellation(5, 2).passed
    for m in range(1, 25):
        report = verify_period_cancellation(m, 5)
        assert report.passed, report.violations


def test_period_report_flags_bad_input():
    with pytest.raises(ValueError):
        verify_period_cancellation(0, 1)
    with pytest.raises(ValueError):
        verify_period_cancellation(3, 0)


def test_residue_substream_examples():
    assert residue_substream(5, 0, 8) == [1, 1, -1, -1, -1, -1, 1, 1]
    assert residue_substream(2, 1, 4) == [-1, 1, 1, -1]
    assert residue_substream(1, 0, 4) == [1, -1, -1, 1]


def test_residue_substream_empty_class():
    assert residue_substream(5, 3, 10) == []
    assert residue_substream(5, 4, 10) == []


def test_residue_substream_matches_a_stream_scan():
    for m in range(1, 31):
        stream = list(islice(iter_terms(include_zero=True), 12 * m))  # three 4m blocks
        for r in range(m):
            expected = [t.sign for t in stream if t.value % m == r]
            count = len(expected) or 1
            assert residue_substream(m, r, count) == expected[:count], (m, r)


def test_residue_substream_rejects_bad_residue():
    with pytest.raises(ValueError):
        residue_substream(5, 5, 4)


def test_basis_cancellation_m5_r0():
    report = verify_basis_cancellation(5, 0)
    assert report.period_length == 8
    assert report.partial_sums == (1, 2, 1, 0, -1, -2, -1, 0)
    assert report.signed_sum == 0
    assert report.basis_sum == 0
    assert report.passed


def test_basis_cancellation_m1():
    report = verify_basis_cancellation(1, 0)
    assert report.partial_sums == (1, 0, -1, 0)
    assert report.passed


def test_basis_cancellation_m5_r1():
    report = verify_basis_cancellation(5, 1)
    assert report.signs == (-1, 1, 1, -1)
    assert report.partial_sums == (-1, 0, 1, 0)
    assert report.passed


def test_basis_cancellation_empty_class_passes():
    report = verify_basis_cancellation(5, 3)
    assert report.period_length == 0
    assert report.signs == ()
    assert report.passed


def test_basis_cancellation_all_small_orders():
    for m in range(1, 25):
        for r in range(m):
            report = verify_basis_cancellation(m, r)
            assert report.passed, report


def test_checks_on_a_held_block_match_the_stream_scans():
    for m in range(1, 13):
        profile = period_profile(m)
        assert partial_sum_aggregate(m, profile) == partial_sum_aggregate(m)
        for i in range(m):
            assert substitute_profile(m, i, profile) == substitute_stream(m, i, 4 * m)
        for r in range(m):
            assert verify_basis_cancellation(m, r, profile) == verify_basis_cancellation(m, r)


def test_partial_sum_aggregate_pinned_cases():
    # the four running sums 1, 0, -1, 0 and the eight of the m=2 block
    assert partial_sum_aggregate(1) == zero_vector(1)
    assert partial_sum_aggregate(2) == zero_vector(2)


def test_partial_sum_aggregate_reported_for_larger_orders():
    for m in range(3, 13):
        aggregate = partial_sum_aggregate(m)
        assert aggregate.m == m
        assert len(aggregate.coords) == m


def test_cycvec_validation():
    with pytest.raises(ValueError):
        CycVec(3, (1, 2))
    with pytest.raises(ValueError):
        CycVec(0, ())
