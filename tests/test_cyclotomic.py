"""Roots of unity, stream substitution, and the cancellation checks read from
one 4m-term block."""

import math
from itertools import cycle, islice

import pytest

from pentafold import (
    CycVec,
    cyclotomic,
    iter_terms,
    partial_sum_aggregate,
    period_profile,
    root_of_unity,
    roots_of_unity,
    substitute_profile,
    verify_basis_cancellation,
    verify_period_cancellation,
)
from pentafold.cyclotomic import iter_profile

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


def substitute_prefix(m: int, i: int, term_count: int) -> CycVec:
    """The first term_count stream terms (constant included) with the i-th
    m-th root written in place of x."""
    return substitute_profile(m, i, islice(iter_profile(m), term_count))


def class_signs(m: int, residue: int, count: int) -> list[int]:
    """The first count signs of a residue class, cycled from its basis report."""
    return list(islice(cycle(verify_basis_cancellation(m, residue, period_profile(m)).signs), count))


def flipped(block: list[tuple[int, int]], position: int) -> list[tuple[int, int]]:
    """block with the sign at one position turned over."""
    sign, residue = block[position]
    return [*block[:position], (-sign, residue), *block[position + 1 :]]


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
    assert substitute_prefix(1, 1, 4).coords == (0,)
    assert substitute_prefix(2, 1, 8).is_zero
    assert substitute_prefix(3, 1, 12).is_zero


def test_substitute_stream_partial_period_m2():
    # first three terms: 1 - alpha - 1 -> coordinates (0, -1)
    assert substitute_prefix(2, 1, 3).coords == (0, -1)


def test_exponent_reduction_mod_order():
    for m in range(1, 13):
        for i in range(0, 2 * m + 1):
            for count in (1, 7, 50, 200):
                assert substitute_prefix(m, i, count) == substitute_prefix(m, i + m, count)


def test_negative_index_reaches_reciprocal_roots():
    for m in range(1, 9):
        assert substitute_prefix(m, -1, 60) == substitute_prefix(m, m - 1, 60)


def test_full_periods_cancel_exactly():
    for m in range(1, 25):
        for multiple in (1, 2, 3):
            assert substitute_prefix(m, 1, 4 * m * multiple) == CycVec(m, (0,) * m)


def test_numeric_and_exact_agree():
    for m in range(1, 9):
        for i in range(m):
            for count in (1, 25, 100):
                coords = substitute_prefix(m, i, count).coords
                exact = sum((c * root for c, root in zip(coords, roots_of_unity(m))), 0j)
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
    assert class_signs(5, 0, 8) == [1, 1, -1, -1, -1, -1, 1, 1]
    assert class_signs(2, 1, 4) == [-1, 1, 1, -1]
    assert class_signs(1, 0, 4) == [1, -1, -1, 1]


def test_residue_substream_empty_class():
    assert class_signs(5, 3, 10) == []
    assert class_signs(5, 4, 10) == []


def test_residue_substream_matches_a_stream_scan():
    # oracle: the class signs the basis report reads from one block, cycled,
    # against the classes of three blocks read directly off the term stream
    for m in range(1, 31):
        stream = list(islice(iter_terms(include_zero=True), 12 * m))
        for r in range(m):
            expected = [t.sign for t in stream if t.value % m == r]
            count = len(expected) or 1
            assert class_signs(m, r, count) == expected[:count], (m, r)


def test_residue_substream_rejects_bad_residue():
    with pytest.raises(ValueError):
        verify_basis_cancellation(5, 5, period_profile(5))


def test_basis_cancellation_m5_r0():
    report = verify_basis_cancellation(5, 0, BLOCK_M5)
    assert report.period_length == 8
    assert report.partial_sums == (1, 2, 1, 0, -1, -2, -1, 0)
    assert report.signed_sum == 0
    assert report.basis_sum == 0
    assert report.passed


def test_basis_cancellation_m1():
    report = verify_basis_cancellation(1, 0, period_profile(1))
    assert report.partial_sums == (1, 0, -1, 0)
    assert report.passed


def test_basis_cancellation_m5_r1():
    report = verify_basis_cancellation(5, 1, BLOCK_M5)
    assert report.signs == (-1, 1, 1, -1)
    assert report.partial_sums == (-1, 0, 1, 0)
    assert report.passed


def test_basis_cancellation_empty_class_passes():
    report = verify_basis_cancellation(5, 3, BLOCK_M5)
    assert report.period_length == 0
    assert report.signs == ()
    assert report.passed


def test_basis_cancellation_all_small_orders():
    for m in range(1, 25):
        block = period_profile(m)
        for r in range(m):
            report = verify_basis_cancellation(m, r, block)
            assert report.passed, report


def test_checks_on_a_held_block_match_the_stream_scans():
    for m in range(1, 13):
        block = period_profile(m)
        for i in range(m):
            assert substitute_profile(m, i, block) == substitute_prefix(m, i, 4 * m)


def test_the_image_at_root_i_folds_the_image_at_root_one():
    for m in range(1, 49):
        block = period_profile(m)
        for held in (block, flipped(block, m)):
            classes = list(zip(substitute_profile(m, 1, held).coords, range(m)))
            for i in range(m):
                assert substitute_profile(m, i, classes) == substitute_profile(m, i, held)


def test_partial_sum_aggregate_pinned_cases():
    # the four running sums 1, 0, -1, 0 and the eight of the m=2 block
    assert partial_sum_aggregate(1, period_profile(1)) == CycVec(1, (0,))
    assert partial_sum_aggregate(2, BLOCK_M2) == CycVec(2, (0, 0))


def test_partial_sum_aggregate_reported_for_larger_orders():
    for m in range(3, 13):
        aggregate = partial_sum_aggregate(m, period_profile(m))
        assert aggregate.m == m
        assert len(aggregate.coords) == m


def running_sum_aggregate(m, block):
    """Oracle: add every running partial sum of block, coordinate by coordinate."""
    coords = [0] * m
    running = [0] * m
    for sign, residue in block:
        running[residue] += sign
        for r in range(m):
            coords[r] += running[r]
    return CycVec(m, tuple(coords))


def test_partial_sum_aggregate_matches_the_running_sums():
    for m in range(1, 25):
        block = period_profile(m)
        assert partial_sum_aggregate(m, block) == running_sum_aggregate(m, block)
        for position in (0, m, 4 * m - 1):
            assert partial_sum_aggregate(m, flipped(block, position)) == running_sum_aggregate(
                m, flipped(block, position)
            )


def test_cycvec_validation():
    with pytest.raises(ValueError):
        CycVec(3, (1, 2))
    with pytest.raises(ValueError):
        CycVec(0, ())


def test_one_flipped_sign_in_the_block_fails_every_block_check():
    block = period_profile(5)
    mutated = flipped(block, 3)  # (+1, residue 0) becomes (-1, residue 0)
    assert not verify_basis_cancellation(5, 0, mutated).passed
    assert verify_basis_cancellation(5, 1, mutated).passed
    assert not substitute_profile(5, 1, mutated).is_zero
    assert partial_sum_aggregate(5, mutated) != partial_sum_aggregate(5, block)


def test_one_flipped_sign_in_the_stream_is_named_by_the_period_check(monkeypatch):
    position = 4 * 5 * 2 + 5  # inside block 2 for m = 5
    original = cyclotomic.iter_signed_values

    def one_sign_flipped():
        for index, (value, sign) in enumerate(original(), start=1):  # position 0 is the constant
            yield value, -sign if index == position else sign

    monkeypatch.setattr(cyclotomic, "iter_signed_values", one_sign_flipped)
    report = verify_period_cancellation(5, 3)
    assert not report.passed
    assert any(v.startswith(f"position {position}:") for v in report.violations), report.violations
    assert all(v.startswith(("block 2:", f"position {position}:")) for v in report.violations)
