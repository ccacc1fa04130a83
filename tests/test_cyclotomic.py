"""The roots of unity in fixed point, the stream's residue sums at a root,
and the cancellation checks read from one 4m-term block."""

import math
from itertools import cycle, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentafold import (
    BasisCancellationReport,
    cyclotomic,
    iter_terms,
    partial_sum_aggregate,
    period_profile,
    verify_basis_cancellation,
    verify_period_cancellation,
)
from pentafold.summation import root_of_unity_fixed

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


ONE = 1 << 64  # the scale of the fixed-point roots below


def prefix_residue_sums(m: int, term_count: int) -> tuple[int, ...]:
    """The signed count at each residue over the first term_count stream
    terms (constant included): that prefix at a primitive m-th root a, as
    coordinates on a^0 .. a^(m-1).  Read from the labelled terms, which share
    no code with the period checks' profile."""
    sums = [0] * m
    for term in islice(iter_terms(include_zero=True), term_count):
        sums[term.value % m] += term.sign
    return tuple(sums)


def float_root(m: int, j: int) -> complex:
    """root_of_unity_fixed(m, j, 64) with each part rounded once to float."""
    return complex(*(part / ONE for part in root_of_unity_fixed(m, j, 64)))


def class_signs(m: int, residue: int, count: int) -> list[int]:
    """The first count signs of a residue class, cycled from its basis report."""
    return list(islice(cycle(verify_basis_cancellation(m, period_profile(m))[residue].signs), count))


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
    # the quarter turns are exact
    assert root_of_unity_fixed(1, 0, 64) == (ONE, 0)
    assert [root_of_unity_fixed(2, j, 64) for j in range(2)] == [(ONE, 0), (-ONE, 0)]
    assert [root_of_unity_fixed(4, j, 64) for j in range(4)] == [(ONE, 0), (0, ONE), (-ONE, 0), (0, -ONE)]
    with pytest.raises(ValueError):
        root_of_unity_fixed(0, 0, 64)


def test_single_root_reduces_the_exponent_mod_m():
    for m in range(1, 13):
        for j in range(-2 * m, 3 * m):
            for bits in (0, 53, 64, 200):
                assert root_of_unity_fixed(m, j, bits) == root_of_unity_fixed(m, j % m, bits)
    with pytest.raises(ValueError):
        root_of_unity_fixed(0, 1, 64)


def test_fifth_root_matches_radical_expression():
    # cos(2pi/5) = (sqrt 5 - 1)/4 and sin(2pi/5) = sqrt(10 + 2 sqrt 5)/4, taken
    # at 2**96 by isqrt (a few units there) against the root at 2**64 shifted up
    cos, sin = root_of_unity_fixed(5, 1, 64)
    scale = 1 << 96
    sqrt5 = math.isqrt(5 * scale * scale)
    exact_cos = (sqrt5 - scale) // 4
    exact_sin = math.isqrt((10 * scale + 2 * sqrt5) * scale) // 4
    assert abs((cos << 32) - exact_cos) <= (2 << 32) + 4
    assert abs((sin << 32) - exact_sin) <= (2 << 32) + 4


def test_root_invariants():
    for m in range(1, 13):
        for j in range(m):
            cos, sin = root_of_unity_fixed(m, j, 64)
            # each part within 2 units: |cos^2 + sin^2 - ONE^2| <= 2*2*sqrt(2)*ONE + 8
            assert abs(cos * cos + sin * sin - ONE * ONE) <= 6 * ONE
            assert abs(float_root(m, j) ** m - 1.0) < 1e-9


def test_conjugate_of_each_root_is_a_root():
    # root m - j is the conjugate of root j; each part is within 2 units of
    # exact, so the two may differ by up to 4
    for m in range(1, 13):
        for j in range(m):
            cos, sin = root_of_unity_fixed(m, j, 64)
            conj_cos, conj_sin = root_of_unity_fixed(m, m - j, 64)
            assert abs(cos - conj_cos) <= 4 and abs(sin + conj_sin) <= 4


def test_substitute_stream_examples():
    assert prefix_residue_sums(1, 4) == (0,)
    assert prefix_residue_sums(2, 8) == (0, 0)
    assert prefix_residue_sums(3, 12) == (0, 0, 0)


def test_substitute_stream_partial_period_m2():
    # first three terms: 1 - alpha - 1 -> coordinates (0, -1)
    assert prefix_residue_sums(2, 3) == (0, -1)


def test_numeric_and_exact_agree():
    # at the i-th root, the term at residue r is weighted by root r*i
    for m in range(1, 9):
        for i in range(m):
            for count in (1, 25, 100):
                sums = prefix_residue_sums(m, count)
                exact = sum((c * float_root(m, r * i) for r, c in enumerate(sums)), 0j)
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


def test_the_period_report_hands_back_the_block_it_checked():
    for m in range(1, 61):
        for periods in range(1, 7):
            assert verify_period_cancellation(m, periods).block == tuple(period_profile(m)), (m, periods)


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
    for residue in (-1, 5):
        with pytest.raises(ValueError, match=f"got {residue}$"):
            verify_basis_cancellation(5, [*BLOCK_M5, (1, residue)])
    with pytest.raises(ValueError, match="got 0$"):
        verify_basis_cancellation(0, [])


def test_basis_cancellation_m5_r0():
    report = verify_basis_cancellation(5, BLOCK_M5)[0]
    assert report.period_length == 8
    assert report.partial_sums == (1, 2, 1, 0, -1, -2, -1, 0)
    assert report.signed_sum == 0
    assert report.basis_sum == 0
    assert report.passed


def test_basis_cancellation_m1():
    (report,) = verify_basis_cancellation(1, period_profile(1))
    assert report.partial_sums == (1, 0, -1, 0)
    assert report.passed


def test_basis_cancellation_m5_r1():
    report = verify_basis_cancellation(5, BLOCK_M5)[1]
    assert report.signs == (-1, 1, 1, -1)
    assert report.partial_sums == (-1, 0, 1, 0)
    assert report.passed


def test_basis_cancellation_empty_class_passes():
    report = verify_basis_cancellation(5, BLOCK_M5)[3]
    assert report.period_length == 0
    assert report.signs == ()
    assert report.passed


def test_basis_cancellation_all_small_orders():
    for m in range(1, 25):
        reports = verify_basis_cancellation(m, period_profile(m))
        assert [report.residue for report in reports] == list(range(m))
        for report in reports:
            assert report.passed, report


def window_search_basis(m, residue, block):
    """Oracle: one class's basis report by the per-residue scan and the
    tripled-window period search, the smallest candidate the window repeats under."""
    members = [sign for sign, r in block if r == residue]
    if not members:
        return BasisCancellationReport(m, residue, 0, (), (), 0, 0)
    window = members * 3
    length = len(members)
    for candidate in range(1, length + 1):
        if all(window[pos] == window[pos - candidate] for pos in range(candidate, len(window))):
            length = candidate
            break
    signs = tuple(window[:length])
    partial_sums = []
    running = 0
    for sign in signs:
        running += sign
        partial_sums.append(running)
    return BasisCancellationReport(
        m, residue, length, signs, tuple(partial_sums), sum(signs), sum(partial_sums)
    )


def assert_grouped_matches_window_search(m, block):
    expected = [window_search_basis(m, r, block) for r in range(m)]
    assert verify_basis_cancellation(m, block) == expected, (m, block)


def test_grouped_basis_check_matches_the_window_search():
    for m in range(1, 61):
        block = period_profile(m)
        assert_grouped_matches_window_search(m, block)
        for position in (0, m, 4 * m - 1):
            assert_grouped_matches_window_search(m, flipped(block, position))


@st.composite
def blocks(draw):
    """(m, block): a drawn pattern of (sign, residue) repeated a drawn number of
    times, so that short periods turn up as well as none."""
    m = draw(st.integers(1, 12))
    pattern = draw(st.lists(st.tuples(st.integers(-1, 1), st.integers(0, m - 1)), max_size=80))
    return m, (pattern * draw(st.integers(1, 4)))[:80]


@settings(max_examples=300)
@given(blocks())
def test_grouped_basis_check_matches_the_window_search_on_drawn_blocks(case):
    assert_grouped_matches_window_search(*case)


def test_partial_sum_aggregate_pinned_cases():
    # the four running sums 1, 0, -1, 0 and the eight of the m=2 block
    assert partial_sum_aggregate(1, period_profile(1)) == (0,)
    assert partial_sum_aggregate(2, BLOCK_M2) == (0, 0)


def test_partial_sum_aggregate_reported_for_larger_orders():
    for m in range(3, 13):
        aggregate = partial_sum_aggregate(m, period_profile(m))
        assert isinstance(aggregate, tuple)
        assert len(aggregate) == m


def running_sum_aggregate(m, block):
    """Oracle: add every running partial sum of block, coordinate by coordinate."""
    coords = [0] * m
    running = [0] * m
    for sign, residue in block:
        running[residue] += sign
        for r in range(m):
            coords[r] += running[r]
    return tuple(coords)


def test_partial_sum_aggregate_matches_the_running_sums():
    for m in range(1, 25):
        block = period_profile(m)
        assert partial_sum_aggregate(m, block) == running_sum_aggregate(m, block)
        for position in (0, m, 4 * m - 1):
            assert partial_sum_aggregate(m, flipped(block, position)) == running_sum_aggregate(
                m, flipped(block, position)
            )


def test_partial_sum_aggregate_rejects_bad_residue():
    for residue in (-1, 5):
        with pytest.raises(ValueError, match=f"got {residue}$"):
            partial_sum_aggregate(5, [*BLOCK_M5, (1, residue)])
    with pytest.raises(ValueError, match="got 0$"):
        partial_sum_aggregate(0, [])
    with pytest.raises(ValueError, match=r"^residue must lie in 0\.\.2, got -1$"):
        partial_sum_aggregate(3, [(1, -1)])
    with pytest.raises(ValueError, match=r"^residue must lie in 0\.\.2, got 3$"):
        partial_sum_aggregate(3, [(1, 3)])
    with pytest.raises(ValueError, match="^modulus must be positive, got 0$"):
        partial_sum_aggregate(0, [(1, 0)])


def test_one_flipped_sign_in_the_block_fails_every_block_check():
    block = period_profile(5)
    mutated = flipped(block, 3)  # (+1, residue 0) becomes (-1, residue 0)
    reports = verify_basis_cancellation(5, mutated)
    assert not reports[0].passed
    assert reports[1].passed
    assert partial_sum_aggregate(5, mutated) != partial_sum_aggregate(5, block)


def flip_in_the_stream(monkeypatch, position: int) -> None:
    """Turn over the sign at one stream position of every later walk."""
    original = cyclotomic.iter_signed_values

    def one_sign_flipped():
        for index, (value, sign) in enumerate(original(), start=1):  # position 0 is the constant
            yield value, -sign if index == position else sign

    monkeypatch.setattr(cyclotomic, "iter_signed_values", one_sign_flipped)


def test_one_flipped_sign_in_the_stream_is_named_by_the_period_check(monkeypatch):
    position = 4 * 5 * 2 + 5  # inside block 2 for m = 5
    flip_in_the_stream(monkeypatch, position)
    report = verify_period_cancellation(5, 3)
    assert report.block == tuple(BLOCK_M5)
    assert not report.passed
    assert any(v.startswith(f"position {position}:") for v in report.violations), report.violations
    assert all(v.startswith(("block 2:", f"position {position}:")) for v in report.violations)
    # block 3 repeats block 0 again, so it adds nothing after the block that broke
    assert verify_period_cancellation(5, 4).violations == (
        "block 2: residue 2 sums to 2",
        f"position {position}: profile (1, 2) breaks the block-0 pattern (-1, 2)",
    )


def test_a_sign_flipped_in_block_0_shows_in_the_block_and_the_violations(monkeypatch):
    position = 7  # (+1, residue 2) for m = 5
    flip_in_the_stream(monkeypatch, position)
    report = verify_period_cancellation(5, 3)
    assert report.block == tuple(flipped(BLOCK_M5, position))
    # block 0 no longer cancels, and blocks 1 and 2, which still do, break its pattern
    assert report.violations == (
        "block 0: residue 2 sums to -2",
        "position 27: profile (1, 2) breaks the block-0 pattern (-1, 2)",
        "position 47: profile (1, 2) breaks the block-0 pattern (-1, 2)",
    )
