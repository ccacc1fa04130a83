"""Executable acceptance checks: each criterion the package must satisfy, at
its stated tolerance and time budget.  The CLI `report` command renders these;
the test suite asserts them one by one."""

from __future__ import annotations

import time
from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple

from .cyclotomic import (
    period_profile,
    verify_basis_cancellation,
    verify_period_cancellation,
)
from .pentagonal import Branch, pentagonal
from .qseries import elementary_symmetric, euler_product, pentagonal_series, power_sums
from .sigma import first_wrong_sigma, recurrence_terms, sigma_brute, sigma_recurrence, sigma_table
from .summation import difference_table, euler_sum_alternating, pentagonal_power_sum, residue_class_abel

SIGMA_FIRST_ELEVEN = [1, 3, 4, 7, 6, 12, 8, 15, 13, 18, 12]

# Printed 4m-term period blocks in stream order, (sign, residue) per position.
PRINTED_BLOCKS = {
    2: [(1, 0), (-1, 1), (-1, 0), (1, 1), (1, 1), (-1, 0), (-1, 1), (1, 0)],
    3: [
        (1, 0), (-1, 1), (-1, 2), (1, 2), (1, 1), (-1, 0),
        (-1, 0), (1, 1), (1, 2), (-1, 2), (-1, 1), (1, 0),
    ],
    4: [
        (1, 0), (-1, 1), (-1, 2), (1, 1), (1, 3), (-1, 0), (-1, 3), (1, 2),
        (1, 2), (-1, 3), (-1, 0), (1, 3), (1, 1), (-1, 2), (-1, 1), (1, 0),
    ],
    5: [
        (1, 0), (-1, 1), (-1, 2), (1, 0), (1, 2), (-1, 2), (-1, 0), (1, 2), (1, 1), (-1, 0),
        (-1, 0), (1, 1), (1, 2), (-1, 0), (-1, 2), (1, 2), (1, 0), (-1, 2), (-1, 1), (1, 0),
    ],
}


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _first_difference(got: Sequence, want: Sequence) -> int:
    """The least index at which got and want differ; an entry only one of
    them has differs."""
    return next(i for i in range(max(len(got), len(want))) if got[i : i + 1] != want[i : i + 1])


def _first_wrong(checks: list[tuple[str, object, object]]) -> str | None:
    """"<name> = <got> != <want>" for the first (name, got, want) with
    got != want, or None if every check holds."""
    return next((f"{name} = {got} != {want}" for name, got, want in checks if got != want), None)


def _signed_chain(terms: list[int]) -> str:
    return str(terms[0]) + "".join(f"+{t}" if t > 0 else str(t) for t in terms[1:])


def check_sigma_table_regression() -> CriterionResult:
    """Criterion 1: sigma(1..11) matches the classical table, in under 1 ms."""
    start = time.perf_counter()
    values = [sigma_brute(n) for n in range(1, 12)]
    elapsed = time.perf_counter() - start
    ok = values == SIGMA_FIRST_ELEVEN and elapsed < 1e-3
    return CriterionResult(1, "sigma-table-regression", ok, f"sigma(1..11) = {values}", elapsed)


def check_recurrence_worked_examples() -> CriterionResult:
    """Criterion 2: the recurrence traces for 12 and 13, in under 1 ms."""
    twelve = sigma_table(12, "brute")
    start = time.perf_counter()
    trace12 = recurrence_terms(12, twelve)
    trace13 = recurrence_terms(13, twelve)
    elapsed = time.perf_counter() - start
    ok = (
        trace12 == [12, 18, -8, -6, 12]
        and sum(trace12) == 28
        and trace13 == [28, 12, -15, -12, 1]
        and sum(trace13) == 14
        and elapsed < 1e-3
    )
    detail = f"sigma(12) = {_signed_chain(trace12)} = 28; sigma(13) = {_signed_chain(trace13)} = 14"
    return CriterionResult(2, "recurrence-worked-examples", ok, detail, elapsed)


def check_oracle_equivalence() -> CriterionResult:
    """Criterion 3: the recurrence passes first_wrong_sigma, the divisor-sum
    certificate, for every n <= 10^4, < 30 s."""
    limit = 10**4
    start = time.perf_counter()
    table = sigma_table(limit, "recurrence")
    bad = first_wrong_sigma(table, limit)
    elapsed = time.perf_counter() - start
    ok = bad is None and elapsed < 30.0
    detail = f"recurrence == brute for all n <= {limit}" if bad is None else f"first mismatch at n = {bad}"
    return CriterionResult(3, "oracle-equivalence", ok, detail, elapsed)


def check_product_identity() -> CriterionResult:
    """Criterion 4: the truncated product equals the sparse series, < 5 s."""
    degree = 1000
    start = time.perf_counter()
    product, series = euler_product(degree), pentagonal_series(degree)
    same = product == series
    elapsed = time.perf_counter() - start
    ok = same and elapsed < 5.0
    detail = f"product == sparse series coefficient-for-coefficient at degree {degree}"
    if not same:
        detail = f"product != sparse series first at degree {_first_difference(product, series)}"
    return CriterionResult(4, "pentagonal-number-theorem", ok, detail, elapsed)


def check_symmetric_functions() -> CriterionResult:
    """Criterion 5: e1..e5 and p1..p4 match, and p_k = sigma(k) through 200."""
    limit = 200
    start = time.perf_counter()
    series = euler_product(limit)
    e = elementary_symmetric(series, 5)
    p = power_sums(series, limit)
    bad = first_wrong_sigma([0, *p], limit)
    elapsed = time.perf_counter() - start
    ok = e == [1, -1, 0, 0, -1] and p[:4] == [1, 3, 4, 7] and bad is None
    tail = f"p_k == sigma(k) for k <= {limit}" if bad is None else f"p_k != sigma(k) first at k = {bad}"
    detail = f"e1..e5 = {e}; p1..p4 = {p[:4]}; {tail}"
    return CriterionResult(5, "symmetric-function-values", ok, detail, elapsed)


def check_period_cancellation() -> CriterionResult:
    """Criterion 6: 4m-term blocks cancel and repeat for every m <= 24, with the
    printed 8/12/16/20-term blocks reproduced verbatim; < 1 s."""
    max_m, periods = 24, 5
    start = time.perf_counter()
    reports = [verify_period_cancellation(m, periods) for m in range(1, max_m + 1)]
    failures = [report.m for report in reports if not report.passed]
    blocks = {m: list(reports[m - 1].block) for m in PRINTED_BLOCKS}  # a tuple never equals a list
    misprinted = [m for m, block in PRINTED_BLOCKS.items() if blocks[m] != block]
    elapsed = time.perf_counter() - start
    ok = not failures and not misprinted and elapsed < 1.0
    detail = (
        f"per-residue sums zero and profiles repeat for m <= {max_m} over {periods} blocks; "
        f"printed blocks for m = 2, 3, 4, 5 reproduced"
    )
    if failures or misprinted:
        parts = [f"period cancellation failed for m = {failures}"] if failures else []
        for m in misprinted[:1]:
            position = _first_difference(blocks[m], PRINTED_BLOCKS[m])
            parts.append(f"printed block for m = {m} differs first at position {position}")
        detail = "; ".join(parts)
    return CriterionResult(6, "period-cancellation", ok, detail, elapsed)


def check_basis_cancellation() -> CriterionResult:
    """Criterion 7: the pinned running-sum patterns for m=5, r=0 and m=1."""
    start = time.perf_counter()
    five = verify_basis_cancellation(5, period_profile(5))[0]
    (one,) = verify_basis_cancellation(1, period_profile(1))
    elapsed = time.perf_counter() - start
    wrong = _first_wrong([
        ("m=5,r=0 partial sums", list(five.partial_sums), [1, 2, 1, 0, -1, -2, -1, 0]),
        ("m=5,r=0 signed sum", five.signed_sum, 0),
        ("m=5,r=0 basis sum", five.basis_sum, 0),
        ("m=1 partial sums", list(one.partial_sums), [1, 0, -1, 0]),
        ("m=1 signed sum", one.signed_sum, 0),
        ("m=1 basis sum", one.basis_sum, 0),
    ])
    detail = wrong or f"m=5,r=0 partial sums {list(five.partial_sums)}; m=1 partial sums {list(one.partial_sums)}"
    return CriterionResult(7, "basis-cancellation", wrong is None, detail, elapsed)


def check_euler_summation_regressions() -> CriterionResult:
    """Criterion 8: the worked difference tables and their exact sums."""
    start = time.perf_counter()
    minus = [pentagonal(k, Branch.MINUS) for k in range(1, 8)]
    plus = [pentagonal(k, Branch.PLUS) for k in range(1, 8)]
    linear = difference_table(minus)
    linear_plus = difference_table(plus)
    squares = difference_table([v * v for v in minus])
    squares_plus = difference_table([v * v for v in plus])
    one = pentagonal_power_sum(1)
    two = pentagonal_power_sum(2)
    leibniz = euler_sum_alternating([1] * 8)
    elapsed = time.perf_counter() - start
    wrong = _first_wrong([
        ("difference row 1 of the minus values", linear[1], (4, 7, 10, 13, 16, 19)),
        ("difference row 2 of the minus values", linear[2], (3, 3, 3, 3, 3)),
        ("difference row 1 of the plus values", linear_plus[1], (5, 8, 11, 14, 17, 20)),
        ("difference row 2 of the minus squares", squares[2], (95, 221, 401, 635, 923)),
        ("difference row 4 of the minus squares", squares[4], (54, 54, 54)),
        ("difference row 3 of the plus squares", squares_plus[3], (144, 198, 252, 306)),
        ("difference row 4 of the plus squares", squares_plus[4], (54, 54, 54)),
        ("s at exponent 1", one.s, Fraction(1, 8)),
        ("t at exponent 1", one.t, Fraction(-1, 8)),
        ("s at exponent 2", two.s, Fraction(3, 16)),
        ("t at exponent 2", two.t, Fraction(-3, 16)),
        ("Euler sum of the minus squares", euler_sum_alternating([v * v for v in minus]), Fraction(3, 16)),
        ("Euler sum of the plus squares", euler_sum_alternating([v * v for v in plus]), Fraction(-3, 16)),
        ("alternating units sum", leibniz, Fraction(1, 2)),
    ])
    detail = wrong or (
        f"difference rows reproduced; s,t = ({one.s},{one.t}) at exponent 1, "
        f"({two.s},{two.t}) at exponent 2; alternating units sum to {leibniz}"
    )
    return CriterionResult(8, "euler-summation-regressions", wrong is None, detail, elapsed)


def check_power_sum_identity() -> CriterionResult:
    """Criterion 9: the branch split totals zero for every exponent <= 10."""
    max_exponent = 10
    start = time.perf_counter()
    totals = [pentagonal_power_sum(ex).total for ex in range(max_exponent + 1)]
    elapsed = time.perf_counter() - start
    nonzero = [ex for ex, t in enumerate(totals) if t != 0]
    detail = f"total == 0 exactly for exponents 0..{max_exponent}"
    if nonzero:
        detail = f"total == {totals[nonzero[0]]} != 0 first at exponent {nonzero[0]}"
    return CriterionResult(9, "generalized-power-sum-identity", not nonzero, detail, elapsed)


def check_abel_decay() -> CriterionResult:
    """Criterion 10: abel_decay finds |value| shrinking toward every root, and
    the residue filters sit below 1e-2 at rho = 0.999; < 60 s."""
    from .summation import abel_decay  # read at call time, as cmd_abel reads it: one rule for both

    start = time.perf_counter()
    decay_failures = [
        (exponent, m, i) for exponent in range(4) for m in range(1, 7) for i in range(m)
        if not abel_decay(exponent, m, 0.999, 0.9, 1e-9, i=i)[2]
    ]
    filter_failures = []
    for exponent in range(4):
        for m in range(1, 5):
            for r in range(m):
                if abs(residue_class_abel(exponent, m, r, 0.999, 1e-9)) >= 1e-2:
                    filter_failures.append((exponent, m, r))
    elapsed = time.perf_counter() - start
    ok = not decay_failures and not filter_failures and elapsed < 60.0
    detail = (
        "|value| at rho=0.999 < |value| at rho=0.9 for exponents <= 3, m <= 6, all i; "
        "|residue filter| < 1e-2 at rho=0.999 for r < m <= 4"
    )
    if decay_failures or filter_failures:
        detail = f"decay failures {decay_failures[:3]}; filter failures {filter_failures[:3]}"
    return CriterionResult(10, "abel-decay", ok, detail, elapsed)


def check_mutation_sensitivity() -> CriterionResult:
    """Criterion 11: dropping the boundary rule must break the recurrence at 12."""
    start = time.perf_counter()
    table = sigma_table(11, "brute")
    crippled = sigma_recurrence(12, table, boundary_rule=False)
    honest = sigma_recurrence(12, table)
    elapsed = time.perf_counter() - start
    ok = crippled != sigma_brute(12) and honest == sigma_brute(12) == 28
    detail = f"without the boundary rule sigma(12) comes out {crippled}, not {sigma_brute(12)}"
    return CriterionResult(11, "mutation-sensitivity", ok, detail, elapsed)


ALL_CHECKS = [
    check_sigma_table_regression,
    check_recurrence_worked_examples,
    check_oracle_equivalence,
    check_product_identity,
    check_symmetric_functions,
    check_period_cancellation,
    check_basis_cancellation,
    check_euler_summation_regressions,
    check_power_sum_identity,
    check_abel_decay,
    check_mutation_sensitivity,
]


def run_all() -> list[CriterionResult]:
    """Run every acceptance criterion in order."""
    return [check() for check in ALL_CHECKS]
