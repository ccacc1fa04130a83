"""Executable acceptance checks: each criterion the package must satisfy, at
its stated tolerance and time budget.  The CLI `report` command renders these;
the test suite asserts them one by one."""

from __future__ import annotations

import time
from fractions import Fraction
from typing import NamedTuple

from .cyclotomic import (
    period_profile,
    verify_basis_cancellation,
    verify_period_cancellation,
)
from .pentagonal import Branch, pentagonal
from .qseries import elementary_symmetric, euler_product, pentagonal_series, power_sums
from .sigma import recurrence_terms, sigma_brute, sigma_recurrence, sigma_table
from .summation import (
    abel_evaluate,
    difference_table,
    euler_sum_alternating,
    pentagonal_power_sum,
    required_exponent_cap,
    residue_class_abel,
)

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
    eleven = sigma_table(11, "brute")
    twelve = sigma_table(12, "brute")
    start = time.perf_counter()
    trace12 = recurrence_terms(12, eleven)
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


def check_oracle_equivalence(limit: int = 10**4) -> CriterionResult:
    """Criterion 3: recurrence equals trial division for every n <= 10^4, < 30 s."""
    start = time.perf_counter()
    table = sigma_table(limit, "recurrence")
    mismatches = [n for n in range(1, limit + 1) if table[n] != sigma_brute(n)]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 30.0
    detail = f"recurrence == brute for all n <= {limit}" if not mismatches else (
        f"mismatch at n = {mismatches[:5]}"
    )
    return CriterionResult(3, "oracle-equivalence", ok, detail, elapsed)


def check_product_identity(degree: int = 1000) -> CriterionResult:
    """Criterion 4: the truncated product equals the sparse series, < 5 s."""
    start = time.perf_counter()
    same = euler_product(degree) == pentagonal_series(degree)
    elapsed = time.perf_counter() - start
    ok = same and elapsed < 5.0
    return CriterionResult(
        4, "pentagonal-number-theorem", ok,
        f"product == sparse series coefficient-for-coefficient at degree {degree}", elapsed,
    )


def check_symmetric_functions(limit: int = 200) -> CriterionResult:
    """Criterion 5: e1..e5 and p1..p4 match, and p_k = sigma(k) through 200."""
    start = time.perf_counter()
    series = euler_product(limit)
    e = elementary_symmetric(series, 5)
    p = power_sums(series, limit)
    mismatches = [k for k in range(1, limit + 1) if p[k - 1] != sigma_brute(k)]
    elapsed = time.perf_counter() - start
    ok = e == [1, -1, 0, 0, -1] and p[:4] == [1, 3, 4, 7] and not mismatches
    detail = f"e1..e5 = {e}; p1..p4 = {p[:4]}; p_k == sigma(k) for k <= {limit}"
    return CriterionResult(5, "symmetric-function-values", ok, detail, elapsed)


def check_period_cancellation(max_m: int = 24, periods: int = 5) -> CriterionResult:
    """Criterion 6: 4m-term blocks cancel and repeat for every m <= 24, with the
    printed 8/12/16/20-term blocks reproduced verbatim; < 1 s."""
    start = time.perf_counter()
    failures = [m for m in range(1, max_m + 1) if not verify_period_cancellation(m, periods).passed]
    verbatim_ok = all(period_profile(m) == block for m, block in PRINTED_BLOCKS.items())
    elapsed = time.perf_counter() - start
    ok = not failures and verbatim_ok and elapsed < 1.0
    detail = (
        f"per-residue sums zero and profiles repeat for m <= {max_m} over {periods} blocks; "
        f"printed blocks for m = 2, 3, 4, 5 reproduced"
    )
    if failures:
        detail = f"period cancellation failed for m = {failures}"
    return CriterionResult(6, "period-cancellation", ok, detail, elapsed)


def check_basis_cancellation() -> CriterionResult:
    """Criterion 7: the pinned running-sum patterns for m=5, r=0 and m=1."""
    start = time.perf_counter()
    five = verify_basis_cancellation(5, 0)
    one = verify_basis_cancellation(1, 0)
    elapsed = time.perf_counter() - start
    ok = (
        five.partial_sums == (1, 2, 1, 0, -1, -2, -1, 0)
        and five.signed_sum == 0
        and five.basis_sum == 0
        and one.partial_sums == (1, 0, -1, 0)
        and one.passed
    )
    detail = f"m=5,r=0 partial sums {list(five.partial_sums)}; m=1 partial sums {list(one.partial_sums)}"
    return CriterionResult(7, "basis-cancellation", ok, detail, elapsed)


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
    ok = (
        linear.rows[1] == (4, 7, 10, 13, 16, 19)
        and linear.rows[2] == (3, 3, 3, 3, 3)
        and linear_plus.rows[1] == (5, 8, 11, 14, 17, 20)
        and squares.rows[2] == (95, 221, 401, 635, 923)
        and squares.rows[4] == (54, 54, 54)
        and squares_plus.rows[3] == (144, 198, 252, 306)
        and squares_plus.rows[4] == (54, 54, 54)
        and (one.s, one.t) == (Fraction(1, 8), Fraction(-1, 8))
        and (two.s, two.t) == (Fraction(3, 16), Fraction(-3, 16))
        and euler_sum_alternating([v * v for v in minus]) == Fraction(3, 16)
        and euler_sum_alternating([v * v for v in plus]) == Fraction(-3, 16)
        and leibniz == Fraction(1, 2)
    )
    detail = (
        f"difference rows reproduced; s,t = ({one.s},{one.t}) at exponent 1, "
        f"({two.s},{two.t}) at exponent 2; alternating units sum to {leibniz}"
    )
    return CriterionResult(8, "euler-summation-regressions", ok, detail, elapsed)


def check_power_sum_identity(max_exponent: int = 10) -> CriterionResult:
    """Criterion 9: the branch split totals zero for every exponent <= 10."""
    start = time.perf_counter()
    totals = [pentagonal_power_sum(ex).total for ex in range(max_exponent + 1)]
    elapsed = time.perf_counter() - start
    ok = all(t == 0 for t in totals)
    return CriterionResult(
        9, "generalized-power-sum-identity", ok,
        f"total == 0 exactly for exponents 0..{max_exponent}", elapsed,
    )


def check_abel_decay() -> CriterionResult:
    """Criterion 10: damping toward 1 shrinks |value| for every root (matching
    caps), and the residue filters sit below 1e-2 at rho = 0.999; < 60 s."""
    start = time.perf_counter()
    decay_failures = []
    for exponent in range(4):
        for m in range(1, 7):
            cap = required_exponent_cap(exponent, 0.999, 1e-9)
            for i in range(m):
                near = abs(abel_evaluate(exponent, m, i, 0.999, 1e-9, exponent_cap=cap))
                far = abs(abel_evaluate(exponent, m, i, 0.9, 1e-9, exponent_cap=cap))
                if not near < far:
                    decay_failures.append((exponent, m, i))
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
