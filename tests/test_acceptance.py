"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines,
or `pentafold report` for the same checks behind the CLI.
"""

import ast
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from pentafold import acceptance, summation
from pentafold import (
    Branch,
    euler_product,
    euler_sum_alternating,
    pentagonal,
    pentagonal_power_sum,
    power_sums,
    recurrence_terms,
    sigma_table,
    period_profile,
    verify_basis_cancellation,
    verify_period_cancellation,
)
from pentafold.cli import main


def _run(check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {result.number:2d} {result.name}: {status} ({result.detail})")
    assert result.passed, f"criterion {result.number} failed: {result.detail}"
    return result


def test_criterion_01_sigma_table_regression():
    result = _run(acceptance.check_sigma_table_regression)
    assert result.elapsed < 1e-3
    assert sigma_table(11, "brute")[1:] == [1, 3, 4, 7, 6, 12, 8, 15, 13, 18, 12]


def test_criterion_02_recurrence_worked_examples():
    result = _run(acceptance.check_recurrence_worked_examples)
    assert result.elapsed < 1e-3
    assert recurrence_terms(12, sigma_table(11)) == [12, 18, -8, -6, 12]
    assert recurrence_terms(13, sigma_table(12)) == [28, 12, -15, -12, 1]


def test_criterion_03_oracle_equivalence():
    result = _run(acceptance.check_oracle_equivalence)
    assert result.elapsed < 30.0


def test_criterion_04_pentagonal_number_theorem():
    result = _run(acceptance.check_product_identity)
    assert result.elapsed < 5.0


def test_criterion_05_symmetric_function_values():
    _run(acceptance.check_symmetric_functions)


def test_criterion_06_period_cancellation():
    result = _run(acceptance.check_period_cancellation)
    assert result.elapsed < 1.0


def test_criterion_07_basis_cancellation():
    _run(acceptance.check_basis_cancellation)
    assert verify_basis_cancellation(5, period_profile(5))[0].partial_sums == (1, 2, 1, 0, -1, -2, -1, 0)
    assert [r.partial_sums for r in verify_basis_cancellation(1, period_profile(1))] == [(1, 0, -1, 0)]


def test_criterion_08_euler_summation_regressions():
    _run(acceptance.check_euler_summation_regressions)
    one = pentagonal_power_sum(1)
    two = pentagonal_power_sum(2)
    assert (one.s, one.t) == (Fraction(1, 8), Fraction(-1, 8))
    assert (two.s, two.t) == (Fraction(3, 16), Fraction(-3, 16))
    assert euler_sum_alternating([1] * 8) == Fraction(1, 2)


def test_criterion_09_generalized_power_sum_identity():
    _run(acceptance.check_power_sum_identity)


def test_criterion_10_abel_decay():
    result = _run(acceptance.check_abel_decay)
    assert result.elapsed < 60.0


def test_criterion_11_mutation_sensitivity():
    _run(acceptance.check_mutation_sensitivity)


def test_all_checks_are_the_eleven_criteria_under_their_own_names():
    # perfbench names its acceptance.criterion_<n>.s metrics by these names,
    # and its tracer wraps the checks it finds under them in this module
    names = [check.__name__ for check in acceptance.ALL_CHECKS]
    assert names == [
        "check_sigma_table_regression",
        "check_recurrence_worked_examples",
        "check_oracle_equivalence",
        "check_product_identity",
        "check_symmetric_functions",
        "check_period_cancellation",
        "check_basis_cancellation",
        "check_euler_summation_regressions",
        "check_power_sum_identity",
        "check_abel_decay",
        "check_mutation_sensitivity",
    ]
    for check, name in zip(acceptance.ALL_CHECKS, names):
        assert getattr(acceptance, name) is check
        assert check.__module__ == acceptance.__name__


def planted(values: list, n: int, cut: bool) -> list:
    """values, changed in place: entry n raised by one, or, if cut, cut off
    from entry n on."""
    if cut:
        del values[n:]
    else:
        values[n] += 1
    return values


def report_row(capsys, number: int) -> tuple[int, list[str]]:
    """pentafold report's exit code and its csv row for one criterion."""
    code = main(["report", "--format", "csv"])
    rows = [line.split(",", 3) for line in capsys.readouterr().out.splitlines()]
    return code, rows[number - 1]


@pytest.mark.parametrize(
    "n, cut", [(1, False), (2, False), (12, False), (9801, False), (9973, False), (10000, False), (9001, True)]
)
def test_criterion_03_names_a_planted_recurrence_row(monkeypatch, capsys, n, cut):
    # cut: a recurrence that returns too few rows, the first missing one at n
    def recurrence_with_fault(max_n, method="recurrence"):
        table = sigma_table(max_n, method)
        if method == "recurrence":
            planted(table, n, cut)
        return table

    monkeypatch.setattr(acceptance, "sigma_table", recurrence_with_fault)
    result = acceptance.check_oracle_equivalence()
    assert not result.passed
    assert result.detail == f"first mismatch at n = {n}"
    code, row = report_row(capsys, 3)
    assert code == 1
    assert row == ["3", "oracle-equivalence", "FAIL", result.detail]


@pytest.mark.parametrize("k, cut", [(1, False), (5, False), (200, False), (151, True)])
def test_criterion_05_names_a_planted_power_sum(monkeypatch, capsys, k, cut):
    # the power sums are p_1, p_2, ...: entry k - 1 holds p_k
    monkeypatch.setattr(acceptance, "power_sums", lambda *args: planted(power_sums(*args), k - 1, cut))
    result = acceptance.check_symmetric_functions()
    assert not result.passed
    assert result.detail.endswith(f"; p_k != sigma(k) first at k = {k}")
    code, row = report_row(capsys, 5)
    assert code == 1
    assert row == ["5", "symmetric-function-values", "FAIL", result.detail]


def planted_at(function, key, change):
    """function with change applied to its result where its first argument is key."""
    return lambda *args: change(function(*args)) if args[0] == key else function(*args)


def sign_flipped(block: tuple, position: int) -> tuple:
    sign, residue = block[position]
    return (*block[:position], (-sign, residue), *block[position + 1 :])


# Criterion, the layer function it calls, the argument at which the fault is
# planted, the fault, and the detail that must name it.  No fault reaches what
# another criterion reads: euler_product(200) (criterion 5), period_profile(1)
# and (5) (criterion 7), pentagonal_power_sum(1) and (2) (criterion 8), and
# every total (criterion 9), so criterion 8's fault at exponent 2 changes s.
PLANTED_FAULTS = {
    "product-degree-500": (
        4, "euler_product", 1000, lambda series: (*series[:500], 1, *series[501:]),
        "product != sparse series first at degree 500",
    ),
    "product-short": (
        4, "euler_product", 1000, lambda series: series[:-1],
        "product != sparse series first at degree 1000",
    ),
    "printed-block-m3": (
        6, "verify_period_cancellation", 3, lambda report: report._replace(block=sign_flipped(report.block, 4)),
        "printed block for m = 3 differs first at position 4",
    ),
    "printed-block-m2": (
        6, "verify_period_cancellation", 2, lambda report: report._replace(block=sign_flipped(report.block, 0)),
        "printed block for m = 2 differs first at position 0",
    ),
    "period-m7": (
        6, "verify_period_cancellation", 7, lambda report: report._replace(violations=("planted",)),
        "period cancellation failed for m = [7]",
    ),
    "basis-m5": (
        7, "verify_basis_cancellation", 5,
        lambda reports: [reports[0]._replace(partial_sums=(1, 2, 1, 0, -1, -2, -1, 1)), *reports[1:]],
        "m=5,r=0 partial sums = [1, 2, 1, 0, -1, -2, -1, 1] != [1, 2, 1, 0, -1, -2, -1, 0]",
    ),
    "basis-m1": (
        7, "verify_basis_cancellation", 1, lambda reports: [reports[0]._replace(basis_sum=1)],
        "m=1 basis sum = 1 != 0",
    ),
    "difference-row-plus": (
        8, "difference_table", [pentagonal(k, Branch.PLUS) for k in range(1, 8)],
        lambda rows: (rows[0], (*rows[1][:-1], rows[1][-1] + 1), *rows[2:]),
        "difference row 1 of the plus values = (5, 8, 11, 14, 17, 21) != (5, 8, 11, 14, 17, 20)",
    ),
    "split-exponent-2": (
        8, "pentagonal_power_sum", 2, lambda split: split._replace(s=split.s + 1),
        "s at exponent 2 = 19/16 != 3/16",
    ),
    "alternating-units": (
        8, "euler_sum_alternating", [1] * 8, lambda total: total + 1,
        "alternating units sum = 3/2 != 1/2",
    ),
    "total-exponent-7": (
        9, "pentagonal_power_sum", 7, lambda split: split._replace(total=split.total + 1),
        "total == 1 != 0 first at exponent 7",
    ),
    "total-exponent-0": (
        9, "pentagonal_power_sum", 0, lambda split: split._replace(total=Fraction(-1, 2)),
        "total == -1/2 != 0 first at exponent 0",
    ),
}


@pytest.mark.parametrize("case", PLANTED_FAULTS.values(), ids=PLANTED_FAULTS.keys())
def test_a_planted_fault_fails_its_criterion_and_names_itself(monkeypatch, capsys, case):
    number, name, key, change, detail = case
    monkeypatch.setattr(acceptance, name, planted_at(getattr(acceptance, name), key, change))
    result = acceptance.ALL_CHECKS[number - 1]()
    assert (result.number, result.passed, result.detail) == (number, False, detail)
    code = main(["report", "--format", "csv"])
    rows = [line.split(",", 3) for line in capsys.readouterr().out.splitlines()]
    assert code == 1
    assert rows[number - 1][2:] == ["FAIL", detail]
    # every other row passes, but for criteria 1 and 2: each times its whole
    # check, 9 to 18 us warm and about 45 us in a fresh process on a 2-core
    # host, against 1 ms, which a preempted process can overrun
    failing = {row[0] for row in rows if row[2] == "FAIL"}
    assert str(number) in failing and failing <= {str(number), "1", "2"}


def test_report_runs_one_class_pass_per_distinct_input(monkeypatch):
    # criterion 10 evaluates 48 distinct (exponent, m, rho, tolerance,
    # cap_radius) points, each at every root index, and its residue filters
    # revisit the rho = 0.999 ones; each point searches for its cap once.
    # Its roots are read at the class sums' own precision, so they repeat
    # across root indices: 84 distinct roots at 4 widths of pi
    searches = []
    search = summation.required_exponent_cap
    monkeypatch.setattr(summation, "required_exponent_cap", lambda *args: searches.append(args) or search(*args))
    caches = (summation._damped_classes, summation._root_fixed, summation._pi_fixed)
    for cache in caches:
        cache.cache_clear()
    try:
        results = acceptance.run_all()
        passes, roots, widths = (cache.cache_info() for cache in caches)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert results[9].number == 10 and results[9].passed
    assert 0 < passes.misses <= 48
    assert passes.misses == passes.currsize  # none evicted, so no input ran twice
    assert len(searches) == passes.misses
    assert 0 < roots.misses <= 84 and 0 < widths.misses <= 4


def test_a_planted_decay_verdict_reaches_abel_and_criterion_10(monkeypatch, capsys):
    # abel and criterion 10 both take their verdict from summation.abel_decay
    monkeypatch.setattr(summation, "abel_decay", lambda *args, **kwargs: (1.0, 0.5, False))
    assert main(["abel", "--m", "2", "--i", "1", "--format", "csv"]) == 1
    assert capsys.readouterr().out == "0,2,i1,0.99,1.000000e+00,FAIL,5.000000e-01\n"
    result = acceptance.check_abel_decay()
    assert not result.passed
    assert result.detail.startswith("decay failures [(0, 1, 0), (0, 2, 0), (0, 2, 1)]")
    code, row = report_row(capsys, 10)
    assert code == 1
    assert row[2] == "FAIL"


def test_a_planted_residue_filter_fails_criterion_10_alone(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "residue_class_abel", lambda *args: 1.0)
    detail = "decay failures []; filter failures [(0, 1, 0), (0, 2, 0), (0, 2, 1)]"
    result = acceptance.check_abel_decay()
    assert (result.passed, result.detail) == (False, detail)
    code = main(["report", "--format", "csv"])
    rows = [line.split(",", 3) for line in capsys.readouterr().out.splitlines()]
    assert code == 1
    assert rows[9][2:] == ["FAIL", detail]
    # criteria 1 and 2 time 9 to 45 us against 1 ms, which a preempted process can overrun
    assert {row[0] for row in rows if row[2] == "FAIL"} <= {"10", "1", "2"}


def test_report_builds_one_sigma_table(monkeypatch):
    # criterion 3 builds the recurrence table to 10^4; criterion 11 reads the
    # eleven rows criterion 1 certifies instead of building them again
    calls = []
    monkeypatch.setattr(acceptance, "sigma_table", lambda *args: calls.append(args) or sigma_table(*args))
    acceptance.run_all()
    assert calls == [(10**4, "recurrence")]


def test_report_walks_each_damped_stream_once():
    # criterion 10's 48 class passes read 8 streams: exponents 0..3 at
    # rho = 0.999 and 0.9, each shared by every root order m
    summation._damped_classes.cache_clear()
    summation._stream_terms.cache_clear()
    try:
        results = acceptance.run_all()
        walks = summation._stream_terms.cache_info().misses
    finally:
        summation._damped_classes.cache_clear()
        summation._stream_terms.cache_clear()
    assert results[9].number == 10 and results[9].passed
    assert 0 < walks <= 8


def perfbench_budgets() -> dict[int, float]:
    """BUDGETS of perfbench/run.py, read from its source without importing it."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text(encoding="utf-8"))
    (budgets,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["BUDGETS"]
    ]
    return ast.literal_eval(budgets)


def test_each_budget_perfbench_reports_against_is_the_one_report_enforces(monkeypatch):
    # criterion n is ALL_CHECKS[n - 1]; a budgeted one passes just under its
    # budget and fails at it, and an unbudgeted one passes at 10^9 s
    budgets = perfbench_budgets()
    for number, check in enumerate(acceptance.ALL_CHECKS, start=1):
        budget = budgets.get(number)
        cases = [(budget * (1 - 1e-9), True), (budget, False)] if budget else [(1e9, True)]
        for elapsed, passes in cases:
            clock = iter([0.0, elapsed])
            monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
            result = check()
            assert (result.number, result.elapsed, result.passed) == (number, elapsed, passes)
