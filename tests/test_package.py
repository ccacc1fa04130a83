"""The package surface under lazy loading, and the start-up contract: a command
imports only the modules it runs."""

import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import pentafold
from pentafold import CycVec, DenseSeries, PentagonalTerm, PeriodCancellationReport

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = {
    "pentagonal": [
        "Branch", "PentagonalTerm", "differences", "interpolated_sequence", "is_pentagonal",
        "iter_terms", "pentagonal", "term_stream",
    ],
    "sigma": [
        "SigmaTable", "load_table", "recurrence_terms", "save_table", "sigma_brute",
        "sigma_recurrence", "sigma_table",
    ],
    "qseries": [
        "DenseSeries", "elementary_symmetric", "euler_product", "multiply_truncated",
        "pentagonal_series", "power_sums",
    ],
    "cyclotomic": [
        "BasisCancellationReport", "CycVec", "PeriodCancellationReport", "partial_sum_aggregate",
        "period_profile", "residue_substream", "root_of_unity", "roots_of_unity",
        "substitute_stream", "verify_basis_cancellation", "verify_period_cancellation",
        "zero_vector",
    ],
    "summation": [
        "HARD_EXPONENT_CAP", "DifferenceTable", "NonPolynomialSequenceError", "PowerSumSplit",
        "TruncationInfeasibleError", "abel_evaluate", "difference_table",
        "euler_sum_alternating", "pentagonal_power_sum", "required_exponent_cap",
        "residue_class_abel",
    ],
}
SUBMODULES = ["acceptance", "cli", "cyclotomic", "qseries", "sigma", "summation"]

# Never loaded by `import pentafold.cli` or `--help`.
HEAVY = {
    "dataclasses", "json", "fractions", "pentafold.acceptance", "pentafold.sigma",
    "pentafold.qseries", "pentafold.cyclotomic", "pentafold.summation",
}


def imported(*args: str) -> set[str]:
    """Modules a fresh interpreter imports running `args`, beyond those a bare
    interpreter start imports, read from CPython's -X importtime report."""

    def modules(argv):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *argv],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
        )
        rows = [line.split("|") for line in proc.stderr.splitlines() if line.startswith("import time:")]
        return {row[2].strip() for row in rows if row[0].split(":")[1].strip().isdigit()}

    return modules(args) - modules(["-c", "pass"])


@pytest.mark.parametrize("args", [["-c", "import pentafold.cli"], ["-m", "pentafold", "--help"]])
def test_start_up_loads_no_layer_and_no_heavy_stdlib(args):
    loaded = imported(*args)
    assert "pentafold.cli" in loaded
    assert loaded & HEAVY == set()


def test_seq_loads_only_the_pentagonal_layer():
    loaded = imported("-m", "pentafold", "seq", "--count", "5")
    ours = {name for name in loaded if name.split(".")[0] == "pentafold"}
    assert ours <= {"pentafold", "pentafold.pentagonal", "pentafold.cli", "pentafold.__main__"}
    assert "pentafold.pentagonal" in ours


def test_submodule_is_an_attribute_of_a_fresh_package():
    code = "import pentafold, pentafold.cli; print(pentafold.acceptance.__name__)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "pentafold.acceptance\n"


def test_every_public_name_is_its_home_module_attribute():
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"pentafold.{module}")
        for name in names:
            assert getattr(pentafold, name) is getattr(home, name), name


def test_pentagonal_stays_the_function_after_every_submodule_loads():
    for name in SUBMODULES:
        assert getattr(pentafold, name) is importlib.import_module(f"pentafold.{name}")
    assert pentafold.pentagonal(2, pentafold.Branch.PLUS) == 7


def test_dir_lists_the_public_surface():
    listed = set(dir(pentafold))
    assert {name for names in PUBLIC.values() for name in names} <= listed
    assert set(SUBMODULES) <= listed


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pentafold.no_such_name


def test_records_keep_the_dataclass_repr_equality_and_immutability():
    term = PentagonalTerm(1, pentafold.Branch.PLUS, 2, -1)
    assert repr(term) == "PentagonalTerm(k=1, branch=<Branch.PLUS: 'plus'>, value=2, sign=-1)"
    assert repr(CycVec(2, (0, 0))) == "CycVec(m=2, coords=(0, 0))"
    assert repr(DenseSeries((1,))) == "DenseSeries(coeffs=(1,))"
    for make in [
        lambda: CycVec(2, (1, -1)),
        lambda: DenseSeries((1, -1)),
        lambda: PeriodCancellationReport(1, 2, 4, ()),
    ]:
        assert make() == make() and hash(make()) == hash(make())
        assert copy.deepcopy(make()) == make() == pickle.loads(pickle.dumps(make()))
    assert CycVec(2, (1, -1)) != CycVec(2, (-1, 1))
    assert DenseSeries((1,)) != (1,)
    for record, field in [
        (term, "k"),
        (CycVec(2, (0, 0)), "m"),
        (DenseSeries((1,)), "coeffs"),
        (PeriodCancellationReport(1, 2, 4, ()), "violations"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
