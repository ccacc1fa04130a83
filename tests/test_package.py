"""The package surface under lazy loading, and the start-up contract: a command
imports only the modules it runs."""

import ast
import copy
import importlib
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pentafold
from pentafold import PentagonalTerm, PeriodCancellationReport

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = {
    "pentagonal": [
        "Branch", "PentagonalTerm", "differences", "interpolated_sequence", "is_pentagonal",
        "iter_terms", "pentagonal", "term_stream",
    ],
    "sigma": [
        "first_wrong_sigma", "load_table", "recurrence_terms", "save_table", "sigma_brute",
        "sigma_recurrence", "sigma_table",
    ],
    "qseries": [
        "elementary_symmetric", "euler_product", "fold_product", "pentagonal_series",
        "power_sums",
    ],
    "cyclotomic": [
        "BasisCancellationReport", "PeriodCancellationReport", "partial_sum_aggregate",
        "period_profile", "verify_basis_cancellation", "verify_period_cancellation",
    ],
    "summation": [
        "HARD_EXPONENT_CAP", "NonPolynomialSequenceError", "PowerSumSplit",
        "TruncationInfeasibleError", "abel_decay", "abel_evaluate", "difference_table",
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


def test_both_ways_of_starting_pentafold_enter_through_run():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["scripts"] == {"pentafold": "pentafold.cli:run"}
    tree = ast.parse((SRC / "pentafold" / "__main__.py").read_text(encoding="utf-8"))
    calls = [node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert calls == ["run"]


def test_seq_loads_only_the_pentagonal_layer():
    loaded = imported("-m", "pentafold", "seq", "--count", "5")
    ours = {name for name in loaded if name.split(".")[0] == "pentafold"}
    assert ours <= {"pentafold", "pentafold.pentagonal", "pentafold.cli", "pentafold.__main__"}
    assert "pentafold.pentagonal" in ours


def test_brute_sigma_csv_loads_neither_json_nor_the_series_layer():
    loaded = imported("-m", "pentafold", "sigma", "--max", "5", "--method", "brute", "--format", "csv")
    assert "pentafold.sigma" in loaded
    assert loaded & {"json", "pentafold.qseries"} == set()


# The README's start-up table: the layers each command loads besides the
# package, pentagonal and cli.
START_UP_TABLE = {
    "seq": (["seq", "--count", "5"], []),
    "sigma-brute": (["sigma", "--max", "30", "--method", "brute"], ["sigma"]),
    "sigma-recurrence": (["sigma", "--max", "30"], ["sigma", "qseries"]),
    "verify-pnt": (["verify-pnt", "--degree", "30"], ["qseries"]),
    "verify-periods": (["verify-periods", "--max-m", "3"], ["cyclotomic"]),
    "verify-powersums": (["verify-powersums", "--count", "5"], ["qseries", "sigma"]),
    "sum": (["sum", "--lambda", "2"], ["summation"]),
    "abel-i": (["abel", "--lambda", "1", "--m", "3", "--i", "1"], ["summation"]),
    "abel-r": (["abel", "--lambda", "1", "--m", "3", "--r", "1"], ["summation"]),
    "report": (["report"], ["sigma", "qseries", "cyclotomic", "summation", "acceptance"]),
}


@pytest.mark.parametrize("argv, layers", START_UP_TABLE.values(), ids=START_UP_TABLE)
def test_each_command_loads_exactly_its_start_up_row(argv, layers):
    loaded = imported("-m", "pentafold", *argv)
    ours = {name for name in loaded if name.split(".")[0] == "pentafold"}
    assert ours == {"pentafold", "pentafold.pentagonal", "pentafold.cli", *(f"pentafold.{n}" for n in layers)}


def test_no_module_takes_a_root_from_cos_sin_or_cmath():
    """root_of_unity_fixed is the one root formula: no source file reaches
    math.cos or math.sin, or imports cmath."""
    trig = {"cos", "sin"}
    sources = sorted((SRC / "pentafold").glob("*.py"))
    assert sources
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "cmath" not in {alias.name for alias in node.names}, source
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "cmath", source
                assert node.module != "math" or not trig & {alias.name for alias in node.names}, source
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert node.value.id != "math" or node.attr not in trig, (source, node.attr)



def test_no_public_function_of_a_layer_is_cached():
    """A per-layer counter wraps only plain functions, so a public lru_cache
    wrapper would drop out of it unseen: every cache sits behind a private
    name, called by a public function the counters do see."""
    layers = ["pentagonal", "sigma", "qseries", "cyclotomic", "summation", "acceptance", "cli"]
    for layer in layers:
        module = importlib.import_module(f"pentafold.{layer}")
        public = {name: obj for name, obj in vars(module).items() if not name.startswith("_")}
        cached = [name for name, obj in public.items() if hasattr(obj, "cache_info")]
        assert cached == [], (layer, cached)

def benchmarked_functions() -> set[str]:
    """"<layer>.<function>" for every hook of perfbench/tracing.py and every
    per-function metric BENCHMARK.json declares (.calls, .self_s and the
    cli.cmd_<name>.s command times), read from the files, not imported."""
    root = SRC.parent
    tree = ast.parse((root / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    (hooks,) = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and [getattr(t, "attr", None) for t in node.targets] == ["_hooks"]
    ]
    names = {key.value for key in hooks.keys}
    for metric in json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]:
        found = re.fullmatch(r"(\w+\.\w+)\.(?:calls|self_s)|(cli\.cmd_\w+)\.s", metric["name"])
        if found:
            names.add(found[1] or found[2])
    return names


def test_only_the_known_stale_counters_name_no_public_function():
    """A deletion that strands a benchmark counter fails here; the benchmark
    change that repairs the three known stale names empties the set."""
    names = benchmarked_functions()
    assert {"sigma.sigma_table", "qseries.power_sums", "cli.render", "cli.cmd_report"} <= names
    stale = set()
    for name in names:
        layer, function = name.split(".")
        module = importlib.import_module(f"pentafold.{layer}")
        obj = getattr(module, function, None)
        if function.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
            stale.add(name)
    assert stale == {"qseries.multiply_truncated", "cyclotomic.residue_substream", "cyclotomic.substitute_stream"}


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
    # PUBLIC is the surface exactly: the eager pentagonal names and the lazy
    # ones, module by module, so a name dropped or added anywhere fails here
    eager = {
        name for name, value in vars(pentafold).items()
        if getattr(value, "__module__", None) == "pentafold.pentagonal"
    }
    lazy = {module: set(names) for module, names in pentafold._LAZY.items()}
    assert {module: set(names) for module, names in PUBLIC.items()} == {"pentagonal": eager, **lazy}
    listed = set(dir(pentafold))
    assert {name for names in PUBLIC.values() for name in names} <= listed
    assert set(SUBMODULES) <= listed


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pentafold.no_such_name


def test_records_keep_the_dataclass_repr_equality_and_immutability():
    term = PentagonalTerm(1, pentafold.Branch.PLUS, 2, -1)
    assert repr(term) == "PentagonalTerm(k=1, branch=<Branch.PLUS: 'plus'>, value=2, sign=-1)"
    for make in [
        lambda: PeriodCancellationReport(1, 2, ((1, 0), (-1, 0), (-1, 0), (1, 0)), ()),
    ]:
        assert make() == make() and hash(make()) == hash(make())
        assert copy.deepcopy(make()) == make() == pickle.loads(pickle.dumps(make()))
    for record, field in [
        (term, "k"),
        (PeriodCancellationReport(1, 2, ((1, 0), (-1, 0), (-1, 0), (1, 0)), ()), "violations"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pentafold.recurrence_terms(0, [0]), "recurrence needs n >= 1, got 0"),
        (lambda: pentafold.interpolated_sequence(0), "count must be positive, got 0"),
        (lambda: pentafold.pentagonal_series(-1), "degree cap must be non-negative, got -1"),
        (lambda: pentafold.power_sums((1, -1, -1), 0), "count must be positive, got 0"),
    ],
    ids=["recurrence_terms", "interpolated_sequence", "pentagonal_series", "power_sums"],
)
def test_a_size_below_the_least_is_refused_by_name(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
