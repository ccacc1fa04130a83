"""The series, period and sigma commands against the benchmark's references:
perfbench/oracles.py rebuilds every expected row without importing pentafold."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pentafold.cli import FORMATS, main

ROOT = Path(__file__).resolve().parent.parent
ORACLES = ROOT / "perfbench" / "oracles.py"


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.Oracle(sigma_limit=300)


def imported_packages(path: Path) -> set[str]:
    """The top-level package of every import statement in a source file,
    with a relative import counted as its own package's."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module.split(".")[0] if node.level == 0 else path.parent.name)
    return names


def test_the_references_and_the_program_import_nothing_of_each_other():
    assert "pentafold" not in imported_packages(ORACLES)
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources
    for source in sources:
        assert "perfbench" not in imported_packages(source), source


def agreement(oracle, capsys, argv, params):
    code = main([*argv, "--format", params["fmt"]])
    captured = capsys.readouterr()
    return oracle.check(params, code, captured.out, captured.err)


@pytest.mark.parametrize("fmt", FORMATS)
def test_verify_pnt_agrees_with_the_reference(oracle, capsys, fmt):
    for degree in (0, 1, 2, 5, 26, 137, 400):
        for dump in (False, True):
            argv = ["verify-pnt", "--degree", str(degree)] + (["--dump"] if dump else [])
            params = {"kind": "verify-pnt", "degree": degree, "dump": dump, "fmt": fmt}
            assert agreement(oracle, capsys, argv, params) is None, argv


@pytest.mark.parametrize("fmt", FORMATS)
def test_verify_powersums_agrees_with_the_reference(oracle, capsys, fmt):
    for count in (1, 2, 64, 65, 300):
        argv = ["verify-powersums", "--count", str(count)]
        params = {"kind": "verify-powersums", "count": count, "fmt": fmt}
        assert agreement(oracle, capsys, argv, params) is None, argv


@pytest.mark.parametrize("fmt", FORMATS)
def test_verify_periods_agrees_with_the_reference(oracle, capsys, fmt):
    for max_m in (1, 2, 8, 14, 22, 48):
        for periods in (1, 5):
            argv = ["verify-periods", "--max-m", str(max_m), "--periods", str(periods)]
            params = {"kind": "verify-periods", "max_m": max_m, "periods": periods, "fmt": fmt}
            assert agreement(oracle, capsys, argv, params) is None, argv


# capsys is read empty at each example's end, so sharing it across examples is safe
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(max_m=st.integers(1, 60), periods=st.integers(1, 5), fmt=st.sampled_from(FORMATS))
def test_drawn_verify_periods_agrees_with_the_reference(oracle, capsys, max_m, periods, fmt):
    argv = ["verify-periods", "--max-m", str(max_m), "--periods", str(periods)]
    params = {"kind": "verify-periods", "max_m": max_m, "periods": periods, "fmt": fmt}
    assert agreement(oracle, capsys, argv, params) is None, argv


@pytest.mark.parametrize("method", ["recurrence", "brute"])
@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_sigma_through_a_cache_agrees_with_the_reference(oracle, capsys, monkeypatch, tmp_path, via_env, method):
    cache = tmp_path / "sigma.csv"
    if via_env:
        monkeypatch.setenv("PENTAFOLD_CACHE", str(cache))
    # cold, warm below the rows held, extended past them
    for top, fmt in ((120, "csv"), (45, "table"), (120, "json"), (300, "table"), (299, "csv")):
        argv = ["sigma", "--max", str(top), "--method", method]
        if not via_env:
            argv += ["--cache", str(cache)]
        params = {"kind": "sigma", "max": top, "fmt": fmt}
        assert agreement(oracle, capsys, argv, params) is None, argv
    assert len(cache.read_bytes().splitlines()) == 300
