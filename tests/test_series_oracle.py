"""The series, period, sigma and short commands against the benchmark's
references: perfbench/oracles.py rebuilds every expected row without importing
pentafold."""

import ast
import importlib.util
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pentafold.cli import FORMATS, main

ROOT = Path(__file__).resolve().parent.parent
ORACLES = ROOT / "perfbench" / "oracles.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def oracle():
    return load_by_path("perfbench_oracles", ORACLES).Oracle(sigma_limit=300)


@pytest.fixture(scope="module")
def edge_requests():
    """The benchmark's damped requests whose value lies beyond float range."""
    return load_by_path("perfbench_workloads", WORKLOADS).EDGE_REQUESTS


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


@st.composite
def cache_sessions(draw):
    """How the cache is named (--cache, PENTAFOLD_CACHE, or both, when the
    variable wins), then a cold build, a warm read below the rows it holds and
    an extension past them, each as (max, method, format)."""
    cold = draw(st.integers(1, 200))
    tops = (cold, draw(st.integers(1, cold)), draw(st.integers(cold + 1, 300)))
    methods, formats = st.sampled_from(("recurrence", "brute")), st.sampled_from(FORMATS)
    return draw(st.sampled_from(("flag", "env", "both"))), [(top, draw(methods), draw(formats)) for top in tops]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(session=cache_sessions())
@example(session=("env", [(40, "recurrence", "json"), (40, "brute", "csv"), (300, "brute", "table")]))
@example(session=("both", [(1, "brute", "table"), (1, "recurrence", "json"), (2, "recurrence", "csv")]))
def test_drawn_cache_sessions_agree_with_the_reference(oracle, capsys, monkeypatch, tmp_path, session):
    via, steps = session
    with tempfile.TemporaryDirectory(dir=tmp_path) as folder, monkeypatch.context() as patch:
        cache, ignored = Path(folder) / "sigma.csv", Path(folder) / "flag.csv"
        patch.delenv("PENTAFOLD_CACHE", raising=False)
        if via != "flag":
            patch.setenv("PENTAFOLD_CACHE", str(cache))
        flag = [] if via == "env" else ["--cache", str(ignored if via == "both" else cache)]
        for top, method, fmt in steps:
            argv = ["sigma", "--max", str(top), "--method", method, *flag]
            params = {"kind": "sigma", "max": top, "fmt": fmt}
            assert agreement(oracle, capsys, argv, params) is None, argv
        assert len(cache.read_bytes().splitlines()) == steps[-1][0]
        assert not ignored.exists()


@st.composite
def short_commands(draw, edge_requests):
    """(argv, oracle params) for one seq (any mode), sum, abel (at a root or a
    residue class) or beyond-float-range abel request, in a drawn format."""
    kind = draw(st.sampled_from(("seq", "sum", "abel", "edge")))
    if kind == "seq":
        mode = draw(st.sampled_from(("plain", "include-zero", "differences", "interpolated", "is-pentagonal")))
        params = {"kind": "seq", "mode": mode, "count": draw(st.integers(1, 500))}
        if mode == "is-pentagonal":
            params["value"] = draw(st.integers(0, 10**6))
            argv = ["seq", "--is-pentagonal", str(params["value"])]
        else:
            argv = ["seq", "--count", str(params["count"])] + ([] if mode == "plain" else ["--" + mode])
    elif kind == "sum":
        params = {"kind": "sum", "exponent": draw(st.integers(0, 12))}
        argv = ["sum", "--lambda", str(params["exponent"])]
    elif kind == "abel":
        exponent, m, point = draw(st.integers(0, 3)), draw(st.integers(1, 12)), draw(st.sampled_from("ir"))
        index, rho = draw(st.integers(0, m - 1)), draw(st.sampled_from((0.99, 0.999)))
        params = {"kind": "abel", "exponent": exponent, "m": m, point: index, "rho": rho}
        argv = ["abel", "--lambda", str(exponent), "--m", str(m), f"--{point}", str(index), "--rho", repr(rho)]
    else:
        edge = draw(st.sampled_from(edge_requests))
        params = {"kind": "abel", **{key: value for key, value in edge.items() if key != "argv"}}
        argv = ["abel", *edge["argv"]]
    return argv, {**params, "fmt": draw(st.sampled_from(FORMATS))}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_drawn_short_commands_agree_with_the_reference(oracle, edge_requests, capsys, data):
    argv, params = data.draw(short_commands(edge_requests))
    assert agreement(oracle, capsys, argv, params) is None, argv
