"""The series, period, sigma and short commands against the benchmark's
references: perfbench/oracles.py rebuilds every expected row without importing
pentafold."""

import ast
import importlib.util
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pentafold import acceptance, sigma_table
from pentafold.cli import FORMATS, HANDLERS, main

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


@pytest.mark.parametrize("fmt", FORMATS)
def test_report_agrees_with_the_reference(oracle, capsys, fmt):
    assert agreement(oracle, capsys, ["report"], {"kind": "report", "fmt": fmt}) is None


def test_the_reference_flags_a_report_row_that_fails(oracle, capsys, monkeypatch):
    def recurrence_with_fault(max_n, method="recurrence"):
        table = sigma_table(max_n, method)
        if method == "recurrence":
            table[9973] += 1
        return table

    monkeypatch.setattr(acceptance, "sigma_table", recurrence_with_fault)
    disagreement = agreement(oracle, capsys, ["report"], {"kind": "report", "fmt": "csv"})
    assert disagreement is not None and disagreement.wrong_result
    assert "'3'" in disagreement.reason


# (command, flag, least value accepted) for every integer flag
INTEGER_FLAGS = [
    ("seq", "--count", 1), ("sigma", "--max", 1), ("verify-pnt", "--degree", 0),
    ("verify-periods", "--max-m", 1), ("verify-periods", "--periods", 1), ("verify-powersums", "--count", 1),
    ("sum", "--lambda", 0), ("abel", "--lambda", 0), ("abel", "--m", 1), ("abel", "--i", 0), ("abel", "--r", 0),
    ("seq", "--is-pentagonal", 0),
]
RADIUS_FLAGS = ["--rho", "--baseline"]
REQUIRED = {"sigma": ["--max", "7"], "sum": ["--lambda", "1"], "abel": ["--m", "3"]}
EXCLUSIVE = {
    "seq": [["--differences"], ["--interpolated"], ["--is-pentagonal", "5"]],
    "abel": [["--i", "1"], ["--r", "0"]],
}
USAGE_LINE = re.compile(r"pentafold[a-z -]*: error: \S.*")


def with_required(command: str, flag: str, value: str) -> list[str]:
    """argv for one command with `flag` set to `value`, every other required flag given."""
    others = REQUIRED.get(command, [])
    return [command, *([] if flag in others else others), f"{flag}={value}"]


@st.composite
def usage_errors(draw):
    """argv for one request that argparse or main must refuse: an unknown
    command, a missing required flag, a value that is not a number, a number
    out of range, --r >= m, mutually exclusive flags, or a bad --format."""
    kind = draw(st.sampled_from(("command", "missing", "not-a-number", "range", "residue", "exclusive", "format")))
    if kind == "command":
        return [draw(st.from_regex(r"[a-z][a-z-]{0,15}", fullmatch=True).filter(lambda c: c not in HANDLERS))]
    if kind == "missing":
        return [draw(st.sampled_from(sorted(REQUIRED)))]
    if kind == "not-a-number":
        command, flag, _ = draw(st.sampled_from(INTEGER_FLAGS + [("abel", flag, None) for flag in RADIUS_FLAGS]))
        return with_required(command, flag, draw(st.from_regex(r"[a-z.]{1,8}", fullmatch=True)))
    if kind == "range":
        if draw(st.booleans()):
            command, flag, least = draw(st.sampled_from(INTEGER_FLAGS))
            return with_required(command, flag, str(draw(st.integers(-(10**6), least - 1))))
        radius = draw(st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0)))
        return with_required("abel", draw(st.sampled_from(RADIUS_FLAGS)), repr(radius))
    if kind == "residue":
        m = draw(st.integers(1, 50))
        return ["abel", "--m", str(m), "--r", str(draw(st.integers(m, m + 50)))]
    if kind == "exclusive":
        command = draw(st.sampled_from(sorted(EXCLUSIVE)))
        first, second = draw(st.permutations(EXCLUSIVE[command]))[:2]
        return [command, *REQUIRED.get(command, []), *first, *second]
    command = draw(st.sampled_from(sorted(HANDLERS)))
    fmt = draw(st.from_regex(r"[a-z]{0,8}", fullmatch=True).filter(lambda f: f not in FORMATS))
    return [command, *REQUIRED.get(command, []), "--format", fmt]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=usage_errors())
def test_drawn_usage_errors_exit_two_with_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2, argv
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert USAGE_LINE.fullmatch(captured.err.splitlines()[-1]), (argv, captured.err)
