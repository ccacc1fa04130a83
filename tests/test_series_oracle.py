"""The series commands against the benchmark's references: perfbench/oracles.py
rebuilds every expected row without importing pentafold."""

import importlib.util
import sys
from pathlib import Path

import pytest

from pentafold.cli import FORMATS, main

ORACLES = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.Oracle(sigma_limit=300)


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
