"""CLI behavior: pinned outputs, formats, cache handling, exit codes."""

import errno
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pentafold import save_table, sigma_table
from pentafold.cli import FORMATS, HANDLERS, build_parser, main, render


GOLDEN = Path(__file__).parent / "golden"
# abel at a root, on a residue class, on a pair whose verdict is FAIL, and on a
# class no stream value reaches (both values 0, so FAIL too); then three roots
# that pin the fixed-point root arithmetic: one off the quarter turns at m = 12,
# one at an odd order, and one at an order with one class per stream value
ABEL_GOLDENS = {
    "root": ["--lambda", "2", "--m", "3", "--i", "1", "--rho", "0.999"],
    "residue": ["--lambda", "1", "--m", "2", "--r", "0", "--rho", "0.99"],
    "fail": ["--lambda", "3", "--m", "1", "--rho", "0.999", "--baseline", "0.99"],
    "empty_class": ["--lambda", "1", "--m", "5", "--r", "3"],
    "root_m12": ["--lambda", "0", "--m", "12", "--i", "5", "--rho", "0.999"],
    "root_m7": ["--lambda", "2", "--m", "7", "--i", "3", "--rho", "0.999"],
    "root_large_m": ["--lambda", "0", "--m", "100000000", "--i", "1", "--rho", "0.999"],
}
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_sum_lambda_two_prints_pinned_line(capsys):
    code, out = run_cli(capsys, "sum", "--lambda", "2")
    assert out.strip() == "s=3/16 t=-3/16 total=0"
    assert code == 0


def test_sum_lambda_one(capsys):
    code, out = run_cli(capsys, "sum", "--lambda", "1")
    assert out.strip() == "s=1/8 t=-1/8 total=0"
    assert code == 0


def test_sum_csv_format(capsys):
    code, out = run_cli(capsys, "sum", "--lambda", "0", "--format", "csv")
    assert out.strip() == "0,-1/2,-1/2,0"
    assert code == 0


def test_sigma_csv_eleven_lines(capsys):
    code, out = run_cli(capsys, "sigma", "--max", "11", "--format", "csv")
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert lines[0] == "1,1"
    assert lines[-1] == "11,12"
    assert code == 0


def test_sigma_json(capsys):
    code, out = run_cli(capsys, "sigma", "--max", "3", "--format", "json")
    assert json.loads(out) == [
        {"n": 1, "sigma": 1},
        {"n": 2, "sigma": 3},
        {"n": 3, "sigma": 4},
    ]
    assert code == 0


def test_sigma_cache_written_and_read(tmp_path, capsys):
    cache = tmp_path / "sigma.csv"
    run_cli(capsys, "sigma", "--max", "9", "--cache", str(cache))
    assert cache.read_text(encoding="ascii").splitlines()[:2] == ["1,1", "2,3"]
    # poison the cache: the certificate must refuse it and leave the file alone
    cache.write_text("1,999\n2,3\n3,4\n", encoding="ascii")
    before = cache.read_bytes()
    code = main(["sigma", "--max", "3", "--cache", str(cache), "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "n=1 holds 999" in captured.err
    assert cache.read_bytes() == before


def test_non_ascii_cache_is_refused_at_its_line(tmp_path, capsys):
    cache = tmp_path / "sigma.csv"
    cache.write_bytes(b"1,1\n2,3\xc3\n")
    code = main(["sigma", "--max", "2", "--cache", str(cache)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"pentafold: {cache}: line 2: ")
    assert cache.read_bytes() == b"1,1\n2,3\xc3\n"


def test_sigma_cache_extends_when_too_short(tmp_path, capsys):
    cache = tmp_path / "sigma.csv"
    cache.write_text("1,1\n", encoding="ascii")
    _, out = run_cli(capsys, "sigma", "--max", "4", "--cache", str(cache), "--format", "csv")
    assert out.strip().splitlines() == ["1,1", "2,3", "3,4", "4,7"]
    assert len(cache.read_text(encoding="ascii").splitlines()) == 4


@pytest.mark.parametrize("method", ["recurrence", "brute"])
@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_extended_cache_matches_a_cold_build(tmp_path, capsys, monkeypatch, via_env, method):
    def sigma(cache, n):
        argv = ["sigma", "--max", str(n), "--method", method, "--format", "json"]
        if via_env:
            monkeypatch.setenv("PENTAFOLD_CACHE", str(cache))
        else:
            argv += ["--cache", str(cache)]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        return out

    cold, short = tmp_path / "cold.csv", tmp_path / "short.csv"
    expected = sigma(cold, 700)
    sigma(short, 250)
    assert sigma(short, 700) == expected
    assert short.read_bytes() == cold.read_bytes()


def test_certificate_covers_served_rows_and_a_table_to_extend(tmp_path, capsys):
    cache = tmp_path / "sigma.csv"
    run_cli(capsys, "sigma", "--max", "12", "--cache", str(cache))
    lines = cache.read_text(encoding="ascii").splitlines()
    lines[8] = "9,14"  # sigma(9) is 13
    cache.write_text("\n".join(lines) + "\n", encoding="ascii")
    before = cache.read_bytes()
    code, out = run_cli(capsys, "sigma", "--max", "8", "--cache", str(cache), "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == "8,15"
    for top in ("12", "20"):
        code = main(["sigma", "--max", top, "--cache", str(cache)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"pentafold: {cache}: record n=9 holds 14, but sigma(9) = 13"]
        assert cache.read_bytes() == before


def test_cache_env_var_overrides_flag(tmp_path, capsys, monkeypatch):
    env_cache = tmp_path / "env.csv"
    flag_cache = tmp_path / "flag.csv"
    monkeypatch.setenv("PENTAFOLD_CACHE", str(env_cache))
    run_cli(capsys, "sigma", "--max", "5", "--cache", str(flag_cache))
    assert env_cache.exists()
    assert not flag_cache.exists()


def test_a_failed_cache_write_names_the_cache(tmp_path, capsys):
    cache = tmp_path / "missing" / "sigma.csv"
    code = main(["sigma", "--max", "5", "--cache", str(cache)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"pentafold: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{cache}'\n"
    assert [*tmp_path.rglob("*")] == []  # no temporary file left anywhere


def test_verify_pnt(capsys):
    code, out = run_cli(capsys, "verify-pnt", "--degree", "60", "--format", "csv")
    assert "60,product_vs_sparse_series,PASS" in out
    assert "60,fold_multiply_vs_product,PASS" in out
    assert code == 0


def test_verify_pnt_fails_when_the_fold_is_wrong(capsys, monkeypatch):
    from pentafold import qseries

    def flipped(degree_cap):
        coeffs = list(fold(degree_cap))
        coeffs[7] = -coeffs[7]
        return tuple(coeffs)

    fold = qseries.fold_product
    monkeypatch.setattr(qseries, "fold_product", flipped)
    code, out = run_cli(capsys, "verify-pnt", "--degree", "60", "--format", "csv")
    assert "60,fold_multiply_vs_product,FAIL" in out
    assert "60,product_vs_sparse_series,PASS" in out
    assert code == 1


@pytest.mark.parametrize("fmt, out", [("csv", "2,3/16,-3/16,1/2\n"), ("table", "s=3/16 t=-3/16 total=1/2\n")])
def test_sum_exits_one_on_a_planted_nonzero_total(capsys, monkeypatch, fmt, out):
    # sum has no verdict column: the exit code is its verdict, and the row
    # shows the total that failed
    from pentafold import summation

    def planted(exponent):
        return split(exponent)._replace(total=Fraction(1, 2))

    split = summation.pentagonal_power_sum
    monkeypatch.setattr(summation, "pentagonal_power_sum", planted)
    assert run_cli(capsys, "sum", "--lambda", "2", "--format", fmt) == (1, out)


def test_verify_powersums_fails_the_row_of_a_planted_power_sum_only(capsys, monkeypatch):
    from pentafold import qseries

    def planted(series, count):
        p = power_sums(series, count)
        p[6] += 1  # p_7
        return p

    power_sums = qseries.power_sums
    monkeypatch.setattr(qseries, "power_sums", planted)
    code, out = run_cli(capsys, "verify-powersums", "--count", "12", "--format", "csv")
    rows = out.splitlines()
    assert code == 1
    assert [row for row in rows if row.endswith("FAIL")] == ["7,-1,9,8,FAIL"]
    assert len(rows) == 12


@pytest.mark.parametrize("periods", ["1", "5"])
def test_verify_periods_fails_on_a_wrong_sign_in_block_zero(capsys, monkeypatch, periods):
    # the sign of x**5 is stream position 3, inside block 0 for every order m;
    # with one period the block's residue sums are the only check that sees it
    from pentafold import cyclotomic

    def flipped():
        for value, sign in stream():
            yield value, -sign if value == 5 else sign

    stream = cyclotomic.iter_signed_values
    monkeypatch.setattr(cyclotomic, "iter_signed_values", flipped)
    code, out = run_cli(
        capsys, "verify-periods", "--max-m", "5", "--periods", periods, "--format", "csv"
    )
    rows = [line.split(",") for line in out.strip().splitlines()]
    order_rows = [row for row in rows if row[1] == "-"]
    assert [row[0] for row in order_rows] == ["1", "2", "3", "4", "5"]
    for row in order_rows:
        assert row[5] == "FAIL"
        assert int(row[3]) > 0
    assert code == 1


def test_verify_periods_pinned_rows(capsys):
    code, out = run_cli(capsys, "verify-periods", "--max-m", "5", "--format", "csv")
    lines = out.strip().splitlines()
    assert "5,0,8,0,0,PASS" in lines
    assert "5,1,4,0,0,PASS" in lines
    assert "5,3,0,0,0,PASS" in lines  # the residue class that never occurs
    assert all(line.endswith("PASS") for line in lines)
    assert code == 0


def test_verify_powersums(capsys):
    code, out = run_cli(capsys, "verify-powersums", "--count", "12", "--format", "csv")
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert lines[0] == "1,1,1,1,PASS"
    assert lines[5] == "6,0,12,12,PASS"
    assert code == 0


def test_seq_default_table(capsys):
    code, out = run_cli(capsys, "seq", "--count", "8", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "1,1,minus,1,-1"
    assert lines[-1] == "8,4,plus,26,1"
    assert code == 0


def test_seq_include_zero(capsys):
    _, out = run_cli(capsys, "seq", "--count", "3", "--include-zero", "--format", "csv")
    assert out.strip().splitlines()[0] == "0,0,minus,0,1"


def test_seq_differences(capsys):
    _, out = run_cli(capsys, "seq", "--count", "9", "--differences", "--format", "csv")
    diffs = [line.split(",")[1] for line in out.strip().splitlines()]
    assert diffs == ["1", "1", "3", "2", "5", "3", "7", "4", "9"]


def test_seq_interpolated(capsys):
    _, out = run_cli(capsys, "seq", "--count", "6", "--interpolated", "--format", "csv")
    values = [line.split(",", 1)[1] for line in out.strip().splitlines()]
    assert values == ["1", "2", "10/3", "5", "7", "28/3"]


def test_seq_is_pentagonal(capsys):
    _, out = run_cli(capsys, "seq", "--is-pentagonal", "26", "--format", "csv")
    assert out.strip() == "26,yes,4,plus"
    _, out = run_cli(capsys, "seq", "--is-pentagonal", "13", "--format", "csv")
    assert out.strip() == "13,no,-,-"


def test_abel_decay_verdict(capsys):
    code, out = run_cli(capsys, "abel", "--lambda", "1", "--m", "2", "--i", "1", "--rho", "0.999")
    assert "PASS" in out
    assert code == 0


def test_abel_residue_filter(capsys):
    code, out = run_cli(
        capsys, "abel", "--lambda", "1", "--m", "2", "--r", "0", "--rho", "0.99", "--format", "csv"
    )
    fields = out.strip().split(",")
    assert fields[:4] == ["1", "2", "r0", "0.99"]
    assert fields[5] == "PASS"
    assert code == 0


def test_verify_pnt_dump_lists_nonzero_coefficients(capsys):
    code, out = run_cli(capsys, "verify-pnt", "--degree", "30", "--dump", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "0,1"
    assert "1,-1" in lines and "5,1" in lines and "26,1" in lines
    assert len(lines) == 9  # degrees 0, 1, 2, 5, 7, 12, 15, 22, 26 and nothing else <= 30
    assert code == 0


@pytest.mark.parametrize(
    "name, argv",
    [
        ("sigma_300.csv", ["sigma", "--max", "300"]),
        ("powersums_80.csv", ["verify-powersums", "--count", "80"]),
        ("periods_12.csv", ["verify-periods", "--max-m", "12"]),
        ("pnt_200_dump.csv", ["verify-pnt", "--degree", "200", "--dump"]),
        *((f"sum_{exponent}.csv", ["sum", "--lambda", str(exponent)]) for exponent in range(4)),
        ("seq_interpolated_40.csv", ["seq", "--count", "40", "--interpolated"]),
        ("report.csv", ["report"]),
        *((f"abel_{point}.csv", ["abel", *flags]) for point, flags in ABEL_GOLDENS.items()),
    ],
)
def test_csv_output_matches_golden(capsys, name, argv):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    golden = (GOLDEN / name).read_text(encoding="ascii")
    assert out == golden
    assert code == (1 if "FAIL" in golden else 0)  # exit 1 exactly when a pinned verdict reads FAIL


def test_abel_beyond_float_range_is_a_usage_error(capsys):
    code = main(["abel", "--lambda", "120", "--m", "2", "--rho", "0.9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("pentafold: ") and captured.err.count("\n") == 1
    assert "float range" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # the benchmark's three edge requests: true values beyond float range
        ["--lambda", "120", "--m", "2", "--rho", "0.9"],
        ["--lambda", "150", "--m", "3", "--i", "1", "--rho", "0.9"],
        ["--lambda", "130", "--m", "4", "--r", "1", "--rho", "0.9"],
        ["--lambda", "10000", "--m", "3"],  # the tail bound needs a cap past 10**6
        ["--lambda", "5000", "--m", "3", "--rho", "0.9"],  # a pass 96,504 fraction bits wide
    ],
)
def test_abel_out_of_range_exits_two_with_one_line(capsys, argv):
    code = main(["abel", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("pentafold: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_abel_refuses_a_modulus_past_float_range_as_a_value(capsys):
    code = main(["abel", "--lambda", "114", "--m", "7", "--i", "1", "--rho", "0.92"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "pentafold: damped sum at rho=0.92 lies beyond float range\n"


def test_abel_class_value_ignores_terms_outside_the_class(capsys):
    # class 1 mod 10**6 holds only v = 1; v = 1426 elsewhere has a term past float range
    code, out = run_cli(
        capsys, "abel", "--lambda", "150", "--m", "1000000", "--r", "1", "--rho", "0.9",
        "--baseline", "0.5", "--format", "csv",
    )
    assert out.strip() == "150,1000000,r1,0.9,9.000000e-01,FAIL,5.000000e-01"
    assert code == 1


def test_abel_near_one_prints_the_exact_value_not_rounding_noise(capsys):
    # over the cap both radii share, the damped sums are 1.922483e-14 at 0.999
    # and -8.6e-58 at 0.99; summing rounded float terms printed 8.394948e-07
    # and 5.562165e-10 instead
    code, out = run_cli(
        capsys, "abel", "--lambda", "3", "--m", "1", "--rho", "0.999", "--baseline", "0.99", "--format", "csv"
    )
    fields = out.strip().split(",")
    assert fields[4] == "1.922483e-14"
    assert float(fields[6]) < 1e-9
    passed = float(fields[4]) < float(fields[6])
    assert (fields[5], code) == (("PASS", 0) if passed else ("FAIL", 1))


TOLERANCE_ERROR = "pentafold abel: error: argument --tolerance: must be positive and finite with a nonzero tenth, got "


def refusal_line(capsys, argv: list[str]) -> str:
    """The last stderr line of a request that argparse must refuse with exit 2 and no stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    return captured.err.splitlines()[-1]


def test_nan_tolerance_is_a_usage_error(capsys):
    argv = ["abel", "--m", "2", "--i", "1", "--lambda", "1", "--tolerance", "nan"]
    assert refusal_line(capsys, argv) == TOLERANCE_ERROR + "nan"


@pytest.mark.parametrize("point", [["--i", "1"], ["--r", "1"]], ids=["root", "residue"])
def test_infinite_tolerance_is_a_usage_error(capsys, point):
    assert refusal_line(capsys, ["abel", "--m", "2", *point, "--tolerance", "inf"]) == TOLERANCE_ERROR + "inf"


def test_tolerance_whose_tenth_underflows_is_a_usage_error(capsys):
    assert refusal_line(capsys, ["abel", "--m", "2", "--tolerance", "5e-324"]) == TOLERANCE_ERROR + "5e-324"
    code, out = run_cli(capsys, "abel", "--m", "2", "--tolerance", "1e-320", "--format", "csv")
    assert (code, out.split(",")[5]) == (0, "PASS")


def test_negative_value_to_classify_is_a_usage_error(capsys):
    line = refusal_line(capsys, ["seq", "--is-pentagonal", "-3"])
    assert line == "pentafold seq: error: argument --is-pentagonal: must be non-negative, got -3"


def test_include_zero_with_another_seq_mode_is_a_usage_error(capsys):
    # --include-zero leads the plain stream only; another mode would ignore it
    line = refusal_line(capsys, ["seq", "--count", "3", "--include-zero", "--interpolated"])
    assert line == "pentafold seq: error: argument --interpolated: not allowed with argument --include-zero"


def test_abel_large_terms_within_float_range(capsys):
    # the largest term is about e**498: finite, though 1272**120 alone is not
    code, out = run_cli(
        capsys, "abel", "--lambda", "120", "--m", "2", "--rho", "0.5", "--baseline", "0.4",
        "--format", "csv",
    )
    assert out.strip() == "120,2,i0,0.5,2.797521e+216,FAIL,6.030811e+201"
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", "--max", "0"],
        ["sum", "--lambda", "-1"],
        ["abel", "--m", "0"],
        ["abel", "--m", "2", "--r", "2"],
        ["abel", "--m", "2", "--rho", "1.5"],
        ["verify-periods", "--max-m", "0"],
        ["no-such-command"],
        ["seq", "--count", "0"],
        ["verify-pnt", "--degree", "-1"],
        ["verify-periods", "--periods", "0"],
        ["verify-powersums", "--count", "0"],
        ["abel", "--m", "2", "--i", "-1"],
        ["abel", "--m", "2", "--r", "-1"],
        ["abel", "--m", "2", "--baseline", "0"],
        ["abel", "--m", "2", "--lambda", "-1"],
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_abel_residue_past_the_order_reports_like_every_abel_flag(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    stderr = {}
    for argv in (["abel", "--m", "0"], ["abel", "--m", "2", "--r", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        stderr[argv[-1]] = capsys.readouterr().err.splitlines()
    first, *_, last = stderr["2"]
    assert first == stderr["0"][0] == "usage: pentafold abel [-h] [--lambda EXPONENT] --m M [--i I | --r RESIDUE]"
    assert last == "pentafold abel: error: argument --r: must lie in 0..1, got 2"


# Run in a child whose address space is capped at 1 GiB, so each request fails
# its first large allocation instead of asking the host for gigabytes.
CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from pentafold.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", "--max", "1000000000"],
        ["verify-pnt", "--degree", "1000000000"],
        ["verify-powersums", "--count", "100000000"],
    ],
)
def test_out_of_memory_exits_two_with_one_line(argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"pentafold: {argv[0]}: not enough memory for this request"]



HUGE = "1" + "0" * 400  # past float range, so no sum, cap or bound reaches a float


@pytest.mark.parametrize(
    "argv",
    [
        ["abel", "--lambda", "100000000000000000000000", "--m", "1"],  # past an index
        ["abel", "--lambda", HUGE, "--m", "1"],
        ["abel", "--lambda", HUGE, "--m", "1", "--r", "0"],
        ["verify-pnt", "--degree", HUGE],
    ],
)
def test_an_oversized_integer_exits_two_with_one_line(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines() == [f"pentafold: {argv[0]}: a number in this request is too large"]

def test_a_closed_pipe_exits_two_with_one_line():
    # about 1.2 MB of csv, far more than a pipe holds, so the write is still
    # under way when the reader goes
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "pentafold", "sigma", "--max", "100000", "--method", "brute", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": path},
    ) as proc:
        assert proc.stdout.readline() == "1,1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err
    assert err.splitlines() == ["pentafold: sigma: output closed before it was all written"]


def run_module(*argv: str, program: tuple[str, ...] = ("-m", "pentafold")) -> subprocess.CompletedProcess:
    """pentafold in a fresh interpreter, as `python -m pentafold` unless program says otherwise."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *program, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}, timeout=120,
    )


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_fresh_process_prints_what_main_prints(capsys, fmt):
    proc = run_module("seq", "--count", "5", "--format", fmt)
    code, out = run_cli(capsys, "seq", "--count", "5", "--format", fmt)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")
    assert code == 0


def test_a_fresh_process_prints_the_help_golden():
    proc = run_module("--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / "help.txt").read_text(encoding="ascii")


def test_a_fresh_process_exits_two_with_argparse_text_on_a_usage_error(capsys):
    proc = run_module("seq", "--count", "0")
    with pytest.raises(SystemExit):
        main(["seq", "--count", "0"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", capsys.readouterr().err)
    assert proc.stderr.endswith("pentafold seq: error: argument --count: must be positive, got 0\n")


# Reports from an atexit handler, which runs after run() has ended, whether it froze anything.
FREEZE_AT_EXIT = """
import atexit, gc, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, file=sys.stderr))
from pentafold.cli import run
run()
"""


@pytest.mark.parametrize("argv, code", [(["seq", "--count", "2"], 0), (["--help"], 0), (["seq", "--count", "0"], 2)])
def test_the_entry_point_freezes_on_every_exit_and_still_runs_atexit(argv, code):
    proc = run_module(*argv, program=("-c", FREEZE_AT_EXIT))
    assert proc.returncode == code
    assert proc.stderr.splitlines()[-1] == "frozen True"


def test_main_in_process_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert main(["seq", "--count", "3"]) == 0
    with pytest.raises(SystemExit):
        main(["--help"])
    assert gc.get_freeze_count() == before


def test_corrupt_cache_is_a_usage_error(tmp_path, capsys):
    cache = tmp_path / "sigma.csv"
    cache.write_text("garbage\n", encoding="ascii")
    code = main(["sigma", "--max", "3", "--cache", str(cache)])
    err = capsys.readouterr().err
    assert code == 2
    assert "pentafold:" in err


def test_infeasible_truncation_is_reported(capsys):
    code = main(["abel", "--m", "1", "--rho", "0.9999999", "--baseline", "0.9999998"])
    err = capsys.readouterr().err
    assert code == 2
    assert "tail bound" in err


def test_identical_config_gives_identical_bytes(capsys):
    _, first = run_cli(capsys, "verify-periods", "--max-m", "6", "--format", "csv")
    _, second = run_cli(capsys, "verify-periods", "--max-m", "6", "--format", "csv")
    assert first == second
    _, third = run_cli(capsys, "abel", "--lambda", "2", "--m", "3", "--i", "2", "--format", "json")
    _, fourth = run_cli(capsys, "abel", "--lambda", "2", "--m", "3", "--i", "2", "--format", "json")
    assert third == fourth


def test_report_runs_all_criteria(capsys):
    code, out = run_cli(capsys, "report", "--format", "csv")
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(",PASS," in line for line in lines)
    assert code == 0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3000),
    method=st.sampled_from(["recurrence", "brute"]),
    cache=st.sampled_from(["absent", "short", "long"]),
    data=st.data(),
)
def test_sigma_json_equals_the_library_table(n, method, cache, data):
    argv = ["sigma", "--max", str(n), "--method", method, "--format", "json"]
    with tempfile.TemporaryDirectory() as tmp:
        if cache != "absent":
            path = Path(tmp) / "sigma.csv"
            held = data.draw(st.integers(0, n - 1) if cache == "short" else st.integers(n, n + 500))
            if held:
                save_table(sigma_table(held), path)
            else:
                path.write_bytes(b"")
            argv += ["--cache", str(path)]
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
    assert code == 0
    table = sigma_table(n, method)
    assert json.loads(out.getvalue()) == [{"n": k, "sigma": table[k]} for k in range(1, n + 1)]


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "--count", "30"],
        ["seq", "--count", "7", "--include-zero"],
        ["seq", "--count", "12", "--differences"],
        ["seq", "--count", "12", "--interpolated"],
        ["seq", "--is-pentagonal", "26"],
        ["seq", "--is-pentagonal", "13"],
        ["sigma", "--max", "40"],
        ["verify-pnt", "--degree", "40"],
        ["verify-pnt", "--degree", "40", "--dump"],
        ["verify-periods", "--max-m", "4"],
        ["verify-powersums", "--count", "20"],
        ["sum", "--lambda", "3"],
        ["abel", "--lambda", "2", "--m", "3", "--i", "1"],
        ["abel", "--lambda", "1", "--m", "2", "--r", "0", "--rho", "0.99"],
        ["report"],
    ],
)
def test_json_render_matches_the_standard_encoder_on_every_command(argv):
    args = build_parser().parse_args(argv)
    rows, columns, _ = HANDLERS[args.command](args)
    rows = list(rows)  # a handler may hand over a one-shot iterator
    assert rows and all(type(row) is tuple and len(row) == len(columns) for row in rows)
    assert render(rows, columns, "json") == json.dumps([dict(zip(columns, r)) for r in rows], indent=2)


SCALARS = st.one_of(
    st.text(),  # non-ASCII, quotes, backslashes and control characters included
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(),  # nan and the infinities included
    st.booleans(),
    st.none(),
)
NAMES = st.one_of(st.text(), st.sampled_from(["%", "%s", "%-4s", "%%", '"', "'", "na\u00efve", "\u03c3(n)", "a,b"]))


@st.composite
def tables(draw):
    """Unique column names and rows of scalars: columns of one type and of
    mixed types, NaN, bools, None and no rows at all all occur."""
    columns = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    kinds = [draw(st.sampled_from([SCALARS, st.integers(), st.text(), st.floats()])) for _ in columns]
    return draw(st.lists(st.tuples(*kinds), max_size=6)), columns


@example(([], ["n"]))
@example(([(1, "%s", float("nan"), True, None)], ["%", '"q"', "\u03c3", "%-4s", "x"]))
@given(tables())
def test_json_render_matches_the_standard_encoder(table):
    rows, columns = table
    assert render(rows, columns, "json") == json.dumps([dict(zip(columns, r)) for r in rows], indent=2)


def dict_render(rows: list[dict], columns: list[str], fmt: str) -> str:
    """The table and CSV renderer over rows as dicts, kept as the reference."""
    if fmt == "csv":
        return "\n".join(",".join(str(row[c]) for c in columns) for row in rows)
    widths = {c: max(len(c), *(len(str(row[c])) for row in rows)) if rows else len(c) for c in columns}
    lines = ["  ".join(c.ljust(widths[c]) for c in columns).rstrip()]
    for row in rows:
        lines.append("  ".join(str(row[c]).ljust(widths[c]) for c in columns).rstrip())
    return "\n".join(lines)


@pytest.mark.parametrize("fmt", ["table", "csv"])
@example(table=([], ["n", "%s"]))
@example(table=([(float("nan"), True), (None, -3), ("%d", "\u00e9 ")], ["%", "\u03c3(n)"]))
@given(table=tables())
def test_table_and_csv_render_match_the_dict_renderer(fmt, table):
    rows, columns = table
    assert render(rows, columns, fmt) == dict_render([dict(zip(columns, r)) for r in rows], columns, fmt)


# Fixed tables past the six rows that tables() draws: a long int table, the
# widest and most negative ints, bools (printed as True/False, never through
# %d), and a last text column with trailing blanks, empty cells and newlines,
# short and at the row counts the text-last commands print.
TEXT_CELLS = ("x ", "", "\n", "b\n c ", " \n ", "a", "\t", "\ue000 ")
LONG_TABLES = {
    "sigma_brute_5000": (list(zip(range(1, 5001), sigma_table(5000, "brute")[1:])), ["n", "sigma"]),
    "int_extremes": ([(-(10**60), 7), (10**60, -3), (0, -12345), (5, 10**60)], ["a", "b"]),
    "bools": ([(True, 1, False), (False, True, True), (True, -2, False)], ["flag", "mixed", "last"]),
    "last_text": ([(1, "ab", "x "), (-22, "a", ""), (3, "", "\n"), (4, "a \n", "b\n c ")], ["n", "mid", "text"]),
    "empty": ([], ["n", "sigma"]),
    "last_text_2500": (
        [(n, TEXT_CELLS[n % 3], TEXT_CELLS[n % len(TEXT_CELLS)]) for n in range(-1250, 1250)], ["n", "mid", "text"]
    ),
}


@pytest.mark.parametrize("feed", [list, iter])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", LONG_TABLES)
def test_render_matches_the_references_on_long_and_edge_tables(case, fmt, feed):
    rows, columns = LONG_TABLES[case]
    dicts = [dict(zip(columns, row)) for row in rows]
    want = json.dumps(dicts, indent=2) if fmt == "json" else dict_render(dicts, columns, fmt)
    assert render(feed(rows), columns, fmt) == want


@pytest.mark.parametrize(
    "name, argv",
    [
        ("sigma_300.json", ["sigma", "--max", "300", "--format", "json"]),
        ("sigma_300.txt", ["sigma", "--max", "300"]),
        ("periods_12.json", ["verify-periods", "--max-m", "12", "--format", "json"]),
        *((f"sum_{exponent}.{ext}", ["sum", "--lambda", str(exponent), "--format", fmt])
          for exponent in range(4) for ext, fmt in (("json", "json"), ("txt", "table"))),
        ("seq_interpolated_40.json", ["seq", "--count", "40", "--interpolated", "--format", "json"]),
        ("seq_interpolated_40.txt", ["seq", "--count", "40", "--interpolated"]),
        ("report.json", ["report", "--format", "json"]),
        ("report.txt", ["report"]),
        ("powersums_80.json", ["verify-powersums", "--count", "80", "--format", "json"]),
        ("powersums_80.txt", ["verify-powersums", "--count", "80"]),
        *((f"abel_{point}.{ext}", ["abel", *flags, "--format", fmt])
          for point, flags in ABEL_GOLDENS.items() for ext, fmt in (("json", "json"), ("txt", "table"))),
        ("periods_12.txt", ["verify-periods", "--max-m", "12"]),
    ],
)
def test_json_and_table_output_match_golden(capsys, name, argv):
    code, out = run_cli(capsys, *argv)
    golden = (GOLDEN / name).read_text(encoding="ascii")
    assert out == golden
    assert code == (1 if "FAIL" in golden else 0)


@pytest.mark.parametrize("command", [None, *HANDLERS])
def test_help_text_matches_golden(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    name = "help" if command is None else f"help_{command.replace('-', '_')}"
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text(encoding="ascii")
