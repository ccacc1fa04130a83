"""CLI behavior: pinned outputs, formats, cache handling, exit codes."""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentafold import save_table, sigma_table
from pentafold.cli import main


GOLDEN = Path(__file__).parent / "golden"


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


def test_verify_pnt(capsys):
    code, out = run_cli(capsys, "verify-pnt", "--degree", "60", "--format", "csv")
    assert "60,product_vs_sparse_series,PASS" in out
    assert "60,fold_multiply_vs_product,PASS" in out
    assert code == 0


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
    ],
)
def test_csv_output_matches_golden(capsys, name, argv):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert out == (GOLDEN / name).read_text(encoding="ascii")
    assert code == 0


def test_abel_beyond_float_range_is_a_usage_error(capsys):
    code = main(["abel", "--lambda", "120", "--m", "2", "--rho", "0.9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("pentafold: ") and captured.err.count("\n") == 1
    assert "float range" in captured.err


def test_nan_tolerance_is_a_usage_error(capsys):
    code = main(["abel", "--m", "2", "--i", "1", "--lambda", "1", "--tolerance", "nan"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "pentafold: tolerance must be positive, got nan\n"


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
