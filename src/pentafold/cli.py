"""Command-line front end: every verification as a batch command with
machine-readable reports and a 0/1/2 exit-code contract (pass / check failed /
usage error).

Each command handler imports the layers it runs when it runs, so a command
loads only its own modules; the import inside the handler also reads the
module's attribute at call time, never a copy taken at start-up.
"""

from __future__ import annotations

import argparse
import os
import sys

from .pentagonal import differences, interpolated_sequence, is_pentagonal, term_stream

CACHE_ENV_VAR = "PENTAFOLD_CACHE"
FORMATS = ("table", "csv", "json")


def _ranged(parse, accepts, requirement: str):
    """An argparse type: parse the text, then reject a value outside the flag's
    range as a usage error (exit 2) naming the flag."""

    def check(text: str):
        value = parse(text)
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    check.__name__ = parse.__name__  # keeps argparse's "invalid int value" wording
    return check


POSITIVE = _ranged(int, lambda v: v >= 1, "positive")
NON_NEGATIVE = _ranged(int, lambda v: v >= 0, "non-negative")
RADIUS = _ranged(float, lambda v: 0.0 < v < 1.0, "strictly between 0 and 1")


def render(rows: list[dict], columns: list[str], fmt: str) -> str:
    """Rows to text: aligned table, headerless CSV, or a JSON array."""
    if fmt == "json":
        import json

        return json.dumps(rows, indent=2)
    if fmt == "csv":
        return "\n".join(",".join(str(row[c]) for c in columns) for row in rows)
    widths = {c: max(len(c), *(len(str(row[c])) for row in rows)) if rows else len(c) for c in columns}
    lines = ["  ".join(c.ljust(widths[c]) for c in columns).rstrip()]
    for row in rows:
        lines.append("  ".join(str(row[c]).ljust(widths[c]) for c in columns).rstrip())
    return "\n".join(lines)


def _frac(value) -> str:
    """A Fraction as numerator/denominator, or the bare numerator when whole."""
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def cmd_seq(args) -> tuple[list[dict], list[str], bool]:
    if args.is_pentagonal is not None:
        hit = is_pentagonal(args.is_pentagonal)
        row = {
            "value": args.is_pentagonal,
            "pentagonal": "yes" if hit else "no",
            "k": hit[0] if hit else "-",
            "branch": hit[1].value if hit else "-",
        }
        return [row], ["value", "pentagonal", "k", "branch"], True
    if args.differences:
        merged = [0] + [t.value for t in term_stream(args.count)]
        rows = [{"index": i, "difference": d} for i, d in enumerate(differences(merged), start=1)]
        return rows, ["index", "difference"], True
    if args.interpolated:
        rows = [
            {"position": j, "value": _frac(v)}
            for j, v in enumerate(interpolated_sequence(args.count), start=1)
        ]
        return rows, ["position", "value"], True
    terms = term_stream(args.count, include_zero=args.include_zero)
    first = 0 if args.include_zero else 1
    rows = [
        {"position": p, "k": t.k, "branch": t.branch.value, "value": t.value, "sign": t.sign}
        for p, t in enumerate(terms, start=first)
    ]
    return rows, ["position", "k", "branch", "value", "sign"], True


def cmd_sigma(args) -> tuple[list[dict], list[str], bool]:
    """The cache serves the rows it holds, certified first; a short one is
    extended by the recurrence, or, for --method brute, re-sieved."""
    from pathlib import Path

    from .sigma import extend_table, load_table, save_table, sigma_table

    path = os.environ.get(CACHE_ENV_VAR) or args.cache  # the variable overrides the flag
    cache = Path(path) if path else None
    table = load_table(cache, rows=args.max) if cache is not None and cache.exists() else None
    if table is None or table.max_n < args.max:
        if table is not None and args.method == "recurrence":
            table = extend_table(table, args.max)
        else:
            table = sigma_table(args.max, args.method)
        if cache is not None:
            save_table(table, cache)
    rows = [{"n": n, "sigma": table[n]} for n in range(1, args.max + 1)]
    return rows, ["n", "sigma"], True


def cmd_verify_pnt(args) -> tuple[list[dict], list[str], bool]:
    from .qseries import DenseSeries, euler_product, multiply_truncated, pentagonal_series

    product = euler_product(args.degree)
    sparse = pentagonal_series(args.degree)
    if args.dump:
        rows = [{"degree": d, "coefficient": c} for d, c in product.nonzero()]
        return rows, ["degree", "coefficient"], product == sparse
    folded = DenseSeries((1,))
    for k in range(1, args.degree + 1):
        coeffs = [0] * (k + 1)
        coeffs[0], coeffs[k] = 1, -1
        folded = multiply_truncated(folded, DenseSeries(tuple(coeffs)), args.degree)
    checks = [
        ("product_vs_sparse_series", product == sparse),
        ("fold_multiply_vs_product", folded == product),
    ]
    rows = [
        {"degree": args.degree, "check": name, "verdict": "PASS" if ok else "FAIL"}
        for name, ok in checks
    ]
    return rows, ["degree", "check", "verdict"], all(ok for _, ok in checks)


def cmd_verify_periods(args) -> tuple[list[dict], list[str], bool]:
    from .cyclotomic import (
        partial_sum_aggregate,
        period_profile,
        substitute_profile,
        verify_basis_cancellation,
        verify_period_cancellation,
    )

    rows = []
    all_ok = True
    for m in range(1, args.max_m + 1):
        block = verify_period_cancellation(m, args.periods)  # scans the stream itself
        profile = period_profile(m)  # the first 4m terms, read by every check below
        aggregate = partial_sum_aggregate(m, profile)
        substitution_zero = substitute_profile(m, 1, profile).is_zero
        float_ok = all(abs(substitute_profile(m, i, profile).as_complex()) < 1e-9 for i in range(m))
        ok = block.passed and substitution_zero and float_ok
        all_ok &= ok
        rows.append(
            {
                "m": m,
                "r": "-",
                "period_length": block.block_length,
                "signed_sum": 0 if block.passed else len(block.violations),
                "basis_sum": max(abs(c) for c in aggregate.coords),
                "verdict": "PASS" if ok else "FAIL",
            }
        )
        for r in range(m):
            basis = verify_basis_cancellation(m, r, profile)
            all_ok &= basis.passed
            rows.append(
                {
                    "m": m,
                    "r": r,
                    "period_length": basis.period_length,
                    "signed_sum": basis.signed_sum,
                    "basis_sum": basis.basis_sum,
                    "verdict": "PASS" if basis.passed else "FAIL",
                }
            )
    return rows, ["m", "r", "period_length", "signed_sum", "basis_sum", "verdict"], all_ok


def cmd_verify_powersums(args) -> tuple[list[dict], list[str], bool]:
    from .qseries import elementary_symmetric, euler_product, power_sums
    from .sigma import sigma_brute

    series = euler_product(args.count)
    e = elementary_symmetric(series, args.count)
    p = power_sums(series, args.count)
    rows = []
    all_ok = True
    for k in range(1, args.count + 1):
        expected = sigma_brute(k)
        ok = p[k - 1] == expected
        all_ok &= ok
        rows.append(
            {
                "k": k,
                "elementary": e[k - 1],
                "power_sum": p[k - 1],
                "divisor_sum": expected,
                "verdict": "PASS" if ok else "FAIL",
            }
        )
    return rows, ["k", "elementary", "power_sum", "divisor_sum", "verdict"], all_ok


def cmd_sum(args) -> tuple[list[dict], list[str], bool]:
    from .summation import pentagonal_power_sum

    split = pentagonal_power_sum(args.exponent)
    row = {
        "lambda": args.exponent,
        "s": _frac(split.s),
        "t": _frac(split.t),
        "total": _frac(split.total),
    }
    return [row], ["lambda", "s", "t", "total"], split.total == 0


def cmd_abel(args) -> tuple[list[dict], list[str], bool]:
    from .summation import abel_evaluate, required_exponent_cap, residue_class_abel

    if args.residue is not None:
        point = f"r{args.residue}"
        near = abs(residue_class_abel(args.exponent, args.m, args.residue, args.rho, args.tolerance))
        far = abs(residue_class_abel(args.exponent, args.m, args.residue, args.baseline, args.tolerance))
    else:
        point = f"i{args.i}"
        cap = required_exponent_cap(args.exponent, max(args.rho, args.baseline), args.tolerance)
        near = abs(abel_evaluate(args.exponent, args.m, args.i, args.rho, args.tolerance, exponent_cap=cap))
        far = abs(abel_evaluate(args.exponent, args.m, args.i, args.baseline, args.tolerance, exponent_cap=cap))
    ok = near < far
    row = {
        "lambda": args.exponent,
        "m": args.m,
        "point": point,
        "rho": args.rho,
        "abs_value": f"{near:.6e}",
        "verdict": "PASS" if ok else "FAIL",
        "baseline_abs": f"{far:.6e}",
    }
    return [row], ["lambda", "m", "point", "rho", "abs_value", "verdict", "baseline_abs"], ok


def cmd_report(args) -> tuple[list[dict], list[str], bool]:
    from .acceptance import run_all

    results = run_all()
    rows = [
        {
            "criterion": res.number,
            "name": res.name,
            "verdict": "PASS" if res.passed else "FAIL",
            "detail": res.detail,
        }
        for res in results
    ]
    return rows, ["criterion", "name", "verdict", "detail"], all(r.passed for r in results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentafold",
        description="Exact verification of the pentagonal-number identity chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="table", help="output format")

    p = sub.add_parser("seq", help="the signed term stream and its companions")
    p.add_argument("--count", type=POSITIVE, default=12, help="number of entries")
    p.add_argument("--include-zero", action="store_true", help="lead with the k=0 term")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--differences", action="store_true", help="difference progression of the merged sequence")
    mode.add_argument("--interpolated", action="store_true", help="merged sequence with interpolated fractions")
    mode.add_argument("--is-pentagonal", type=int, metavar="V", help="classify one value instead")
    add_format(p)

    p = sub.add_parser("sigma", help="divisor-sum table")
    p.add_argument("--max", type=POSITIVE, required=True, help="largest n")
    p.add_argument("--method", choices=("brute", "recurrence"), default="recurrence")
    p.add_argument("--cache", help=f"sigma.csv cache path (env {CACHE_ENV_VAR} overrides)")
    add_format(p)

    p = sub.add_parser("verify-pnt", help="product expansion vs sparse series")
    p.add_argument("--degree", type=NON_NEGATIVE, default=1000, help="truncation degree")
    p.add_argument("--dump", action="store_true", help="dump nonzero coefficients instead of verdicts")
    add_format(p)

    p = sub.add_parser("verify-periods", help="period and basis cancellations")
    p.add_argument("--max-m", type=POSITIVE, default=24, help="largest root order")
    p.add_argument("--periods", type=POSITIVE, default=5, help="blocks to check per order")
    add_format(p)

    p = sub.add_parser("verify-powersums", help="power sums vs divisor sums")
    p.add_argument("--count", type=POSITIVE, default=200, help="largest power-sum index")
    add_format(p)

    p = sub.add_parser("sum", help="exact branch split of the power series")
    p.add_argument("--lambda", dest="exponent", type=NON_NEGATIVE, required=True, help="power applied to each value")
    add_format(p)

    p = sub.add_parser("abel", help="damped numeric evaluation near a root")
    p.add_argument("--lambda", dest="exponent", type=NON_NEGATIVE, default=0, help="power applied to each value")
    p.add_argument("--m", type=POSITIVE, required=True, help="root order")
    point = p.add_mutually_exclusive_group()
    point.add_argument("--i", type=NON_NEGATIVE, default=0, help="root index (default 0)")
    point.add_argument("--r", dest="residue", type=NON_NEGATIVE, help="filter to this residue class instead")
    p.add_argument("--rho", type=RADIUS, default=0.99, help="damping radius")
    p.add_argument("--baseline", type=RADIUS, default=0.9, help="radius to compare decay against")
    p.add_argument("--tolerance", type=float, default=1e-9, help="truncation tolerance")
    add_format(p)

    p = sub.add_parser("report", help="run the full acceptance suite")
    add_format(p)

    return parser


def _infeasible_truncation() -> type:
    """The summation error that is a usage error too.  An except clause
    evaluates its classes only once something is raised, so a command that
    never reaches summation does not import it for this."""
    from .summation import TruncationInfeasibleError

    return TruncationInfeasibleError


HANDLERS = {
    "seq": cmd_seq,
    "sigma": cmd_sigma,
    "verify-pnt": cmd_verify_pnt,
    "verify-periods": cmd_verify_periods,
    "verify-powersums": cmd_verify_powersums,
    "sum": cmd_sum,
    "abel": cmd_abel,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "abel" and args.residue is not None and args.residue >= args.m:
        parser.error("--r must lie in 0..m-1")
    try:
        rows, columns, passed = HANDLERS[args.command](args)
    except (ValueError, OSError, _infeasible_truncation()) as exc:
        print(f"pentafold: {exc}", file=sys.stderr)
        return 2
    if args.command == "sum" and args.format == "table":
        row = rows[0]
        print(f"s={row['s']} t={row['t']} total={row['total']}")
    else:
        print(render(rows, columns, args.format))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
