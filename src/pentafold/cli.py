"""Command-line front end: every verification as a batch command with
machine-readable reports and a 0/1/2 exit-code contract (pass / check failed /
usage error).

Each command handler imports the layers it runs when it runs, so a command
loads only its own modules; the import inside the handler also reads the
module's attribute at call time, never a copy taken at start-up.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from itertools import chain
from typing import Iterable

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


def render(rows: Iterable[tuple], columns: list[str], fmt: str) -> str:
    """Rows, any iterable of tuples in column order, to text: an aligned table,
    headerless CSV, or exactly json.dumps([dict(zip(columns, row)) for row in
    rows], indent=2).  The rows are flattened once into one % over the row
    template repeated per row; a table ending in a text column instead formats
    and strips each row.  CSV fills %s, which calls str on each cell.  For JSON
    and the table each column is a slice of the flat list: a column of exact
    ints (never bool) prints with %d, and any other is made text once
    (encode_basestring_ascii or json.dumps for JSON, str for the table)."""
    width = len(columns)
    flat = [*chain.from_iterable(rows)]
    count = len(flat) // width
    if fmt == "csv":
        return "\n".join([",".join(["%s"] * width)] * count) % tuple(flat)
    kinds = [set(map(type, flat[c::width])) for c in range(width)]
    ints = [kind == {int} for kind in kinds]
    if fmt == "json":
        if not count:
            return "[]"
        import json
        from json.encoder import encode_basestring_ascii as quote

        for c, kind in enumerate(kinds):
            if kind != {int}:
                flat[c::width] = map(quote if kind == {str} else json.dumps, flat[c::width])
        keys = (quote(name).replace("%", "%%") for name in columns)
        fields = ",\n    ".join(key + (": %d" if i else ": %s") for key, i in zip(keys, ints))
        return "[\n" + ",\n".join(["  {\n    " + fields + "\n  }"] * count) % tuple(flat) + "\n]"
    widths = []
    for c, name in enumerate(columns):
        if ints[c]:  # the longest numeral is the largest or the most negative
            column = flat[c::width]
            widths.append(max(len(name), len(str(max(column))), len(str(min(column)))))
        else:
            flat[c::width] = column = list(map(str, flat[c::width]))
            widths.append(max(len(name), max(map(len, column), default=0)))
    head = "  ".join(map(str.ljust, columns, widths)).rstrip()
    if not count:
        return head
    line = "  ".join(f"%-{pad}d" if i else f"%-{pad}s" for pad, i in zip([*widths[:-1], ""], ints))  # last: unpadded
    if ints[-1]:  # every row ends in a digit, never in a blank
        return head + "\n" + "\n".join([line] * count) % tuple(flat)
    return "\n".join([head, *((line % tuple(flat[k : k + width])).rstrip() for k in range(0, len(flat), width))])


def cmd_seq(args) -> tuple[Iterable[tuple], list[str], bool]:
    if args.is_pentagonal is not None:
        hit = is_pentagonal(args.is_pentagonal)
        k, branch = (hit[0], hit[1].value) if hit else ("-", "-")
        row = (args.is_pentagonal, "yes" if hit else "no", k, branch)
        return [row], ["value", "pentagonal", "k", "branch"], True
    if args.differences:
        merged = [0] + [t.value for t in term_stream(args.count)]
        return list(enumerate(differences(merged), start=1)), ["index", "difference"], True
    if args.interpolated:  # str prints a Fraction as n/d, or n when whole
        return list(enumerate(map(str, interpolated_sequence(args.count)), start=1)), ["position", "value"], True
    terms = term_stream(args.count, include_zero=args.include_zero)
    first = 0 if args.include_zero else 1
    rows = [(p, t.k, t.branch.value, t.value, t.sign) for p, t in enumerate(terms, start=first)]
    return rows, ["position", "k", "branch", "value", "sign"], True


def cmd_sigma(args) -> tuple[Iterable[tuple], list[str], bool]:
    """The cached list serves the rows it holds, certified first; a short one
    is certified whole, then built again by --method and written back."""
    from pathlib import Path

    from .sigma import load_table, save_table, sigma_table

    path = os.environ.get(CACHE_ENV_VAR) or args.cache  # the variable overrides the flag
    cache = Path(path) if path else None
    table = load_table(cache, rows=args.max) if cache is not None and cache.exists() else None
    if table is None or len(table) <= args.max:
        table = sigma_table(args.max, args.method)
        if cache is not None:
            save_table(table, cache)
    return zip(range(1, args.max + 1), table[1 : args.max + 1]), ["n", "sigma"], True


def cmd_verify_pnt(args) -> tuple[Iterable[tuple], list[str], bool]:
    from .qseries import euler_product, fold_product, pentagonal_series

    product = euler_product(args.degree)
    sparse = pentagonal_series(args.degree)
    if args.dump:
        return [(d, c) for d, c in enumerate(product) if c], ["degree", "coefficient"], product == sparse
    checks = [
        ("product_vs_sparse_series", product == sparse),
        ("fold_multiply_vs_product", fold_product(args.degree) == product),
    ]
    rows = [(args.degree, name, "PASS" if ok else "FAIL") for name, ok in checks]
    return rows, ["degree", "check", "verdict"], all(ok for _, ok in checks)


def cmd_verify_periods(args) -> tuple[Iterable[tuple], list[str], bool]:
    from .cyclotomic import partial_sum_aggregate, verify_basis_cancellation, verify_period_cancellation

    rows = []
    all_ok = True
    for m in range(1, args.max_m + 1):
        periods = verify_period_cancellation(m, args.periods)  # one stream walk; block 0 feeds the checks below
        aggregate = partial_sum_aggregate(m, periods.block)
        all_ok &= periods.passed
        signed_sum = len(periods.violations)
        basis_sum = max(map(abs, aggregate))
        verdict = "PASS" if periods.passed else "FAIL"
        rows.append((m, "-", len(periods.block), signed_sum, basis_sum, verdict))
        for basis in verify_basis_cancellation(m, periods.block):
            all_ok &= basis.passed
            verdict = "PASS" if basis.passed else "FAIL"
            rows.append((m, basis.residue, basis.period_length, basis.signed_sum, basis.basis_sum, verdict))
    return rows, ["m", "r", "period_length", "signed_sum", "basis_sum", "verdict"], all_ok


def cmd_verify_powersums(args) -> tuple[Iterable[tuple], list[str], bool]:
    from .qseries import elementary_symmetric, euler_product, power_sums
    from .sigma import sigma_table

    series = euler_product(args.count)
    e = elementary_symmetric(series, args.count)
    p = power_sums(series, args.count)
    sigma = sigma_table(args.count, "brute")
    rows = [
        (k, e[k - 1], p[k - 1], sigma[k], "PASS" if p[k - 1] == sigma[k] else "FAIL")
        for k in range(1, args.count + 1)
    ]
    return rows, ["k", "elementary", "power_sum", "divisor_sum", "verdict"], p == sigma[1:]


def cmd_sum(args) -> tuple[Iterable[tuple], list[str], bool]:
    from .summation import pentagonal_power_sum

    split = pentagonal_power_sum(args.exponent)
    row = (args.exponent, str(split.s), str(split.t), str(split.total))
    return [row], ["lambda", "s", "t", "total"], split.total == 0


def cmd_abel(args) -> tuple[Iterable[tuple], list[str], bool]:
    from .summation import abel_decay

    near, far, ok = abel_decay(
        args.exponent, args.m, args.rho, args.baseline, args.tolerance, i=args.i, residue=args.residue
    )
    point = f"i{args.i}" if args.residue is None else f"r{args.residue}"
    row = (args.exponent, args.m, point, args.rho, f"{near:.6e}", "PASS" if ok else "FAIL", f"{far:.6e}")
    return [row], ["lambda", "m", "point", "rho", "abs_value", "verdict", "baseline_abs"], ok


def cmd_report(args) -> tuple[Iterable[tuple], list[str], bool]:
    from .acceptance import run_all

    results = run_all()
    rows = [(res.number, res.name, "PASS" if res.passed else "FAIL", res.detail) for res in results]
    return rows, ["criterion", "name", "verdict", "detail"], all(r.passed for r in results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentafold",
        description="Exact verification of the pentagonal-number identity chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="the signed term stream and its companions")
    p.add_argument("--count", type=POSITIVE, default=12, help="number of entries")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--include-zero", action="store_true", help="lead with the k=0 term")
    mode.add_argument("--differences", action="store_true", help="difference progression of the merged sequence")
    mode.add_argument("--interpolated", action="store_true", help="merged sequence with interpolated fractions")
    mode.add_argument("--is-pentagonal", type=NON_NEGATIVE, metavar="V", help="classify one value instead")

    p = sub.add_parser("sigma", help="divisor-sum table")
    p.add_argument("--max", type=POSITIVE, required=True, help="largest n")
    p.add_argument("--method", choices=("brute", "recurrence"), default="recurrence")
    p.add_argument("--cache", help=f"sigma.csv cache path (env {CACHE_ENV_VAR} overrides)")

    p = sub.add_parser("verify-pnt", help="product expansion vs sparse series")
    p.add_argument("--degree", type=NON_NEGATIVE, default=1000, help="truncation degree")
    p.add_argument("--dump", action="store_true", help="dump nonzero coefficients instead of verdicts")

    p = sub.add_parser("verify-periods", help="period and basis cancellations")
    p.add_argument("--max-m", type=POSITIVE, default=24, help="largest root order")
    p.add_argument("--periods", type=POSITIVE, default=5, help="blocks to check per order")

    p = sub.add_parser("verify-powersums", help="power sums vs divisor sums")
    p.add_argument("--count", type=POSITIVE, default=200, help="largest power-sum index")

    p = sub.add_parser("sum", help="exact branch split of the power series")
    p.add_argument("--lambda", dest="exponent", type=NON_NEGATIVE, required=True, help="power applied to each value")

    p = sub.add_parser("abel", help="damped numeric evaluation near a root")
    p.add_argument("--lambda", dest="exponent", type=NON_NEGATIVE, default=0, help="power applied to each value")
    p.add_argument("--m", type=POSITIVE, required=True, help="root order")
    point = p.add_mutually_exclusive_group()
    point.add_argument("--i", type=NON_NEGATIVE, default=0, help="root index (default 0)")
    point.add_argument("--r", dest="residue", type=NON_NEGATIVE, help="filter to this residue class instead")
    p.add_argument("--rho", type=RADIUS, default=0.99, help="damping radius")
    p.add_argument("--baseline", type=RADIUS, default=0.9, help="radius to compare decay against")
    tolerance = _ranged(float, lambda v: 0 < v / 10 and math.isfinite(v), "positive and finite with a nonzero tenth")
    p.add_argument("--tolerance", type=tolerance, default=1e-9, help="truncation tolerance")
    p.set_defaults(usage_error=p.error)  # --r is checked against --m once both are parsed

    sub.add_parser("report", help="run the full acceptance suite")

    for p in sub.choices.values():  # added last, so --format ends every help text
        p.add_argument("--format", choices=FORMATS, default="table", help="output format")
    return parser


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
        args.usage_error(f"argument --r: must lie in 0..{args.m - 1}, got {args.residue}")
    try:
        rows, columns, passed = HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"pentafold: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # str(MemoryError()) is empty
        print(f"pentafold: {args.command}: not enough memory for this request", file=sys.stderr)
        return 2
    except OverflowError:  # an integer flag past what a float or an index holds
        print(f"pentafold: {args.command}: a number in this request is too large", file=sys.stderr)
        return 2
    if args.command == "sum" and args.format == "table":
        text = "s=%s t=%s total=%s" % rows[0][1:]
    else:
        text = render(rows, columns, args.format)
    try:
        print(text, flush=True)  # a closed pipe fails here, not at interpreter shutdown
    except BrokenPipeError:  # the shutdown flush then writes to os.devnull instead of failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        try:
            print(f"pentafold: {args.command}: output closed before it was all written", file=sys.stderr, flush=True)
        except OSError:  # stderr is closed too
            os.dup2(devnull, sys.stderr.fileno())
        return 2
    return 0 if passed else 1


def run() -> None:
    """Process entry point: exit with main's code, then freeze every tracked object so that the
    interpreter's final collection skips them; no pentafold object needs a __del__ at exit."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
