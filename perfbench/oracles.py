"""Reference answers for every command the benchmark sends, computed without
importing pentafold, and the checks that compare a command's exit code and
output against them.

Each check returns None when the command agrees with its reference, or a
Disagreement.  A disagreement is a *wrong result* when the command printed a
result (exit 0 or 1 with rows) that contradicts the reference; a crash, a
missing result or a wrong exit code alone is a failure but not a wrong result.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

FLOAT_MAX = Decimal("1.7976931348623157e308")
EPSILON = 2.0**-53

# The printed damped values keep 7 significant digits (format ".6e"), so
# printing alone moves a value by up to half a unit in its 7th digit.
PRINT_ROUNDING = 5e-7

# Slack on top of --tolerance for a damped value: printing rounds it by up to
# PRINT_ROUNDING * |value|, and summing n float terms whose magnitudes add up
# to S moves the sum by at most about n * EPSILON * S (recursive summation),
# plus a few roundings per term for the power, the damping and the root.
ROUNDINGS_PER_TERM = 16

COLUMNS = {
    "seq": ["position", "k", "branch", "value", "sign"],
    "seq-differences": ["index", "difference"],
    "seq-interpolated": ["position", "value"],
    "seq-is-pentagonal": ["value", "pentagonal", "k", "branch"],
    "sigma": ["n", "sigma"],
    "verify-pnt": ["degree", "check", "verdict"],
    "verify-pnt-dump": ["degree", "coefficient"],
    "verify-periods": ["m", "r", "period_length", "signed_sum", "basis_sum", "verdict"],
    "verify-powersums": ["k", "elementary", "power_sum", "divisor_sum", "verdict"],
    "sum": ["lambda", "s", "t", "total"],
    "abel": ["lambda", "m", "point", "rho", "abs_value", "verdict", "baseline_abs"],
    "report": ["criterion", "name", "verdict", "detail"],
}


@dataclass(frozen=True)
class Disagreement:
    reason: str
    wrong_result: bool


# ---------------------------------------------------------------- parsing


def parse_rows(text: str, fmt: str, columns: list[str]) -> list[dict[str, str]] | None:
    """Rows of a table, headerless CSV or JSON report as dicts of strings;
    None when the text does not have that shape."""
    if fmt == "json":
        try:
            data = json.loads(text)
        except ValueError:
            return None
        if not isinstance(data, list) or not all(
            isinstance(row, dict) and list(row) == columns for row in data
        ):
            return None
        return [{c: str(row[c]) for c in columns} for row in data]
    lines = text.splitlines()
    if fmt == "csv":
        rows = []
        for line in lines:
            cells = line.split(",", len(columns) - 1)
            if len(cells) != len(columns):
                return None
            rows.append(dict(zip(columns, cells)))
        return rows
    if not lines:
        return None
    starts = _column_starts(lines[0], columns)
    if starts is None:
        return None
    bounds = list(zip(starts, starts[1:] + [None]))
    return [
        {c: line[a:b].strip() for c, (a, b) in zip(columns, bounds)} for line in lines[1:]
    ]


def _column_starts(header: str, columns: list[str]) -> list[int] | None:
    """Offsets of each column name in an aligned table header."""
    starts, pos = [], 0
    for col in columns:
        idx = header.find(col, pos)
        while idx > 0 and header[idx - 2 : idx] != "  ":
            idx = header.find(col, idx + 1)
        if idx < 0:
            return None
        starts.append(idx)
        pos = idx + len(col)
    return starts


# ---------------------------------------------------------- number theory


def pentagonal_terms():
    """(k, branch, value, sign) for k >= 1 in increasing value order: Euler's
    exponents (3k^2 - k)/2 < (3k^2 + k)/2, both carrying the sign (-1)^k."""
    k = 1
    while True:
        sign = 1 if k % 2 == 0 else -1
        yield k, "minus", k * (3 * k - 1) // 2, sign
        yield k, "plus", k * (3 * k + 1) // 2, sign
        k += 1


def pentagonal_coefficients(degree: int) -> dict[int, int]:
    """Nonzero coefficients of prod(1 - x^k) up to degree, by Euler's theorem."""
    coeffs = {0: 1}
    for _, _, value, sign in pentagonal_terms():
        if value > degree:
            return coeffs
        coeffs[value] = sign


def divisor_sieve(limit: int) -> list[int]:
    """sigma(0..limit) by adding every d to each of its multiples."""
    sigma = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for multiple in range(d, limit + 1, d):
            sigma[multiple] += d
    return sigma


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n from sum_{j<=n} C(n+1, j) B_j = 0; only n >= 2 is used, where the
    sign convention for B_1 does not matter."""
    if n == 0:
        return Fraction(1)
    return -sum(math.comb(n + 1, j) * bernoulli(j) for j in range(n)) / (n + 1)


def eta_at_nonpositive(n: int) -> Fraction:
    """Dirichlet eta at -n: 1/2 at n = 0, else (2^(n+1) - 1) B_(n+1) / (n + 1)."""
    if n == 0:
        return Fraction(1, 2)
    return (2 ** (n + 1) - 1) * bernoulli(n + 1) / (n + 1)


def branch_sum(exponent: int, branch_sign: int) -> Fraction:
    """Abel value of sum_{k>=1} (-1)^k ((3k^2 + branch_sign*k)/2)^exponent:
    expand the power in k and sum each k^n with -eta(-n)."""
    total = Fraction(0)
    for j in range(exponent + 1):
        coeff = Fraction(math.comb(exponent, j) * 3 ** (exponent - j) * branch_sign**j, 2**exponent)
        total -= coeff * eta_at_nonpositive(2 * exponent - j)
    return total


def frac_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


# ------------------------------------------------------- damped reference

_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459230781640628620899")
_PREC = 60


def _cos_sin(angle: Decimal) -> tuple[Decimal, Decimal]:
    """Taylor series for an angle in [0, 2*pi), shifted into [-pi, pi]."""
    if angle > _PI:
        angle -= 2 * _PI
    cos, sin = Decimal(0), Decimal(0)
    term, n = Decimal(1), 0
    limit = Decimal(10) ** -(_PREC + 5)
    while abs(term) > limit or n < 2:
        if n % 2 == 0:
            cos += term if n % 4 == 0 else -term
        else:
            sin += term if n % 4 == 1 else -term
        n += 1
        term = term * angle / n
    return cos, sin


@lru_cache(maxsize=None)
def _roots(m: int) -> tuple[tuple[Decimal, Decimal], ...]:
    with localcontext() as ctx:
        ctx.prec = _PREC
        return tuple(_cos_sin(2 * _PI * j / m) for j in range(m))


@dataclass(frozen=True)
class Damped:
    """A damped series value: its modulus, the sum S of its terms' magnitudes
    over the whole stream, and how many terms were summed."""

    modulus: Decimal
    magnitude_sum: Decimal
    terms: int

    def allowance(self) -> float:
        if self.magnitude_sum > FLOAT_MAX:
            return math.inf
        rounding = (self.terms + ROUNDINGS_PER_TERM) * EPSILON * float(self.magnitude_sum)
        return PRINT_ROUNDING * float(self.modulus) + rounding


@lru_cache(maxsize=None)
def damped_value(exponent: int, m: int, rho: float, i: int | None, residue: int | None) -> Damped:
    """The infinite damped series sum sign * value^exponent * rho^value * w(value)
    in 60-digit decimal arithmetic, with w the i-th root of x^m = 1 raised to
    the value, or for a residue class the indicator value == residue (mod m)
    (the k = 0 constant, 1 at exponent 0, included).  Summation runs past the
    largest term until the remaining terms are below 1e-45 of the total."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        r = Decimal(rho)  # the exact binary value the program computes with
        roots = _roots(m)
        re_part = im_part = Decimal(0)
        magnitude_sum = Decimal(0)
        terms = 0
        if exponent == 0:
            magnitude_sum = Decimal(1)
            if residue in (None, 0):
                re_part = Decimal(1)
        peak = exponent / -math.log(rho)
        cutoff = Decimal("1e-45")
        for _, _, value, sign in pentagonal_terms():
            magnitude = Decimal(value) ** exponent * r**value
            magnitude_sum += magnitude
            terms += 1
            if residue is None:
                c, s = roots[(value * i) % m]
                re_part += sign * magnitude * c
                im_part += sign * magnitude * s
            elif value % m == residue:
                re_part += sign * magnitude
            if value > peak and magnitude < cutoff * magnitude_sum:
                break
        return Damped((re_part * re_part + im_part * im_part).sqrt(), magnitude_sum, terms)


# ----------------------------------------------------------------- checks


def _rows_or_failure(stdout: str, fmt: str, kind: str, rc: int):
    rows = parse_rows(stdout, fmt, COLUMNS[kind])
    if rows is None:
        return None, Disagreement(f"exit {rc}, output is not a {fmt} {kind} report", bool(stdout.strip()))
    return rows, None


def _compare(rows, expected, rc, expected_rc) -> Disagreement | None:
    if rows != expected:
        if len(rows) != len(expected):
            return Disagreement(f"{len(rows)} rows, expected {len(expected)}", True)
        for got, want in zip(rows, expected):
            if got != want:
                return Disagreement(f"row {got} differs from reference {want}", True)
    if rc != expected_rc:
        return Disagreement(f"exit {rc}, expected {expected_rc}", False)
    return None


class Oracle:
    """Checks command outcomes; sized once for the largest sigma it needs."""

    def __init__(self, sigma_limit: int):
        self.sigma = divisor_sieve(sigma_limit)

    def check(self, params: dict, rc: int, stdout: str, stderr: str) -> Disagreement | None:
        kind = params["kind"]
        if kind != "abel" and (rc not in (0, 1) or "Traceback" in stderr):
            first = stderr.strip().splitlines()[-1:] or [""]
            return Disagreement(f"exit {rc}: {first[0][:160]}", False)
        return getattr(self, "_" + kind.replace("-", "_"))(params, rc, stdout, stderr)

    # each _<kind> receives the generator's params; "fmt" is the output format

    def _seq(self, p, rc, out, err):
        count, fmt = p["count"], p["fmt"]
        terms = pentagonal_terms()
        if p["mode"] == "differences":
            values = [0] + [next(terms)[2] for _ in range(count)]
            expected = [
                {"index": str(i), "difference": str(b - a)}
                for i, (a, b) in enumerate(zip(values, values[1:]), start=1)
            ]
            kind = "seq-differences"
        elif p["mode"] == "interpolated":
            # the merged sequence with interpolations is T(j + 1) / 3 for triangular T
            expected = [
                {"position": str(j), "value": frac_text(Fraction((j + 1) * (j + 2), 6))}
                for j in range(1, count + 1)
            ]
            kind = "seq-interpolated"
        elif p["mode"] == "is-pentagonal":
            value = p["value"]
            found = {0: (0, "minus")}
            for k, branch, v, _ in terms:
                if v > value:
                    break
                found[v] = (k, branch)
            hit = found.get(value)
            expected = [{
                "value": str(value),
                "pentagonal": "yes" if hit else "no",
                "k": str(hit[0]) if hit else "-",
                "branch": hit[1] if hit else "-",
            }]
            kind = "seq-is-pentagonal"
        else:
            zero = p["mode"] == "include-zero"
            listed = [(0, "minus", 0, 1)] if zero else []
            while len(listed) < count:
                listed.append(next(terms))
            expected = [
                {"position": str(pos), "k": str(k), "branch": b, "value": str(v), "sign": str(s)}
                for pos, (k, b, v, s) in enumerate(listed, start=0 if zero else 1)
            ]
            kind = "seq"
        rows, failure = _rows_or_failure(out, fmt, kind, rc)
        return failure or _compare(rows, expected, rc, 0)

    def _sigma(self, p, rc, out, err):
        rows, failure = _rows_or_failure(out, p["fmt"], "sigma", rc)
        if failure:
            return failure
        expected = [{"n": str(n), "sigma": str(self.sigma[n])} for n in range(1, p["max"] + 1)]
        return _compare(rows, expected, rc, 0)

    def _verify_pnt(self, p, rc, out, err):
        degree = p["degree"]
        if p["dump"]:
            rows, failure = _rows_or_failure(out, p["fmt"], "verify-pnt-dump", rc)
            expected = [
                {"degree": str(d), "coefficient": str(c)}
                for d, c in sorted(pentagonal_coefficients(degree).items())
            ]
        else:
            rows, failure = _rows_or_failure(out, p["fmt"], "verify-pnt", rc)
            expected = [
                {"degree": str(degree), "check": check, "verdict": "PASS"}
                for check in ("product_vs_sparse_series", "fold_multiply_vs_product")
            ]
        return failure or _compare(rows, expected, rc, 0)

    def _verify_powersums(self, p, rc, out, err):
        rows, failure = _rows_or_failure(out, p["fmt"], "verify-powersums", rc)
        if failure:
            return failure
        coeffs = pentagonal_coefficients(p["count"])
        expected = [
            {
                "k": str(k),
                "elementary": str((-1) ** k * coeffs.get(k, 0)),
                "power_sum": str(self.sigma[k]),
                "divisor_sum": str(self.sigma[k]),
                "verdict": "PASS",
            }
            for k in range(1, p["count"] + 1)
        ]
        return _compare(rows, expected, rc, 0)

    def _verify_periods(self, p, rc, out, err):
        rows, failure = _rows_or_failure(out, p["fmt"], "verify-periods", rc)
        if failure:
            return failure
        expected = []
        for m in range(1, p["max_m"] + 1):
            expected.extend(period_rows(m, p["periods"]))
        all_pass = all(row["verdict"] == "PASS" for row in expected)
        return _compare(rows, expected, rc, 0 if all_pass else 1)

    def _sum(self, p, rc, out, err):
        exponent = p["exponent"]
        s, t = branch_sum(exponent, -1), branch_sum(exponent, 1)
        total = s + t + (1 if exponent == 0 else 0)
        if exponent >= 1 and s < 0:
            s, t = -s, -t
        expected = [{"lambda": str(exponent), "s": frac_text(s), "t": frac_text(t), "total": frac_text(total)}]
        if p["fmt"] == "table":
            match = re.fullmatch(r"s=(\S+) t=(\S+) total=(\S+)", out.strip())
            if not match:
                return Disagreement(f"exit {rc}, output is not an s= t= total= line", False)
            rows = [dict(zip(("lambda", "s", "t", "total"), (str(exponent),) + match.groups()))]
        else:
            rows, failure = _rows_or_failure(out, p["fmt"], "sum", rc)
            if failure:
                return failure
        return _compare(rows, expected, rc, 0 if total == 0 else 1)

    def _report(self, p, rc, out, err):
        rows, failure = _rows_or_failure(out, p["fmt"], "report", rc)
        if failure:
            return failure
        numbers = [row["criterion"] for row in rows]
        if numbers != [str(n) for n in range(1, 12)]:
            return Disagreement(f"criteria {numbers}, expected 1..11", True)
        failing = [row["criterion"] for row in rows if row["verdict"] != "PASS"]
        if failing:
            return Disagreement(f"criteria {failing} do not read PASS", True)
        return None if rc == 0 else Disagreement(f"exit {rc}, expected 0", False)

    def _abel(self, p, rc, out, err):
        exponent, m, rho, baseline, tol = p["exponent"], p["m"], p["rho"], 0.9, 1e-9
        point = (p.get("i"), p.get("r"))
        near = damped_value(exponent, m, rho, *point)
        far = damped_value(exponent, m, baseline, *point)
        if max(near.modulus, far.modulus) > FLOAT_MAX:
            # beyond float range: the only right answer is a usage-style error
            lines = err.strip().splitlines()
            if rc == 2 and not out.strip() and len(lines) == 1 and "Traceback" not in err:
                return None
            if out.strip() and rc in (0, 1):
                return Disagreement("printed a value for a result beyond float range", True)
            summary = lines[-1][:160] if lines else ""
            return Disagreement(
                f"value beyond float range: expected exit 2 with one line, got exit {rc} "
                f"and {len(lines)} stderr lines ({summary})",
                False,
            )
        if rc not in (0, 1) or "Traceback" in err:
            first = err.strip().splitlines()[-1:] or [""]
            return Disagreement(f"exit {rc}: {first[0][:160]}", False)
        rows, failure = _rows_or_failure(out, p["fmt"], "abel", rc)
        if failure:
            return failure
        if len(rows) != 1:
            return Disagreement(f"{len(rows)} rows, expected 1", True)
        row = rows[0]
        label = f"i{point[0]}" if point[1] is None else f"r{point[1]}"
        head = {"lambda": str(exponent), "m": str(m), "point": label, "rho": repr(rho)}
        if {c: row[c] for c in head} != head:
            return Disagreement(f"row {row} does not echo {head}", True)
        try:
            got_near, got_far = float(row["abs_value"]), float(row["baseline_abs"])
        except ValueError:
            return Disagreement(f"row {row} has non-numeric values", True)
        for got, ref, name in ((got_near, near, "abs_value"), (got_far, far, "baseline_abs")):
            slack = tol + ref.allowance()
            if not abs(got - float(ref.modulus)) <= slack:
                return Disagreement(
                    f"{name} {got!r} is {abs(got - float(ref.modulus)):.3e} from the reference "
                    f"{float(ref.modulus):.9e}, over tolerance plus allowance {slack:.3e}",
                    True,
                )
        ambiguous = abs(near.modulus - far.modulus) <= 2 * tol + near.allowance() + far.allowance()
        expect_pass = near.modulus < far.modulus
        verdict = row["verdict"]
        if verdict not in ("PASS", "FAIL") or (not ambiguous and (verdict == "PASS") != expect_pass):
            return Disagreement(f"verdict {verdict}, reference says near < far is {expect_pass}", True)
        expected_rc = 0 if verdict == "PASS" else 1
        return None if rc == expected_rc else Disagreement(f"exit {rc} with verdict {verdict}", False)


def period_rows(m: int, periods: int) -> list[dict[str, str]]:
    """Expected verify-periods rows for one order m, from the (sign, value mod m)
    profile of the stream with the constant term at position 0."""
    length = 4 * m
    terms = pentagonal_terms()
    profile = [(1, 0)] + [(s, v % m) for _, _, v, s in (next(terms) for _ in range(length * periods - 1))]
    blocks = [profile[j * length : (j + 1) * length] for j in range(periods)]
    cancels = all(
        sum(s for s, res in block if res == r) == 0 for block in blocks for r in range(m)
    ) and all(block == blocks[0] for block in blocks)
    running, aggregate = [0] * m, [0] * m
    for sign, res in blocks[0]:
        running[res] += sign
        for r in range(m):
            aggregate[r] += running[r]
    rows = [{
        "m": str(m), "r": "-", "period_length": str(length),
        "signed_sum": "0", "basis_sum": str(max(abs(c) for c in aggregate)),
        "verdict": "PASS" if cancels else "FAIL",
    }]
    window_source = blocks[0] * 3
    for r in range(m):
        window = [s for s, res in window_source if res == r]
        per_block = len(window) // 3
        period = 0
        if per_block:
            period = next(
                (c for c in range(1, per_block + 1)
                 if all(window[q] == window[q - c] for q in range(c, len(window)))),
                per_block,
            )
        signs = window[:period]
        partial = [sum(signs[: q + 1]) for q in range(period)]
        signed, basis = sum(signs), sum(partial)
        rows.append({
            "m": str(m), "r": str(r), "period_length": str(period),
            "signed_sum": str(signed), "basis_sum": str(basis),
            "verdict": "PASS" if signed == 0 and basis == 0 else "FAIL",
        })
    return rows
