#!/usr/bin/env python3
"""Substituting roots of unity into the pentagonal series.

Writing an m-th root of unity in place of x reduces every exponent mod m, and
the signed stream then cancels in blocks of 4m terms.  Even the running
partial sums within each residue class -- the basis of the series -- sum to
zero over one period.
"""

from pentafold import period_profile, verify_basis_cancellation, verify_period_cancellation
from pentafold.summation import root_of_unity_fixed


def render_block(m):
    pieces = []
    for sign, residue in period_profile(m):
        power = "1" if residue == 0 else ("a" if residue == 1 else f"a^{residue}")
        pieces.append(("-" if sign < 0 else "+") + power)
    return " ".join(pieces)


print("Fifth roots of unity in trigonometric form:")
for i in range(5):  # each fixed-point part is within 2**-63 of exact
    cos, sin = (part / 2**64 for part in root_of_unity_fixed(5, i, 64))
    print(f"  i={i}:  {cos:+.6f} {sin:+.6f}i")
print()

for m in (2, 3, 5):
    print(f"One 4m-term block for m={m} (a stands for the chosen root):")
    print("  " + render_block(m))
    image = [0] * m  # at the root a itself, the term at residue r lands on a^r
    for sign, residue in period_profile(m):
        image[residue] += sign
    print(f"  exact sum of the block as coordinates on a^0..a^{m-1}: {tuple(image)}")
    print()

print("Blocks keep cancelling and keep repeating (5 blocks each, m <= 24):")
all_pass = all(verify_period_cancellation(m, 5).passed for m in range(1, 25))
print(f"  all per-residue sums zero, all profiles repeat: {all_pass}")
print()

print("Residue classes mod 5 (classes 3 and 4 never occur):")
for report in verify_basis_cancellation(5, period_profile(5)):
    signs = (report.signs * 8)[:8]
    rendered = " ".join("+1" if s > 0 else "-1" for s in signs) if signs else "(empty)"
    print(f"  r={report.residue}: signs {rendered}")
    print(f"        period {report.period_length}, partial sums {list(report.partial_sums)},"
          f" sum {report.signed_sum}, basis sum {report.basis_sum}")
