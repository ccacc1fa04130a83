#!/usr/bin/env python3
"""Exact values for alternating divergent series by difference tables.

An alternating series whose terms are eventually polynomial gets the finite
value sum((-1)^d * lead_d / 2^(d+1)) from the leading entries of its forward
difference rows.  Splitting the signed pentagonal power stream into its two
branches, each branch is exactly such a series -- and the split always
cancels.
"""

from pentafold import (
    Branch,
    difference_table,
    euler_sum_alternating,
    pentagonal,
    pentagonal_power_sum,
)

print("Alternating units first:")
print("  1 - 1 + 1 - 1 + ... =", euler_sum_alternating([1] * 6))
print()

values = [pentagonal(k, Branch.MINUS) for k in range(1, 8)]
print("Difference table of", values, ":")
for row in difference_table(values):
    print("  ", list(row))
print("  1 - 5 + 12 - 22 + ... =", euler_sum_alternating(values))
print()

squares = [v * v for v in values]
print("Difference table of the squares", squares, ":")
for row in difference_table(squares):
    print("  ", list(row))
print("  1 - 25 + 144 - 484 + ... =", euler_sum_alternating(squares))
print()

print("Branch splits of the full signed stream of value**exponent:")
print(f"  {'exponent':>8}  {'s':>16}  {'t':>16}  {'total':>6}")
for exponent in range(7):
    split = pentagonal_power_sum(exponent)
    print(f"  {exponent:>8}  {str(split.s):>16}  {str(split.t):>16}  {str(split.total):>6}")
print()
print("(At exponent 0 the k=0 constant rejoins the two branch sums of -1/2.)")
