#!/usr/bin/env python3
"""Damped numeric evaluation of the power series near roots of unity.

Every root of unity is a root of the product series with infinite
multiplicity, so the series of value**exponent likewise sinks to zero along
each damped ray rho * root as rho -> 1.  A root-of-unity filter isolates one
residue class at a time; those filtered series sink as well.
"""

from pentafold import abel_decay, abel_evaluate, required_exponent_cap, residue_class_abel

print("Real ray, exponent 0: the damped series equals the damped product.")
for rho in (0.3, 0.6, 0.9):
    series_value = abel_evaluate(0, 1, 0, rho).real
    cap = required_exponent_cap(0, rho, 1e-9)
    product = 1.0
    for k in range(1, cap + 1):
        product *= 1.0 - rho**k
    print(f"  rho={rho}:  series {series_value:.9f}   product {product:.9f}")
print()

print("Deeper damping pulls |value| toward 0 (matching truncation caps):")
print(f"  {'exponent':>8} {'m':>3} {'i':>3} {'|at rho=0.9|':>14} {'|at rho=0.999|':>15}")
for exponent, m, i in [(0, 1, 0), (1, 2, 1), (2, 3, 1), (3, 4, 3)]:
    near, far, _ = abel_decay(exponent, m, 0.999, 0.9, i=i)
    print(f"  {exponent:>8} {m:>3} {i:>3} {far:>14.3e} {near:>15.3e}")
print()

print("Residue-class series via the root-of-unity filter, m = 2:")
for r in (0, 1):
    for rho in (0.9, 0.99):
        value = abs(residue_class_abel(1, 2, r, rho))
        print(f"  exponent 1, r={r}, rho={rho}:  |filtered value| = {value:.3e}")
print()
print("The class r=0 collects -2 - 12 + 22 + 26 - ... ; damped, it fades to 0.")
