#!/usr/bin/env python3
"""The product (1-x)(1-x^2)(1-x^3)... against its sparse expansion.

Multiplying the factors out, almost everything cancels: the surviving
exponents are exactly the generalized pentagonal numbers, with signs in pairs.
Reading the series as a polynomial with infinitely many roots then links its
coefficients to divisor sums through Newton's identities.
"""

from pentafold import (
    elementary_symmetric,
    euler_product,
    pentagonal_series,
    power_sums,
    sigma_brute,
)

cap = 30
product = euler_product(cap)
sparse = pentagonal_series(cap)

print(f"Expansion of the product up to degree {cap}:")
pieces = []
for degree, coeff in enumerate(product):
    if coeff:
        sign = "-" if coeff < 0 else "+"
        pieces.append(f"{sign} x^{degree}" if degree else "1")
print(" ", " ".join(pieces))
print()
print("Sparse construction from the term stream gives the same series:", product == sparse)

big = 1000
print(f"...and they agree coefficient-for-coefficient up to degree {big}:",
      euler_product(big) == pentagonal_series(big))
print()

series = euler_product(24)
e = elementary_symmetric(series, 8)
p = power_sums(series, 24)
print("Elementary symmetric values of the reciprocal roots:")
print(" ", e)
print()
print("Power sums of the reciprocal roots next to the divisor sums:")
print("  k        :", list(range(1, 13)))
print("  power sum:", p[:12])
print("  sigma(k) :", [sigma_brute(k) for k in range(1, 13)])
print()
match = all(p[k - 1] == sigma_brute(k) for k in range(1, 25))
print(f"Hidden regularity p_k == sigma(k), checked through k = 24: {match}")
