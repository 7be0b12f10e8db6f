#!/usr/bin/env python3
# Exact truncated q-series: eta factors, partition counts, and quotients.
from etacert import (
    EtaQuotientSpec,
    eta_factor,
    expand_eta_quotient,
    reduce_mod,
    series_invert,
    series_mul,
)

# (q;q)_inf carries the pentagonal pattern: exponents k(3k-1)/2 with sign (-1)^k
f1 = eta_factor(1, 30)
print("(q;q)_inf:", ",".join(str(c) for c in f1.coeffs[:16]), "...")

# its inverse generates the partition numbers p(n)
partitions = series_invert(f1)
print("p(0..12):  ", list(partitions.coeffs[:13]))
print("check:      p(30) =", partitions.coeffs[30])

# the product of the two collapses back to 1 exactly, at full order
assert series_mul(f1, partitions).coeffs == (1,) + (0,) * 30

# general eta quotients: the auxiliary series b(n) behind the mod-25 family
b = expand_eta_quotient(EtaQuotientSpec(2, {1: -3, 2: 1}), 12)
print("b(0..12):  ", list(b.coeffs))

# coefficients grow fast but stay exact; with a modulus the same expansion
# runs in (Z/25)[[q]] and gives the same residues without the big integers
big = expand_eta_quotient(EtaQuotientSpec(2, {1: -3, 2: 1}), 400)
print("b(400) has", len(str(big.coeffs[400])), "decimal digits")
residues = expand_eta_quotient(EtaQuotientSpec(2, {1: -3, 2: 1}), 400, modulus=25)
assert residues == reduce_mod(big, 25)
print("b(400) mod 25 =", residues.coeffs[400])
