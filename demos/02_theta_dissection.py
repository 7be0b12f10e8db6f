#!/usr/bin/env python3
# Theta series, the triple product, and the 5-dissection behind the mod-5 family.
from etacert import (
    ThetaSpec,
    TruncatedSeries,
    build_dissection_blocks,
    dissect,
    eta_factor,
    jacobi_cube,
    jtp_product,
    psi_series,
    reduce_mod,
    series_mul,
    series_pow,
    substitute_q_power,
    theta_series,
)

ORDER = 300

# psi(q) = f(q, q^3): triangular-number exponents, two independent constructions
psi = psi_series(1, ORDER)
assert psi == theta_series(ThetaSpec(1, 3), ORDER)
assert psi == jtp_product(ThetaSpec(1, 3), ORDER)
print("psi(q) support starts:", psi.support()[:8])

# psi(q) = a + q b + q^3 c with a, b supported on 5Z and c on 25Z
blocks = build_dissection_blocks(ORDER)
q1 = TruncatedSeries.monomial(1, ORDER)
q3 = TruncatedSeries.monomial(3, ORDER)
summed = blocks.block_a + series_mul(q1, blocks.block_b) + series_mul(q3, blocks.block_c)
print("psi = a + q b + q^3 c holds exactly:", summed == psi)
print("block a support:", blocks.block_a.support()[:5])
print("block b support:", blocks.block_b.support()[:5])
print("block c support:", blocks.block_c.support()[:4])

# the two cubes live on complementary residue classes once reduced mod 5
cube1 = reduce_mod(jacobi_cube(ORDER), 5)
cube2 = reduce_mod(substitute_q_power(jacobi_cube(ORDER // 2), 2, ORDER), 5)
print("f1^3 mod 5 classes:", sorted({n % 5 for n in cube1.support()}))
print("f2^3 mod 5 classes:", sorted({n % 5 for n in cube2.support()}))

# and their product avoids the class 4 entirely: the key vanishing step
product = reduce_mod(series_mul(jacobi_cube(ORDER), series_pow(eta_factor(2, ORDER), 3)), 5)
classes = dissect(product, 5)
print("f1^3 f2^3 mod 5, class-4 part is zero:", classes[4].is_zero())
