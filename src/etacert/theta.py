"""Ramanujan theta series, the triple product, and residue-class dissection.

Only the positive specializations f(q^alpha, q^beta) are needed here. The
bilateral sum and the triple product are built independently so either can
cross-check the other: the product's two (-q^s; q^P)_inf factors come from
Euler's identity, never from the sum or from a series product.
"""

from itertools import accumulate, count
from math import gcd
from operator import add

from .series import TruncatedSeries, _jacobi_walk, _sparse_series, _Value, eta_factor

__all__ = [
    "ThetaSpec",
    "DissectionBlocks",
    "theta_series",
    "jtp_product",
    "psi_series",
    "jacobi_cube",
    "dissect",
    "extract_arithmetic_progression",
    "build_dissection_blocks",
]


class ThetaSpec(_Value):
    """f(q^alpha, q^beta) with alpha, beta >= 1."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: int, beta: int):
        if alpha < 1 or beta < 1:
            raise ValueError(f"theta exponents must be >= 1, got ({alpha}, {beta})")
        self._bind(alpha, beta)


class DissectionBlocks(_Value):
    """The three components of the 5-dissection of psi(q).

    block_a = f(q^10, q^15) and block_b = f(q^5, q^20) live on exponents
    divisible by 5; block_c = psi(q^25) on exponents divisible by 25.
    """

    __slots__ = ("block_a", "block_b", "block_c")

    def __init__(self, block_a, block_b, block_c):
        self._bind(block_a, block_b, block_c)


def theta_series(spec: ThetaSpec, order: int) -> TruncatedSeries:
    """Bilateral sum over n of q^(alpha*n(n+1)/2 + beta*n(n-1)/2), truncated.

    Each direction of n is walked until its exponent exceeds the order; the
    exponent is checked per term rather than bounded in closed form.
    """

    def term(n: int) -> tuple[int, int]:
        return (spec.alpha * n * (n + 1) + spec.beta * n * (n - 1)) // 2, 1

    return _sparse_series(order, map(term, count()), map(term, count(-1, -1)))


def jtp_product(spec: ThetaSpec, order: int) -> TruncatedSeries:
    """Triple-product form (-q^a; q^P) (-q^b; q^P) (q^P; q^P), P = a + b.

    Starts from the sparse (q^P; q^P)_inf and multiplies it by each
    (-q^s; q^P)_inf through Euler's identity,
    (-z; q^P)_inf = sum over n >= 0 of q^(P*n(n-1)/2) z^n / (q^P; q^P)_n
    with z = q^s: term n is term n-1 times q^(P(n-1)+s) / (1 - q^(Pn)), so
    about sqrt(2*order/P) terms are summed and no series product is formed.
    In term n the accumulator's (q^P; q^P)_inf has lost its first n factors,
    leaving (q^(P(n+1)); q^P)_inf, so the coefficients stay small.

    The accumulator lives on multiples of P before the first factor and of
    gcd(a, b) before the second, so each term is kept at that stride only.
    """
    period = spec.alpha + spec.beta
    total = list(eta_factor(period, order).coeffs)
    for start, stride in ((spec.alpha, period), (spec.beta, gcd(spec.alpha, spec.beta))):
        # term[i] is the coefficient of q^(low + stride*i) in the current term
        term, low = total[::stride], 0
        for n in count(1):
            low += period * (n - 1) + start
            if low > order:
                break
            del term[(order - low) // stride + 1 :]
            _divide_one_minus(term, period * n // stride)
            total[low::stride] = map(add, total[low::stride], term)
    return TruncatedSeries(order, tuple(total))


def _divide_one_minus(x: list[int], d: int) -> None:
    """Divide the series sum x[i] y^i by (1 - y^d) in place: x[i] += x[i - d], i increasing.

    Either way takes at most about sqrt(len(x)) slice operations: one running
    sum per residue class mod d when d is small, else one chunk of d at a time.
    """
    n = len(x)
    if d * d <= n:
        for r in range(d):
            x[r::d] = accumulate(x[r::d])
    else:
        for i in range(d, n, d):
            x[i : i + d] = map(add, x[i : i + d], x[i - d : i])


def psi_series(scale: int, order: int) -> TruncatedSeries:
    """psi(q^scale) = sum over n >= 0 of q^(scale*n(n+1)/2)."""
    if scale < 1:
        raise ValueError(f"scale must be positive, got {scale}")
    return _sparse_series(order, ((scale * n * (n + 1) // 2, 1) for n in count()))


def jacobi_cube(order: int) -> TruncatedSeries:
    """Cube of (q;q)_inf as the weighted triangular series sum (-1)^n (2n+1) q^(n(n+1)/2)."""
    return _sparse_series(order, _jacobi_walk())


def dissect(s: TruncatedSeries, m: int) -> tuple[TruncatedSeries, ...]:
    """Split s into m full-length subseries by exponent residue class mod m; they sum to s."""
    if m < 1:
        raise ValueError(f"dissection modulus must be >= 1, got {m}")
    buckets = [[0] * (s.order + 1) for _ in range(m)]
    for i, out in enumerate(buckets):
        out[i::m] = s.coeffs[i::m]
    return tuple(TruncatedSeries(s.order, tuple(b)) for b in buckets)


def extract_arithmetic_progression(s: TruncatedSeries, m: int, t: int) -> TruncatedSeries:
    """Series of coefficients s(m*n + t); order floor((s.order - t)/m)."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if not 0 <= t < m:
        raise ValueError(f"residue {t} outside 0..{m - 1}")
    if t > s.order:
        raise ValueError(f"no coefficient at exponent {t} is known (order {s.order})")
    return TruncatedSeries((s.order - t) // m, s.coeffs[t::m])


def build_dissection_blocks(order: int) -> DissectionBlocks:
    """The a, b, c blocks of psi(q) = a + q b + q^3 c at the given order."""
    return DissectionBlocks(
        block_a=theta_series(ThetaSpec(10, 15), order),
        block_b=theta_series(ThetaSpec(5, 20), order),
        block_c=psi_series(25, order),
    )
