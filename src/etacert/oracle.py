"""Deliberately naive reference implementations, for cross-checking only.

Nothing here shares expansion code with the series kernel: multiplication is
the literal double loop, eta factors come from the literal finite product
(no pentagonal shortcut), and inversion solves the convolution equations
term by term.  Slow on purpose; the only value is independence.
"""

from .series import EtaQuotientSpec, TruncatedSeries

__all__ = ["naive_mul", "naive_eta", "naive_invert", "naive_expand", "naive_delta_k"]


def naive_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Schoolbook convolution truncated to the smaller order."""
    order = min(a.order, b.order)
    out = [0] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return TruncatedSeries(order, tuple(out))


def naive_eta(delta: int, order: int) -> TruncatedSeries:
    """Expand the finite product of (1 - q^(delta*n)) over delta*n <= order."""
    if delta < 1:
        raise ValueError(f"delta must be positive, got {delta}")
    out = [0] * (order + 1)
    out[0] = 1
    n = delta
    while n <= order:
        # multiply in place by (1 - q^n)
        for i in range(order, n - 1, -1):
            out[i] -= out[i - n]
        n += delta
    return TruncatedSeries(order, tuple(out))


def naive_invert(a: TruncatedSeries) -> TruncatedSeries:
    """Solve (a * b)(n) = [n == 0] for b, term by term."""
    c0 = a.coeffs[0]
    if c0 not in (1, -1):
        raise ValueError(f"cannot invert integrally: constant term {c0}")
    out = [0] * (a.order + 1)
    out[0] = c0
    for n in range(1, a.order + 1):
        acc = sum(a.coeffs[k] * out[n - k] for k in range(1, n + 1))
        out[n] = -c0 * acc
    return TruncatedSeries(a.order, tuple(out))


def naive_expand(spec: EtaQuotientSpec, order: int) -> TruncatedSeries:
    """Expand an eta quotient factor by factor: each f_delta^r is |r| products."""
    result = TruncatedSeries.one(order)
    for delta, r in spec.exponents:
        base = naive_eta(delta, order)
        if r < 0:
            base = naive_invert(base)
        for _ in range(abs(r)):
            result = naive_mul(result, base)
    return result


def naive_delta_k(k: int, order: int) -> TruncatedSeries:
    """Reference expansion of the broken k-diamond series f2 f_(2k+1) / (f1^3 f_(4k+2))."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    ell = 2 * k + 1
    return naive_expand(EtaQuotientSpec(2 * ell, {1: -3, 2: 1, ell: 1, 2 * ell: -1}), order)
