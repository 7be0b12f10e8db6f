"""Truncated power series over the integers, and eta-quotient expansion.

Every series is a finite prefix of a formal power series in q: exact
arbitrary-precision integer coefficients for exponents 0..order, nothing
rounded anywhere.  Every product, at any length, is one packed multiply
(`_convolve_packed`), which uses `decimal` only as an exact integer
carrier, with rounding trapped.  Binary operations truncate to the smaller
order; precision is never extended silently.

`series_mul`, `series_invert`, `series_pow` and `expand_eta_quotient` take an
optional `modulus` u and then compute in (Z/u)[[q]]: every result holds the
least nonnegative residues.  Reduction mod u is a ring homomorphism
Z[[q]] -> (Z/u)[[q]], so these residues equal the exact result passed
through `reduce_mod`, while no intermediate coefficient grows beyond
about len * u**2.  The modular products pack residues 0..u-1 through a
table of fixed-width digit strings and reduce each slot as they read it
back.  A slot is sized for the fewer nonzero entries of the two operands,
so a product with a sparse base (the Jacobi cube, f_1, f_2) packs narrower
slots, and slots of up to 8 digits are decoded a machine word at a time.

Every inverse and every quotient goes through one division routine,
`_divide`.  On the exact path, and at up to _NEWTON_MIN coefficients, it
runs the sparse recurrence `_divide_recurrence`, which solves a * out = num
for any numerator.  A longer modular quotient takes Newton steps on the
inverse of the divisor to half its length and folds the numerator into the
last step (Karp-Markstein), so no product of two full-length operands is
formed.

When u is a prime power p**a, the modulus path first reduces the quotient's
exponents by the binomial lemma f_delta**u == f_(p delta)**(u/p) (mod u), so
that, for instance, the mod-49 quotient {1:46, 2:1, 7:-7} is expanded as
{1:-3, 2:1}.  Other moduli (see `_reduce_exponents`) and the exact path
expand the quotient as given.  A quotient whose divisors share a factor g
is expanded in q^g, at order//g, and lifted once.  Every power of (q;q)_inf
is built from two sparse bases: its cube from Jacobi's identity,
sum (-1)^n (2n+1) q^(n(n+1)/2), and the factor itself from the pentagonal
number theorem; a negative power inverts those sparse bases, never a dense
product.  The f_1**-1 or f_1**-3 of a quotient is not inverted at all: the
product of the other factors is divided by the sparse base (see
`expand_eta_quotient`), which saves the full-length product with the inverse.
"""

import sys
from array import array
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from itertools import count
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "TruncatedSeries",
    "EtaQuotientSpec",
    "NonUnitConstantTerm",
    "ParseError",
    "series_add",
    "series_mul",
    "series_invert",
    "series_pow",
    "substitute_q_power",
    "eta_factor",
    "expand_eta_quotient",
    "reduce_mod",
]


class NonUnitConstantTerm(ValueError):
    """Inversion (or a negative power) of a series whose constant term is not +-1."""


class ParseError(ValueError):
    """Malformed eta-exponent string; `position` is the offset of the bad token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True, slots=True)
class TruncatedSeries:
    """Coefficients c(0)..c(order) of a power series in q, all exact ints."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError(f"order must be nonnegative, got {self.order}")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"need exactly order+1 = {self.order + 1} coefficients, got {len(self.coeffs)}"
            )

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "TruncatedSeries":
        cs = tuple(int(c) for c in coeffs)
        return cls(len(cs) - 1, cs)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls(order, (1,) + (0,) * order)

    @classmethod
    def monomial(cls, exponent: int, order: int) -> "TruncatedSeries":
        if not 0 <= exponent <= order:
            raise ValueError(f"exponent {exponent} outside 0..{order}")
        cs = [0] * (order + 1)
        cs[exponent] = 1
        return cls(order, tuple(cs))

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return TruncatedSeries(order, self.coeffs[: order + 1])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def support(self) -> tuple[int, ...]:
        return tuple(n for n, c in enumerate(self.coeffs) if c)

    def to_json_dict(self) -> dict:
        # decimal strings: coefficients routinely exceed 64 bits
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return series_add(self, other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.order, tuple(-c for c in self.coeffs))


@dataclass(frozen=True)
class EtaQuotientSpec:
    """Exponent map delta -> r_delta over the positive divisors of `level`.

    Represents the product over delta of (q^delta; q^delta)_inf ** r_delta.
    Zero exponents are dropped on construction, so equal quotients compare
    equal; every key must divide the level.
    """

    level: int
    exponents: tuple[tuple[int, int], ...]

    def __init__(self, level: int, exponents: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if level < 1:
            raise ValueError(f"level must be positive, got {level}")
        items = dict(exponents)
        for delta in items:
            if delta < 1:
                raise ValueError(f"divisor {delta} must be positive")
            if level % delta != 0:
                raise ValueError(f"divisor {delta} does not divide level {level}")
        canonical = tuple(sorted((d, int(r)) for d, r in items.items() if r != 0))
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "exponents", canonical)

    @classmethod
    def from_string(cls, text: str, level: int | None = None) -> "EtaQuotientSpec":
        """Parse "delta:exp,delta:exp,..." pairs; level defaults to lcm of the deltas."""
        items: dict[int, int] = {}
        pos = 0
        for token in text.split(","):
            stripped = token.strip()
            if not stripped or ":" not in stripped:
                raise ParseError(f"expected 'delta:exponent', got {token!r}", pos)
            left, _, right = stripped.partition(":")
            try:
                delta, r = int(left), int(right)
            except ValueError:
                raise ParseError(f"non-integer entry in {token!r}", pos) from None
            if delta < 1:
                raise ParseError(f"divisor must be positive in {token!r}", pos)
            if delta in items:
                raise ParseError(f"duplicate divisor {delta}", pos)
            items[delta] = r
            pos += len(token) + 1
        if level is None:
            level = lcm(*items) if items else 1
        return cls(level, items)

    def exponent_sum(self) -> int:
        """Sum of the exponents r_delta."""
        return sum(r for _, r in self.exponents)

    def weighted_sum(self) -> int:
        """Sum of delta * r_delta."""
        return sum(d * r for d, r in self.exponents)

    def to_spec_string(self) -> str:
        return ",".join(f"{d}:{r}" for d, r in self.exponents)


# ---------------------------------------------------------------------------
# convolution kernel
# ---------------------------------------------------------------------------

# CPython refuses int <-> decimal-string conversions longer than
# sys.get_int_max_str_digits(), a limit that is 0 (off) or at least 640.
_INT_STR_SAFE_DIGITS = 640

# A slot of at most _LANE_DIGITS digits is widened to 1, 2, 4 or 8 digits and
# decoded word-parallel: a run of up to _LANE_CHUNK slots is read as one int
# from its ASCII bytes, each byte masked to its digit, and neighbouring digit
# groups folded in place (lo + 10**k * hi) until every slot is one machine
# word, which `array` then reads.
_LANE_DIGITS = 8
_LANE_CHUNK = 4096
_LANE_BYTES = _LANE_DIGITS * _LANE_CHUNK
_LANE_TYPES = {array(code).itemsize: code for code in "QLIHB"}  # item size -> typecode
_DIGIT_MASK = int.from_bytes(b"\x0f" * _LANE_BYTES, "big")  # b"0".."9" -> 0..9
# fold k joins the halves of every 2k-byte group, k = 1, 2, 4:
# (shift, mask of each group's low half, 256**k - 10**k)
_LANE_FOLDS = [
    (8 * k, int.from_bytes((b"\x00" * k + b"\xff" * k) * (_LANE_BYTES // (2 * k)), "big"),
     256**k - 10**k)
    for k in (1, 2, 4)
]

# A modular quotient longer than this is computed by Newton steps on the
# packed multiply, seeded by the recurrence on a prefix of at most this many
# coefficients.  Timed on divisions by the Jacobi cube (2-core x86-64,
# CPython 3.11), one Newton level beats the sparse recurrence from about 300
# coefficients mod 5 and 7 and from about 1100 mod 25, 49 and 125; mod 10**12
# the recurrence stays faster up to about 4000.
_NEWTON_MIN = 1024


def _read_lanes(digits: str, w: int, take: int) -> Iterator[array]:
    """The lowest `take` slots of a string of w-digit slots, w in 1, 2, 4 or 8.

    The lowest slot is the last in `digits`; missing leading digits read as
    zeros.  Yields arrays of at most _LANE_CHUNK slot values, lowest first.
    """
    end = len(digits)
    code = _LANE_TYPES[w]
    for first in range(0, take, _LANE_CHUNK):
        size = min(_LANE_CHUNK, take - first) * w
        stop = end - first * w
        x = int.from_bytes(digits[max(stop - size, 0) : max(stop, 0)].encode(), "big")
        x &= _DIGIT_MASK
        for shift, mask, shrink in _LANE_FOLDS[: w.bit_length() - 1]:
            # a group holding lo + 256**k * hi becomes lo + 10**k * hi
            x -= (x >> shift & mask) * shrink
        lanes = array(code, x.to_bytes(size, "little"))
        if sys.byteorder == "big":
            lanes.byteswap()
        yield lanes


def _convolve_packed(
    a: Sequence[int], b: Sequence[int], out_len: int, modulus: int | None = None
) -> list[int]:
    """Exact signed convolution via fixed-width packing into big decimals.

    This is the kernel's only product: `series_mul` and every product of a
    Newton step in `_divide` call it at every length.

    Each coefficient occupies a slot of w decimal digits.  A product
    coefficient is a sum of at most K = min(nonzeros(a), nonzeros(b))
    nonzero terms, so w is chosen so that K * max|a| * max|b| < 10**w, or
    below the half-slot 5 * 10**(w - 1) when an input has a negative
    coefficient; adding that half-slot to every slot of the product then
    makes all slots nonnegative, so they are read back from its digit
    string without borrow propagation.  The carrier is `decimal.Decimal`
    because CPython's C decimal module (libmpdec) multiplies long operands
    by number-theoretic transform, where `int` multiplication is Karatsuba.

    With a modulus u the inputs are first reduced to residues 0..u-1, so no
    slot is signed and w is the digit count of K * (u - 1)**2; residues are
    packed through a table of w-digit strings when u is at most the number
    of coefficients to pack, and every slot is reduced mod u as it is read
    back.

    Slots of up to _LANE_DIGITS digits are widened to 1, 2, 4 or 8 digits
    and decoded word-parallel by `_read_lanes`, a chunk at a time; wider
    slots are read one `int` per slot, through `Decimal` above the 640
    digits CPython may refuse to convert directly.

    The result is exact: the multiply runs at the maximal precision with
    `Inexact` and `Rounded` trapped, so any rounding would raise.  Operands
    are built from per-slot strings and the product is read back from its
    digit string; a whole operand is never converted between `int` and
    `Decimal`, which would be quadratic.
    """
    if modulus is not None:
        aliased = b is a
        a = [c % modulus for c in a]
        b = a if aliased else [c % modulus for c in b]
    # count(0) runs in C; an all-zero operand makes every product slot zero
    terms = min(len(a) - a.count(0), len(b) - b.count(0))
    if not terms:
        return [0] * out_len
    if modulus is None:
        amax = max(map(abs, a))
        bmax = max(map(abs, b))
        a_signed = min(a) < 0
        b_signed = min(b) < 0
    else:
        amax = bmax = modulus - 1
        a_signed = b_signed = False
    signed = a_signed or b_signed
    # every product coefficient c has |c| <= terms * amax * bmax; w is the
    # digit count of that bound, or of twice it when signed, so that
    # |c| < 5 * 10**(w - 1) and the half-slot offset keeps c in its slot
    span = (terms * amax * bmax) << signed
    w = span.bit_length() * 30103 // 100000 + 1  # the digit count, or one more
    if span < 10 ** (w - 1):
        w -= 1
    if w <= _LANE_DIGITS:
        w = 1 << (w - 1).bit_length()
    if w > _INT_STR_SAFE_DIGITS:
        to_str, to_int = (lambda c: str(Decimal(c))), (lambda s: int(Decimal(s)))
    else:
        to_str, to_int = str, int
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])
    zero = "0" * w
    table = None
    if modulus is not None and modulus <= len(a) + len(b):
        table = [to_str(r).zfill(w) for r in range(modulus)]

    def pack(coeffs: Sequence[int], negatives: bool) -> Decimal:
        if table is not None:
            return Decimal("".join([table[c] for c in reversed(coeffs)]))
        pos = Decimal("".join([to_str(c).zfill(w) if c > 0 else zero for c in reversed(coeffs)]))
        if not negatives:
            return pos
        neg = Decimal("".join([to_str(-c).zfill(w) if c < 0 else zero for c in reversed(coeffs)]))
        return ctx.subtract(pos, neg)

    n_slots = len(a) + len(b) - 1
    packed_a = pack(a, a_signed)
    product = ctx.multiply(packed_a, packed_a if b is a else pack(b, b_signed))
    half = 0
    if signed:
        half = 5 * 10 ** (w - 1)
        product = ctx.add(product, Decimal(("5" + "0" * (w - 1)) * n_slots))
    take = min(out_len, n_slots)
    if w <= _LANE_DIGITS:
        out = []
        for lanes in _read_lanes(str(product), w, take):
            if modulus is None:
                out.extend(map((-half).__add__, lanes))
            else:
                out.extend(map(modulus.__rmod__, lanes))
    else:
        digits = str(product)[-take * w :].zfill(take * w)
        slots = range((take - 1) * w, -1, -w)
        if modulus is None:
            out = [to_int(digits[i : i + w]) - half for i in slots]
        else:
            out = [to_int(digits[i : i + w]) % modulus for i in slots]
    out.extend([0] * (out_len - take))
    return out


def _check_modulus(modulus: int | None) -> None:
    if modulus is not None and modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise sum at order min(a.order, b.order)."""
    order = min(a.order, b.order)
    return TruncatedSeries(
        order, tuple(x + y for x, y in zip(a.coeffs[: order + 1], b.coeffs[: order + 1]))
    )


def series_mul(
    a: TruncatedSeries, b: TruncatedSeries, modulus: int | None = None
) -> TruncatedSeries:
    """Cauchy product truncated to order min(a.order, b.order), optionally mod `modulus`."""
    _check_modulus(modulus)
    order = min(a.order, b.order)
    n = order + 1
    out = _convolve_packed(a.coeffs[:n], b.coeffs[:n], n, modulus)
    return TruncatedSeries(order, tuple(out))


def series_invert(a: TruncatedSeries, modulus: int | None = None) -> TruncatedSeries:
    """Multiplicative inverse of a series with constant term +-1.

    The quotient 1 / a by `_divide`: the forward recurrence b(n) = -a(0) *
    sum_{k>=1} a(k) b(n-k) on the exact path and at up to _NEWTON_MIN
    coefficients, skipping zero terms of `a`, so sparse inputs (eta factors)
    invert in O(N sqrt N) and dense ones in O(N**2).  A longer modular
    inverse is seeded by the recurrence and doubled by Newton steps on the
    packed modular multiply, in O(M(N)) for M(N) the cost of one length-N
    product.
    """
    _check_modulus(modulus)
    c0 = a.coeffs[0]
    if c0 not in (1, -1):
        raise NonUnitConstantTerm(f"constant term {c0} is not a unit in Z[[q]]")
    return _divide(TruncatedSeries.one(a.order), a, modulus)


def _divide(num: TruncatedSeries, a: TruncatedSeries, modulus: int | None) -> TruncatedSeries:
    """The quotient num / a to num.order, for a(0) = +-1 and a.order >= num.order.

    The exact path, and a quotient of at most _NEWTON_MIN coefficients, take
    `_divide_recurrence`: the exact coefficients grow and would make the
    products of a Newton step dearer.  A longer modular quotient of L terms
    needs 1/a to only n = ceil(L / 2) terms.  That inverse is seeded by the
    recurrence on a prefix of at most _NEWTON_MIN terms and doubled by
    Newton steps g <- g - g * (a * g - 1), each computing only the new half.
    The numerator is folded into the last step (Karp-Markstein): y = num * g
    to n terms is the quotient to n terms, and since num - a * y = q^n * a *
    (num/a - y) / q^n, the remaining L - n terms are g * (num - a * y)[n:L].
    No product of two length-L operands is formed.  A constant numerator,
    as for an inverse, scales g instead of multiplying by it.
    """
    length = num.order + 1
    if modulus is None or length <= _NEWTON_MIN:
        return _divide_recurrence(num, a, modulus)
    n = half = (length + 1) // 2
    while n > _NEWTON_MIN:
        n = (n + 1) // 2
    g = list(_divide_recurrence(TruncatedSeries.one(n - 1), a, modulus).coeffs)
    while n < half:
        # a * g = 1 + q^n * h (mod q^m), so the next m - n terms of the
        # inverse are those of -g * h
        m = min(2 * n, half)
        h = _convolve_packed(a.coeffs[:m], g, m, modulus)[n:]
        g.extend([-c % modulus for c in _convolve_packed(g[: m - n], h, m - n, modulus)])
        n = m
    if any(num.coeffs[1:half]):
        out = _convolve_packed(num.coeffs[:half], g, half, modulus)
    else:
        out = [num.coeffs[0] * c % modulus for c in g]
    residual = _convolve_packed(a.coeffs[:length], out, length, modulus)[half:]
    excess = [x - y for x, y in zip(num.coeffs[half:], residual)]
    out.extend(_convolve_packed(g[: length - half], excess, length - half, modulus))
    return TruncatedSeries(num.order, tuple(out))


def _divide_recurrence(
    num: TruncatedSeries, a: TruncatedSeries, modulus: int | None
) -> TruncatedSeries:
    """The quotient num / a to num.order, for a(0) = +-1 and a.order >= num.order.

    Solves a * out = num term by term: out(n) = a(0) * (num(n) - sum_{k>=1}
    a(k) out(n-k)), over the nonzero a(k) only, so dividing by a sparse
    series costs the same pass as inverting it.  With a modulus every
    out(n) is reduced as soon as it is known.
    """
    c0 = a.coeffs[0]
    nz = [(k, ak) for k, ak in enumerate(a.coeffs[: num.order + 1]) if ak and k]
    out = list(num.coeffs)
    out[0] = c0 * out[0] if modulus is None else c0 * out[0] % modulus
    for n in range(1, num.order + 1):
        acc = 0
        for k, ak in nz:
            if k > n:
                break
            if ak == 1:
                acc += out[n - k]
            elif ak == -1:
                acc -= out[n - k]
            else:
                acc += ak * out[n - k]
        out[n] = c0 * (out[n] - acc) if modulus is None else c0 * (out[n] - acc) % modulus
    return TruncatedSeries(num.order, tuple(out))


def series_pow(a: TruncatedSeries, e: int, modulus: int | None = None) -> TruncatedSeries:
    """a**e on the truncated ring by repeated squaring; e < 0 inverts once first."""
    _check_modulus(modulus)
    if e == 0:
        return TruncatedSeries.one(a.order)
    if e < 0:
        base = series_invert(a, modulus)
    else:
        base = a if modulus is None else reduce_mod(a, modulus)
    e = abs(e)
    result = None
    while e:
        if e & 1:
            result = base if result is None else series_mul(result, base, modulus)
        e >>= 1
        if e:
            base = series_mul(base, base, modulus)
    return result


def substitute_q_power(a: TruncatedSeries, d: int, order: int | None = None) -> TruncatedSeries:
    """Replace q by q**d: result(d*n) = a(n), all other coefficients zero.

    Defaults to order a.order*d; an explicit `order` may cap the result or
    extend it up to a.order*d + d - 1 (the last exponents still determined
    by a's known prefix).
    """
    if d < 1:
        raise ValueError(f"substitution power must be positive, got {d}")
    known = a.order * d + d - 1
    out_order = a.order * d if order is None else min(order, known)
    if d == 1 and out_order == a.order:
        return a
    if out_order < 0:
        raise ValueError(f"order must be nonnegative, got {out_order}")
    out = [0] * (out_order + 1)
    out[::d] = a.coeffs[: out_order // d + 1]
    return TruncatedSeries(out_order, tuple(out))


def eta_factor(delta: int, order: int) -> TruncatedSeries:
    """(q^delta; q^delta)_inf truncated at `order`.

    Pentagonal number theorem: exponents delta*k(3k-1)/2 over k in Z with
    sign (-1)^k, so only O(sqrt(order/delta)) terms are touched.
    """
    if delta < 1:
        raise ValueError(f"delta must be positive, got {delta}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    # k(3k-1)/2 < k(3k+1)/2 < (k+1)(3k+2)/2, so the exponents come in increasing order
    pentagonal = (
        (delta * k * (3 * k + side) // 2, -1 if k & 1 else 1)
        for k in count(1) for side in (-1, 1)
    )
    return _sparse_series(order, [(0, 1)], pentagonal)


def _sparse_series(order: int, *walks: Iterable[tuple[int, int]]) -> TruncatedSeries:
    """Sum of the (exponent, coefficient) terms of all `walks`, truncated at `order`.

    Each walk yields its exponents in increasing order and may be infinite:
    it is read up to its first exponent past the order, which ends it.
    """
    out = [0] * (order + 1)
    for walk in walks:
        for e, c in walk:
            if e > order:
                break
            out[e] += c
    return TruncatedSeries(order, tuple(out))


def _jacobi_walk() -> Iterator[tuple[int, int]]:
    """The terms of (q;q)_inf**3 by Jacobi's identity, sum over n >= 0 of
    (-1)^n (2n+1) q^(n(n+1)/2), as (exponent, coefficient) in increasing order."""
    return ((n * (n + 1) // 2, -2 * n - 1 if n & 1 else 2 * n + 1) for n in count())


def _eta_power(r: int, order: int, modulus: int | None) -> TruncatedSeries:
    """(q;q)_inf ** r to `order`, r != 0, from the sparse cube and the sparse factor.

    With |r| = 3c + s, the cube's c-th power is multiplied by the factor's
    s-th.  For r < 0 each sparse base is inverted on its own: the sparse
    recurrence is cheap, while inverting a dense product would run the
    O(N**2) recurrence (on the exact path, and below _NEWTON_MIN).  A
    delta = 1 factor with r = -1 or -3 never comes here:
    `expand_eta_quotient` divides by its base instead.
    """
    cubes, ones = divmod(abs(r), 3)
    sign = 1 if r > 0 else -1
    result = None
    if cubes:
        result = series_pow(_sparse_series(order, _jacobi_walk()), sign * cubes, modulus)
    if ones:
        power = series_pow(eta_factor(1, order), sign * ones, modulus)
        result = power if result is None else series_mul(result, power, modulus)
    return result


def _reduce_exponents(spec: EtaQuotientSpec, u: int, order: int) -> EtaQuotientSpec:
    """A quotient congruent to `spec` mod u = p**a, every exponent at most u/2 in size.

    By the binomial lemma f_delta**u == f_(p delta)**(u/p) (mod u).  Each
    exponent r = c u + s, with s the balanced residue -u/2 < s <= u/2,
    keeps f_delta**s and adds c u/p to the exponent of f_(p delta), until
    nothing moves.  An exponent moves only when |s| < |r|: for u = 2 the
    balanced residue of -1 is 1, and moving it would pass -1 on to f_2,
    f_4, f_8, ... without end.  Other moduli give `spec` back unchanged, as
    does a u that trial division up to order + 1 leaves unfactored: skipping
    the reduction changes the cost of expanding to `order`, never the residues.
    """
    exps = dict(spec.exponents)
    if all(2 * abs(r) <= u for r in exps.values()):
        return spec  # nothing can move, so u need not be factored
    bound = min(isqrt(u), order + 1)
    p = next((d for d in range(2, bound + 1) if u % d == 0), u)
    if p == u and bound < isqrt(u):
        return spec  # u is not factored within the bound
    rest = u
    while rest % p == 0:
        rest //= p
    if rest != 1:
        return spec
    moved = True
    while moved:
        moved = False
        for delta in sorted(exps):
            r = exps[delta]
            s = r % u
            if 2 * s > u:
                s -= u
            if abs(s) < abs(r):
                exps[delta] = s
                exps[p * delta] = exps.get(p * delta, 0) + (r - s) // u * (u // p)
                moved = True
    return EtaQuotientSpec(lcm(spec.level, *exps), exps)


def expand_eta_quotient(
    spec: EtaQuotientSpec, order: int, modulus: int | None = None
) -> TruncatedSeries:
    """Expand prod_delta (q^delta; q^delta)_inf ** r_delta to the given order.

    Each factor is the power (q;q)_inf ** r_delta at the reduced order
    order//delta, built by `_eta_power`, and lifted by q -> q^delta.  With a
    modulus every step runs in (Z/modulus)[[q]], on the quotient
    `_reduce_exponents` gives, which is congruent to `spec` mod the modulus.

    A quotient whose divisors share a factor g > 1, such as f_ell / f_2ell,
    is a series in q^g: it is expanded on the divisors delta/g at order//g
    and lifted by q -> q^g once at the end.

    When r_1 is -1 or -3, that factor is divided by instead of inverted:
    the product of the other factors is divided by the pentagonal series or
    the Jacobi cube in one `_divide` call, by the sparse recurrence or, for
    a long modular quotient, by Newton steps with the numerator folded into
    the last one.  Either way the full-length product with the inverse is
    saved.  Any other r_1 would need one division per sparse base, and a
    delta > 1 a division at full length where its inverse runs at
    order//delta; each keeps the product.
    """
    _check_modulus(modulus)
    if modulus is not None:
        spec = _reduce_exponents(spec, modulus, order)
    g = gcd(*(delta for delta, _ in spec.exponents)) or 1
    inner = order // g
    exponents = [(delta // g, r) for delta, r in spec.exponents]
    divisor = None
    if exponents and exponents[0] in ((1, -1), (1, -3)):
        cube = exponents[0][1] == -3
        divisor = _sparse_series(inner, _jacobi_walk()) if cube else eta_factor(1, inner)
        exponents = exponents[1:]
    result = None
    for delta, r in exponents:
        factor = substitute_q_power(_eta_power(r, inner // delta, modulus), delta, inner)
        result = factor if result is None else series_mul(result, factor, modulus)
    if result is None:
        result = TruncatedSeries.one(inner)
    if divisor is not None:
        result = _divide(result, divisor, modulus)
    return substitute_q_power(result, g, order)


def reduce_mod(a: TruncatedSeries, u: int) -> TruncatedSeries:
    """Replace every coefficient by its least nonnegative residue mod u."""
    _check_modulus(u)
    return TruncatedSeries(a.order, tuple(c % u for c in a.coeffs))
