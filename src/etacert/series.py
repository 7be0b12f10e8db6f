"""Truncated power series over the integers, and eta-quotient expansion.

Every series is a finite prefix of a formal power series in q: exact
arbitrary-precision integer coefficients for exponents 0..order, nothing
rounded anywhere.  Binary operations truncate to the smaller order;
precision is never extended silently.

`series_mul`, `series_invert`, `series_pow` and `expand_eta_quotient` take an
optional `modulus` u and then compute in (Z/u)[[q]]: every result holds the
least nonnegative residues.  Reduction mod u is a ring homomorphism
Z[[q]] -> (Z/u)[[q]], so these residues equal the exact result passed
through `reduce_mod`.  Every product goes through `_product`, which forms
only the window of coefficients its caller keeps:

- `_product` alone knows the ring.  It counts the K nonzero entries of the
  sparser operand once, bounds every product coefficient by K * (u - 1)**2
  mod u, or by K * max|sparse| * max|dense| exactly, and picks the route by
  one rule in both rings.  Mod u it hands the carrier residues 0..u-1 (both
  operands of a packed multiply; the dense operand of shift-and-add, with
  the sparse one's nonzero terms reduced and grouped by value), so no
  intermediate coefficient grows beyond about len * u**2, and it reduces
  the window once, as it collects it.
- Both carriers compute exactly in Z, with no modulus of their own: a
  product by a sparse operand is built by shift-and-add when binary lanes
  of 1, 2, 4 or 8 bytes hold the bound and a cost rule says that is
  cheaper, and any other is one packed multiply of big decimals.  They
  live in the private module `_carriers`, which `_product` loads on the
  first product it forms, so an expansion that forms none (such as an
  exact quotient divided by a sparse base) neither compiles them nor
  imports `decimal`.

Every inverse and every quotient goes through one division routine,
`_divide`.  On the exact path, and at up to _NEWTON_MIN coefficients, it
runs the sparse recurrence `_divide_recurrence`, which solves a * out = num
for any numerator.  A longer modular quotient takes Newton steps on the
inverse of the divisor to half its length and folds the numerator into the
last step (Karp-Markstein), so no product of two full-length operands is
formed.  Its every product goes through `_product`, even by the numerator
1 of an inverse, a one-term operand.  Since `_product` reduces what it
multiplies, `series_pow` reduces no base up front, only a first power.

When u is a prime power p**a, the modulus path first reduces the quotient's
exponents by the binomial lemma f_delta**u == f_(p delta)**(u/p) (mod u), in
one ascending pass that carries each exponent's excess up its chain delta,
p delta, p**2 delta, ... and settles every divisor once, so that, for
instance, the mod-49 quotient {1:46, 2:1, 7:-7} is expanded as {1:-3, 2:1}.
Other moduli (see `_reduce_exponents`) and the exact path
expand the quotient as given.  So does the private `_expand(spec, order,
modulus, reduce=False)` for any modulus: its residues are those of the
exact expansion by the same homomorphism, and unlike the reduced route they
do not rest on the binomial lemma.  The pipelines check the lemma, and the
congruent form of each certified quotient, in (Z/u)[[q]] through it, and
tests compare the two routes at scale.  A quotient whose divisors share a
factor g is expanded in q^g, at order//g, and lifted once.  Every power of
(q;q)_inf is built from two sparse bases: its cube from Jacobi's identity,
sum (-1)^n (2n+1) q^(n(n+1)/2), and the factor itself from the pentagonal
number theorem; a negative power inverts those sparse bases, never a dense
product.  The f_1**-1 or f_1**-3 of a quotient is not inverted at all: the
product of the other factors is divided by the sparse base (see
`expand_eta_quotient`), which saves the full-length product with the inverse.

Inside a `tracing()` block the kernel counts its expansions by route and
its products by route and ring, with their sizes, windows and slot widths;
outside one it counts nothing.
"""

from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from itertools import compress, count
from math import gcd, isqrt, lcm
from operator import index

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
    "tracing",
]


class NonUnitConstantTerm(ValueError):
    """Inversion (or a negative power) of a series whose constant term is not +-1."""


class ParseError(ValueError):
    """Malformed eta-exponent string; `position` is the offset of the bad token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _integer(name: str, value, least: int | None = None) -> int:
    """`value` as an int through `operator.index`, at least `least` when given.

    The package's one integer gate: a value that is no integer, or one below
    `least`, raises ValueError naming the field, as in "order must be
    nonnegative, got -1", "m must be positive, got 0" or "modulus must be
    >= 2, got 1".  A float is refused even when integral, so no modulus or
    order is ever used in floating point.
    """
    try:
        value = index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        bound = "nonnegative" if least == 0 else "positive" if least == 1 else f">= {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


class _Value:
    """A value over the fields named in `__slots__`, frozen as a dataclass is.

    Every value class of the package derives from it: each lists its fields
    in `__slots__`, takes them in that order and stores them through `_bind`.
    """

    __slots__ = ()

    def _bind(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class TruncatedSeries(_Value):
    """Coefficients c(0)..c(order) of a power series in q, all exact ints."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[int]):
        order, coeffs = _integer("order", order, 0), tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(f"need exactly order+1 = {order + 1} coefficients, got {len(coeffs)}")
        self._bind(order, coeffs)

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
        order = _integer("order", order, 0)
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


class EtaQuotientSpec(_Value):
    """Exponent map delta -> r_delta over the positive divisors of `level`.

    Represents the product over delta of (q^delta; q^delta)_inf ** r_delta.
    Every key is an integer that divides the level, every exponent an integer;
    zero exponents are dropped on construction, so equal quotients compare equal.
    """

    __slots__ = ("level", "exponents")

    def __init__(self, level: int, exponents: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        level = _integer("level", level, 1)
        items = []
        for delta, r in dict(exponents).items():
            delta, r = _integer("divisor", delta, 1), _integer("exponent", r)
            if level % delta != 0:
                raise ValueError(f"divisor {delta} does not divide level {level}")
            if r:
                items.append((delta, r))
        self._bind(level, tuple(sorted(items)))

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
# trace counters
# ---------------------------------------------------------------------------

# The counters of the innermost open `tracing` block; None when none is open.
_trace: dict | None = None


@contextmanager
def tracing() -> Iterator[dict]:
    """Count the kernel's expansions and products while the block runs.

    Yields the counter dict, which the calls made inside the block fill in:

    - "expand": {"exact", "reduced", "unreduced"}: the order of every
      expansion, exact, mod u on the quotient `_reduce_exponents` gives, or
      mod u on the quotient as given;
    - "product": {"packed", "shift_add"} -> {"exact", "modular"}: one
      [len(a), len(b), K, lo, hi, width] per product `_product` forms, K
      the smaller nonzero count of its operands as passed in, lo..hi-1 the
      window it keeps, and width the lane bytes of shift-and-add (1, 2, 4
      or 8) or the slot digits of the packed multiply (1, 2, 4 or 8 when
      decoded word-parallel, the exact digit count above
      `_carriers._LANE_DIGITS`); a product with an all-zero operand is not
      formed and not counted.

    Entries come in call order, so the same calls give the same dict.  The
    counters reach no result: series, certificates and reports have the
    same bytes with tracing on or off.  A nested block counts on its own,
    and the outer block's counters resume when it ends.
    """
    global _trace
    outer = _trace
    _trace = {
        "expand": {"exact": [], "reduced": [], "unreduced": []},
        "product": {route: {"exact": [], "modular": []} for route in ("packed", "shift_add")},
    }
    try:
        yield _trace
    finally:
        _trace = outer


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def _residues(coeffs: Sequence[int], u: int) -> Sequence[int]:
    """`coeffs` reduced to residues 0..u-1, or `coeffs` itself if they all are.

    The C-level min and max cost less than reducing every entry, and the
    Newton steps of `_divide` pass residues back in.
    """
    if not coeffs or (min(coeffs) >= 0 and max(coeffs) < u):
        return coeffs
    return [c % u for c in coeffs]


def _product(
    a: Sequence[int], b: Sequence[int], lo: int, hi: int, modulus: int | None = None
) -> list[int]:
    """Coefficients lo..hi-1 of a * b, reduced mod `modulus` when given.

    Every product of the kernel comes here, and it is the only product
    function that knows the ring: both carriers compute in Z.  It counts
    the K nonzero entries of the sparser operand once, and from the scans
    it makes anyway bounds every coefficient by K * (u - 1)**2 mod u, or by
    K * max|sparse| * max|dense| exactly.  It turns the bound into the width
    of either carrier.  When a lane of 1, 2, 4 or 8 bytes holds the bound
    and `_shift_add_pays`, the product goes to `_shift_add`, with the dense
    operand as residues and only the sparse one's nonzero terms, reduced
    and grouped by value.  Any other goes to `_convolve_packed` with both
    operands as residues, in slots of the bound's digit count, or of twice
    the bound's when an operand is signed; a slot of at most _LANE_DIGITS
    digits is widened to 1, 2, 4 or 8.  The window comes back in Z and is
    reduced once, as it is collected.  The carriers and their constants are
    read from `_carriers` at each call; the module is imported by the first
    product formed, not by a product with an all-zero operand.
    """
    if hi <= lo:
        return []
    a_terms = len(a) - a.count(0)
    b_terms = len(b) - b.count(0)
    sparse, dense, terms = (a, b, a_terms) if a_terms <= b_terms else (b, a, b_terms)
    if not terms:
        return [0] * (hi - lo)
    from . import _carriers  # loaded by the first product formed, read at each call
    aliased = sparse is dense
    if modulus is None:
        lows = min(sparse), min(dense)
        tops = max(max(sparse), -lows[0]), max(max(dense), -lows[1])
    else:
        lows, tops = (0, 0), (modulus - 1, modulus - 1)
        dense = _residues(dense, modulus)
    signs = lows[0] < 0, lows[1] < 0
    bound = terms * tops[0] * tops[1]
    slot = next((s for s in (1, 2, 4, 8) if bound < 1 << 8 * s), None)
    if slot is not None and _carriers._shift_add_pays(terms, slot, hi - lo, hi):
        route, width = "shift_add", slot
        groups: dict[int, list[int]] = {}
        for k in compress(range(min(len(sparse), hi)), sparse):
            r = sparse[k] if modulus is None else sparse[k] % modulus
            if r:
                groups.setdefault(r, []).append(k)
        out = _carriers._shift_add(groups, dense, lo, hi, slot, signs[1])
    else:
        route = "packed"
        span = bound << (signs[0] or signs[1])
        width = span.bit_length() * 30103 // 100000 + 1  # the digit count, or one more
        if span < 10 ** (width - 1):
            width -= 1
        if width <= _carriers._LANE_DIGITS:
            width = 1 << (width - 1).bit_length()
        if modulus is not None:
            sparse = dense if aliased else _residues(sparse, modulus)
        out = _carriers._convolve_packed(sparse, dense, lo, hi, width, max(tops), signs)
    if _trace is not None:
        _trace["product"][route]["exact" if modulus is None else "modular"].append(
            [len(a), len(b), terms, lo, hi, width])
    return list(out) if modulus is None else [c % modulus for c in out]


def _check_modulus(modulus: int | None) -> int | None:
    """The modulus through the integer gate, at least 2, or None for the exact path."""
    return None if modulus is None else _integer("modulus", modulus, 2)


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
    modulus = _check_modulus(modulus)
    order = min(a.order, b.order)
    n = order + 1
    return TruncatedSeries(order, tuple(_product(a.coeffs[:n], b.coeffs[:n], 0, n, modulus)))


def series_invert(a: TruncatedSeries, modulus: int | None = None) -> TruncatedSeries:
    """Multiplicative inverse of a series with constant term +-1.

    The quotient 1 / a by `_divide`: the forward recurrence b(n) = -a(0) *
    sum_{k>=1} a(k) b(n-k) on the exact path and at up to _NEWTON_MIN
    coefficients, skipping zero terms of `a`, so sparse inputs (eta factors)
    invert in O(N sqrt N) and dense ones in O(N**2).  A longer modular
    inverse is seeded by the recurrence and doubled by Newton steps on the
    windowed modular products, in O(M(N)) for M(N) the cost of one length-N
    product.
    """
    modulus = _check_modulus(modulus)
    c0 = a.coeffs[0]
    if c0 not in (1, -1):
        raise NonUnitConstantTerm(f"constant term {c0} is not a unit in Z[[q]]")
    return _divide(TruncatedSeries.one(a.order), a, modulus)


# A modular quotient longer than this is computed by Newton steps on
# windowed products, seeded by the recurrence on a prefix of at most this
# many coefficients.  One Newton level against the sparse recurrence, for
# f_2 divided by the Jacobi cube to L coefficients (2-core x86-64, CPython
# 3.11, median of 9; Newton time / recurrence time):
#   L        128   192   256   384   512   768  1024
#   mod 5   1.16  0.87  0.79  0.67  0.42  0.57  0.67
#   mod 7   1.46  1.12  0.85  0.70  0.74  0.68  0.43
#   mod 25  1.41  1.14  1.04  0.88  0.75  0.73  0.70
#   mod 49  1.55  1.29  1.17  0.92  0.81  0.73  0.71
#   mod 125 1.41  1.24  1.19  0.92  0.84  0.82  0.59
# The perfbench `families` wall time (seeds 3-5) was 0.189-0.197 s at 256,
# 0.200-0.201 at 384, 0.197-0.204 at 512 and 0.207-0.214 at 1024.  Mod
# 10**12 and above the recurrence stays faster up to about 4000.
_NEWTON_MIN = 256

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
    No product of two length-L operands is formed.

    Each product asks `_product` for the window it keeps: h = (a * g)[n:m],
    the residual (a * y)[n:L] and num * g to n terms.  With a sparse divisor
    (the Jacobi cube, f_1) and a sparse numerator (f_2), these three are
    built by shift-and-add at the lengths where that pays; the products by
    the dense g are packed multiplies.  A constant numerator, as for an
    inverse, is a one-term operand, which `_product` shifts and adds.
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
        h = _product(a.coeffs[:m], g, n, m, modulus)
        g.extend([-c % modulus for c in _product(g[: m - n], h, 0, m - n, modulus)])
        n = m
    out = _product(num.coeffs[:half], g, 0, half, modulus)
    residual = _product(a.coeffs[:length], out, half, length, modulus)
    excess = [x - y for x, y in zip(num.coeffs[half:], residual)]
    out.extend(_product(g[: length - half], excess, 0, length - half, modulus))
    return TruncatedSeries(num.order, tuple(out))


def _divide_recurrence(
    num: TruncatedSeries, a: TruncatedSeries, modulus: int | None
) -> TruncatedSeries:
    """The quotient num / a to num.order, for a(0) = +-1 and a.order >= num.order.

    Solves a * out = num term by term: out(n) = a(0) * (num(n) - sum_{k>=1}
    a(k) out(n-k)), over the nonzero a(k) only, so dividing by a sparse
    series costs the same pass as inverting it.  `out` grows by one entry
    per n, so out(n - k) is out[-k], and the n between two nonzero a(k)
    share one prefix of live terms, so no term is tested against n; at n = 0
    none is live yet, so out(0) = a(0) * num(0) comes out of the same loop.
    The a(k) = +-1 terms (every term of f_1) are summed in C, by sum(map(
    out.__getitem__, offsets)); each other term takes one multiply.  With a
    modulus every out(n) is reduced as soon as it is known.
    """
    order = num.order
    c0 = a.coeffs[0]
    nums = num.coeffs
    out = []
    get, append = out.__getitem__, out.append
    plus, minus, other = [], [], []  # the live terms, by offset -k
    start = 0
    for k in [*compress(range(1, order + 1), a.coeffs[1 : order + 1]), order + 1]:
        ones = plus or minus
        for n in range(start, k):
            acc = sum(map(get, plus)) - sum(map(get, minus)) if ones else 0
            for j, aj in other:
                acc += aj * out[j]
            x = c0 * (nums[n] - acc)
            append(x if modulus is None else x % modulus)
        if k > order:
            break
        start = k
        ak = a.coeffs[k]
        if ak == 1:
            plus.append(-k)
        elif ak == -1:
            minus.append(-k)
        else:
            other.append((-k, ak))
    return TruncatedSeries(order, tuple(out))


def series_pow(a: TruncatedSeries, e: int, modulus: int | None = None) -> TruncatedSeries:
    """a**e on the truncated ring by repeated squaring; e < 0 inverts once first.

    The base is not reduced up front: `_product` reduces every operand it
    multiplies, so only a**1, which forms no product, is reduced here.
    """
    modulus, e = _check_modulus(modulus), _integer("exponent", e)
    if e == 0:
        return TruncatedSeries.one(a.order)
    if e == 1 and modulus is not None:
        return reduce_mod(a, modulus)
    base = series_invert(a, modulus) if e < 0 else a
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
    d = _integer("substitution power", d, 1)
    known = a.order * d + d - 1
    out_order = a.order * d if order is None else min(_integer("order", order, 0), known)
    if d == 1 and out_order == a.order:
        return a
    out = [0] * (out_order + 1)
    out[::d] = a.coeffs[: out_order // d + 1]
    return TruncatedSeries(out_order, tuple(out))


def eta_factor(delta: int, order: int) -> TruncatedSeries:
    """(q^delta; q^delta)_inf truncated at `order`.

    Pentagonal number theorem: exponents delta*k(3k-1)/2 over k in Z with
    sign (-1)^k, so only O(sqrt(order/delta)) terms are touched.
    """
    delta = _integer("delta", delta, 1)
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
    order = _integer("order", order, 0)
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

    By the binomial lemma f_delta**u == f_(p delta)**(u/p) (mod u).  An
    exponent r = c u + s, with s the balanced residue -u/2 < s <= u/2, moves:
    it keeps f_delta**s and adds c u/p = (r - s)/p to the exponent of
    f_(p delta).  One ascending pass settles every divisor: from each delta
    the carry walks up the chain delta, p delta, p**2 delta, ... while an
    exponent moves, and since f_(p delta) takes inflow from f_delta alone,
    no settled divisor is touched again.  Each chain ends: the carried
    exponent shrinks by about a factor p per step, as |s| <= u/2, so past
    the last divisor of `spec` on it, where the exponent is r, a chain makes
    at most 1 + log_p(2|r|) more moves.  For odd u the result is the one
    quotient with every exponent balanced that such moves reach, so two
    quotients the lemma carries into each other reduce alike.  An exponent
    moves only when |s| < |r|: for u = 2 the balanced residue of -1 is 1,
    and moving it would pass -1 on to f_2, f_4, f_8, ... without end.
    Other moduli give `spec` back unchanged, as does a u that trial division
    up to order + 1 leaves unfactored: skipping the reduction changes the
    cost of expanding to `order`, never the residues.
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
    half = (u - 1) // 2  # s = (r + half) % u - half is the balanced residue
    for delta in sorted(exps):
        r = exps[delta]
        while abs(s := (r + half) % u - half) < abs(r):
            exps[delta] = s
            delta *= p
            r = exps[delta] = exps.get(delta, 0) + (r - s) // p
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
    return _expand(spec, order, modulus, reduce=True)


def _expand(
    spec: EtaQuotientSpec, order: int, modulus: int | None, reduce: bool
) -> TruncatedSeries:
    """`expand_eta_quotient`; with a modulus and `reduce=False`, of `spec` as given.

    Skipping `_reduce_exponents` leaves the residues as they are and changes
    only the route: the quotient's own factors are expanded in (Z/u)[[q]],
    so the result rests on reduction mod u being a ring homomorphism and not
    on the binomial lemma.  That makes it a second route to the residues of
    the reduced expansion, and the route on which the lemma itself is
    checked.  `reduce` has no effect on the exact path.
    """
    modulus, order = _check_modulus(modulus), _integer("order", order, 0)
    if _trace is not None:
        kind = "exact" if modulus is None else "reduced" if reduce else "unreduced"
        _trace["expand"][kind].append(order)
    if modulus is not None and reduce:
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
    u = _check_modulus(u)
    return TruncatedSeries(a.order, tuple(c % u for c in a.coeffs))
