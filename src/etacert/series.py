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
- Both carriers compute exactly in Z, with no modulus of their own.
- A product by a sparse operand is built by shift-and-add (`_shift_add`)
  when binary lanes of 1, 2, 4 or 8 bytes hold the bound and a cost rule
  says that is cheaper.  The dense operand is packed once into lanes, a
  signed one as its positive and negative parts, and one shifted copy of
  it is added per nonzero term of the sparse one.  So a Newton step of a
  division by the Jacobi cube, or an exact product by the cube or f_delta,
  costs about K passes over the window, K of order sqrt(N), instead of a
  full product.
- Any other product is one packed multiply (`_convolve_packed`), which uses
  `decimal` only as an exact integer carrier, with rounding trapped.  Each
  coefficient fills a slot of decimal digits sized for the bound, so a
  product with a sparse base (the Jacobi cube, f_1, f_2) packs narrower
  slots; small nonnegative entries, as residues are, pack through a table
  of digit strings, and slots of up to 8 digits are decoded a machine word
  at a time.

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

import sys
from array import array
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from itertools import compress, count
from math import gcd, isqrt, lcm
from operator import index, sub

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


class _Value:
    """A value over the fields named in `__slots__`, frozen as a dataclass is;
    only the certifier layers, which load together, import `dataclasses`."""

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
        coeffs = tuple(coeffs)
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
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
        if level < 1:
            raise ValueError(f"level must be positive, got {level}")
        items = []
        for delta, r in dict(exponents).items():
            try:
                delta, r = index(delta), index(r)
            except TypeError:
                raise ValueError(f"divisor {delta!r} and exponent {r!r} must be integers") from None
            if delta < 1:
                raise ValueError(f"divisor {delta} must be positive")
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
      decoded word-parallel, the exact digit count above _LANE_DIGITS); a
      product with an all-zero operand is not formed and not counted.

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

# `_shift_add_pays` takes shift-and-add for a window of W slots ending at
# hi, by a sparse operand of K terms in lanes of s bytes, when
# K * (s * W + _SHIFT_ADD_TERM) <= _SHIFT_ADD_BYTES * hi.  Timed on every
# product of b = f_2/f_1**3 mod 5, 7, 25, 49 and 125 at orders 9000 to
# 921,224, and on the exact products of the f_1**4 * f_delta**e requests at
# orders 300, 700, 1500 and 2500 (2-core x86-64, CPython 3.11), against the
# packed product:
#   product                                      K*s*W/hi  shift-add/packed
#   Newton windows by the cube, orders <= 20,000   50-400   0.18-0.37
#   X1 residual (a * out)[189458:378916] mod 49      1742   0.81
#   X2 residual (a * out)[460613:921225] mod 125     2714   0.85
#   f_2 * g to 189,458 mod 49                        2012   0.86
#   f_2 * g to 460,613 mod 125                       3136   1.46
#   dense g * h of 100-400 terms mod 5, 7           200-800   0.9-1.1
#   dense g * h of 580-1560 terms mod 5, 7          840-2290  0.9-1.3
#   dense g * h of 100-400 terms mod 49, 125        400-1600  1.2-1.7
#   dense g * h of 600-900 terms mod 25, 49, 125   2330-3550  1.5-3.0
#   exact cube * f_1, 300 to 2500                  50-142   0.77-0.45
#   exact f_1**4 * f_3, 300 to 2500                 34-94   0.43-0.25
#   exact f_1**4 * f_5**2, 300 to 2500             80-1032  0.31-0.63
#   exact f_1**4 * K random terms to 700, 2500    1400-2500  1.00-1.11
# The term cost stands for the fixed work of each term (a loop step, two
# int allocations, a share of the multiplies by residues); it keeps dense
# products, whose K is about W, packed at every length.  An exact signed
# dense operand is shifted and added once per sign, and the last row shows
# that the rule's bound already sits where such a product breaks even, so
# the split is not priced apart.
_SHIFT_ADD_BYTES = 2800
_SHIFT_ADD_TERM = 3072


def _read_lanes(digits: str, w: int) -> array:
    """The slots of a string of w-digit slots, w in 1, 2, 4 or 8, lowest first.

    The lowest slot is the last in `digits`, whose length is a multiple of
    w.  Runs of at most _LANE_CHUNK slots are decoded at a time.
    """
    lanes = array(_LANE_TYPES[w])
    for stop in range(len(digits), 0, -w * _LANE_CHUNK):
        start = max(stop - w * _LANE_CHUNK, 0)
        x = int.from_bytes(digits[start:stop].encode(), "big") & _DIGIT_MASK
        for shift, mask, shrink in _LANE_FOLDS[: w.bit_length() - 1]:
            # a group holding lo + 256**k * hi becomes lo + 10**k * hi
            x -= (x >> shift & mask) * shrink
        lanes += _lanes(x, (stop - start) // w, w)
    return lanes


def _lanes(x: int, count: int, width: int) -> array:
    """The `count` lowest lanes of `width` bytes of a nonnegative x, as an array."""
    lanes = array(_LANE_TYPES[width], x.to_bytes(count * width, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


def _convolve_packed(
    a: Sequence[int], b: Sequence[int], lo: int, hi: int, w: int, top: int,
    signs: tuple[bool, bool],
) -> Iterable[int]:
    """Coefficients lo..hi-1 of a * b in Z, by one multiply of big decimals.

    `_product` calls it for every product that `_shift_add` would not make
    cheaper, with what it has already found: every coefficient of a * b
    fits a slot of `w` decimal digits, every |entry| of a and b is at most
    `top`, and `signs` says whether a and b have a negative entry.

    Each coefficient occupies one slot.  When an operand is signed, w holds
    twice the bound on |coefficient|, and adding the half-slot
    5 * 10**(w - 1) to every slot of the product makes all slots
    nonnegative, so they are read back from its digit string without
    borrow propagation.  The carrier is `decimal.Decimal` because CPython's
    C decimal module (libmpdec) multiplies long operands by number-theoretic
    transform, where `int` multiplication is Karatsuba.  An operand with no
    negative entry is packed through a table of w-digit strings when `top`
    is below the number of entries to pack, as for residues mod a small u.

    Slots of 1, 2, 4 or 8 digits are decoded word-parallel by `_read_lanes`;
    wider slots are read one `int` per slot, through `Decimal` above the 640
    digits CPython may refuse to convert directly.

    The result is exact: the multiply runs at the maximal precision with
    `Inexact` and `Rounded` trapped, so any rounding would raise.  Operands
    are built from per-slot strings and the product is read back from its
    digit string; a whole operand is never converted between `int` and
    `Decimal`, which would be quadratic.
    """
    signed = signs[0] or signs[1]
    if w > _INT_STR_SAFE_DIGITS:
        to_str, to_int = (lambda c: str(Decimal(c))), (lambda s: int(Decimal(s)))
    else:
        to_str, to_int = str, int
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])
    zero = "0" * w
    table = [to_str(c).zfill(w) for c in range(top + 1)] if top < len(a) + len(b) else None

    def pack(coeffs: Sequence[int], negatives: bool) -> Decimal:
        if table is not None and not negatives:
            return Decimal("".join([table[c] for c in reversed(coeffs)]))
        pos = Decimal("".join([to_str(c).zfill(w) if c > 0 else zero for c in reversed(coeffs)]))
        if not negatives:
            return pos
        neg = Decimal("".join([to_str(-c).zfill(w) if c < 0 else zero for c in reversed(coeffs)]))
        return ctx.subtract(pos, neg)

    packed_a = pack(a, signs[0])
    product = ctx.multiply(packed_a, packed_a if b is a else pack(b, signs[1]))
    if signed:
        # every slot up to hi, past the product's end too, reads back as c + half
        product = ctx.add(product, Decimal(("5" + "0" * (w - 1)) * max(hi, len(a) + len(b) - 1)))
    text = str(product)
    end = len(text) - lo * w
    digits = text[max(end - (hi - lo) * w, 0) : max(end, 0)].zfill((hi - lo) * w)
    if w <= _LANE_DIGITS:
        slots = _read_lanes(digits, w)
    else:
        slots = (to_int(digits[i : i + w]) for i in range((hi - lo - 1) * w, -1, -w))
    return map((-5 * 10 ** (w - 1)).__add__, slots) if signed else slots


def _residues(coeffs: Sequence[int], u: int) -> Sequence[int]:
    """`coeffs` reduced to residues 0..u-1, or `coeffs` itself if they all are.

    The C-level min and max cost less than reducing every entry, and the
    Newton steps of `_divide` pass residues back in.
    """
    if not coeffs or (min(coeffs) >= 0 and max(coeffs) < u):
        return coeffs
    return [c % u for c in coeffs]


def _shift_add_pays(terms: int, slot_bytes: int, window: int, out_len: int) -> bool:
    """Whether `_shift_add` beats `_convolve_packed` on a window of a product.

    Shift-and-add moves about `window` lanes of `slot_bytes` each per term
    of the sparse operand; the packed product packs, multiplies and reads
    back about `out_len` slots (the window's end), at a cost per slot that
    varies little with the modulus or the length.  The timings behind the
    constants are listed at _SHIFT_ADD_BYTES.
    """
    return terms * (slot_bytes * window + _SHIFT_ADD_TERM) <= _SHIFT_ADD_BYTES * out_len


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
    reduced once, as it is collected.
    """
    if hi <= lo:
        return []
    a_terms = len(a) - a.count(0)
    b_terms = len(b) - b.count(0)
    sparse, dense, terms = (a, b, a_terms) if a_terms <= b_terms else (b, a, b_terms)
    if not terms:
        return [0] * (hi - lo)
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
    if slot is not None and _shift_add_pays(terms, slot, hi - lo, hi):
        route, width = "shift_add", slot
        groups: dict[int, list[int]] = {}
        for k in compress(range(min(len(sparse), hi)), sparse):
            r = sparse[k] if modulus is None else sparse[k] % modulus
            if r:
                groups.setdefault(r, []).append(k)
        out = _shift_add(groups, dense, lo, hi, slot, signs[1])
    else:
        route = "packed"
        span = bound << (signs[0] or signs[1])
        width = span.bit_length() * 30103 // 100000 + 1  # the digit count, or one more
        if span < 10 ** (width - 1):
            width -= 1
        if width <= _LANE_DIGITS:
            width = 1 << (width - 1).bit_length()
        if modulus is not None:
            sparse = dense if aliased else _residues(sparse, modulus)
        out = _convolve_packed(sparse, dense, lo, hi, width, max(tops), signs)
    if _trace is not None:
        _trace["product"][route]["exact" if modulus is None else "modular"].append(
            [len(a), len(b), terms, lo, hi, width])
    return list(out) if modulus is None else [c % modulus for c in out]


def _shift_add(
    groups: Mapping[int, list[int]], dense: Sequence[int], lo: int, hi: int, slot: int,
    signed: bool,
) -> Iterable[int]:
    """Coefficients lo..hi-1 of sparse * dense in Z, by shift-and-add.

    `groups` maps each nonzero value of the sparse operand to its exponents
    below hi, in increasing order; `slot` bytes hold K * max|sparse| *
    max|dense| for its K terms, and `signed` says whether `dense` has a
    negative entry.  A signed dense operand is split into its positive and
    negative parts; each part is packed once into one int of slot-byte
    lanes, and once more in reverse order.  For each term k one copy of
    each part is shifted into place and added: the forward copy when it
    keeps fewer lanes (n + k - lo) than the reversed one (hi - k), which
    builds the window back to front.  Each group costs one multiply per
    part, and goes by its sign and the part's to a plus or a minus sum,
    which are subtracted lane by lane at the end.  A lane outside the
    window holds a partial sum of same-signed terms of one true product
    coefficient, so it never carries into its neighbour; it is cut off.
    """
    width = hi - lo
    bits = 8 * slot
    n = len(dense)
    parts = [dense]
    if signed:
        parts = [[c if c > 0 else 0 for c in dense], [-c if c < 0 else 0 for c in dense]]
    # lane j - lo of up_base shifted by k - lo holds dense(j - k); it keeps
    # n + k - lo lanes against hi - k for the reversed copy
    turn = (hi + lo - n) // 2
    sums = [[0, 0], [0, 0]]  # [up, down] of the plus and of the minus sum
    for negative, part in enumerate(parts):
        lanes = array(_LANE_TYPES[slot], part)
        if sys.byteorder == "big":
            lanes.byteswap()
        up_base = int.from_bytes(lanes.tobytes(), "little")  # lane i holds part(i)
        lanes.reverse()
        down_base = int.from_bytes(lanes.tobytes(), "little")  # lane i holds part(n - 1 - i)
        for r, ks in groups.items():
            acc = 0
            split = bisect_right(ks, turn)
            for k in ks[:split]:
                if k > lo:
                    acc += up_base << bits * (k - lo)
                else:  # 0 once the shift passes the copy's n lanes
                    acc += up_base >> bits * (lo - k)
            total = sums[(r < 0) ^ negative]
            total[0] += abs(r) * acc
            acc = 0
            # lane hi - 1 - j of the down copy holds dense(j - k); largest first
            for k in reversed(ks[split:]):
                shift = k + n - hi
                acc += down_base >> bits * shift if shift >= 0 else down_base << -bits * shift
            total[1] += abs(r) * acc
    mask = (1 << bits * width) - 1

    def lanes_of(up: int, down: int) -> array:
        back = _lanes(down & mask, width, slot)
        back.reverse()
        if sys.byteorder == "big":
            back.byteswap()
        return _lanes((up & mask) + int.from_bytes(back.tobytes(), "little"), width, slot)

    plus = lanes_of(*sums[0])
    return map(sub, plus, lanes_of(*sums[1])) if any(sums[1]) else plus


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
    _check_modulus(modulus)
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
    _check_modulus(modulus)
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
    _check_modulus(u)
    return TruncatedSeries(a.order, tuple(c % u for c in a.coeffs))
