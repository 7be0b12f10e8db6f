"""The integer carriers of the series kernel's products.

`series._product` alone knows the ring.  It bounds every coefficient of a
product, picks the route and the lane or slot width, and hands one of the
carriers here operands it has already scanned: residues 0..u-1 mod u.  Both
carriers compute exactly in Z, with no modulus of their own, and give back
the window lo..hi-1 of the product, which `_product` reduces as it collects
it.  This module is loaded by the first product `_product` forms, so an
expansion that forms none, such as an exact quotient divided by a sparse
base, neither compiles it nor imports `decimal`.

- A product by a sparse operand is built by shift-and-add (`_shift_add`)
  when binary lanes of 1, 2, 4 or 8 bytes hold the bound and a cost rule
  (`_shift_add_pays`) says that is cheaper.  The dense operand is packed
  once into lanes, a signed one as its positive and negative parts, and one
  shifted copy of it is added per nonzero term of the sparse one.  So a
  Newton step of a division by the Jacobi cube, or an exact product by the
  cube or f_delta, costs about K passes over the window, K of order
  sqrt(N), instead of a full product.
- Any other product is one packed multiply (`_convolve_packed`), which uses
  `decimal` only as an exact integer carrier, with rounding trapped.  Each
  coefficient fills a slot of decimal digits sized for the bound, so a
  product with a sparse base (the Jacobi cube, f_1, f_2) packs narrower
  slots; small nonnegative entries, as residues are, pack through a table
  of digit strings, and slots of up to 8 digits are decoded a machine word
  at a time.

`_shift_add_pays` takes shift-and-add for a window of W slots ending at
hi, by a sparse operand of K terms in lanes of s bytes, when
K * (s * W + _SHIFT_ADD_TERM) <= _SHIFT_ADD_BYTES * hi.  Timed on every
product of b = f_2/f_1**3 mod 5, 7, 25, 49 and 125 at orders 9000 to
921,224, and on the exact products of the f_1**4 * f_delta**e requests at
orders 300, 700, 1500 and 2500 (2-core x86-64, CPython 3.11), against the
packed product:

    product                                      K*s*W/hi  shift-add/packed
    Newton windows by the cube, orders <= 20,000   50-400   0.18-0.37
    X1 residual (a * out)[189458:378916] mod 49      1742   0.81
    X2 residual (a * out)[460613:921225] mod 125     2714   0.85
    f_2 * g to 189,458 mod 49                        2012   0.86
    f_2 * g to 460,613 mod 125                       3136   1.46
    dense g * h of 100-400 terms mod 5, 7           200-800   0.9-1.1
    dense g * h of 580-1560 terms mod 5, 7          840-2290  0.9-1.3
    dense g * h of 100-400 terms mod 49, 125        400-1600  1.2-1.7
    dense g * h of 600-900 terms mod 25, 49, 125   2330-3550  1.5-3.0
    exact cube * f_1, 300 to 2500                  50-142   0.77-0.45
    exact f_1**4 * f_3, 300 to 2500                 34-94   0.43-0.25
    exact f_1**4 * f_5**2, 300 to 2500             80-1032  0.31-0.63
    exact f_1**4 * K random terms to 700, 2500    1400-2500  1.00-1.11

The term cost stands for the fixed work of each term (a loop step, two int
allocations, a share of the multiplies by residues); it keeps dense
products, whose K is about W, packed at every length.  An exact signed
dense operand is shifted and added once per sign, and the last row shows
that the rule's bound already sits where such a product breaks even, so
the split is not priced apart.
"""

import sys
from array import array
from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from operator import sub

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

# the cost rule of `_shift_add_pays`; its timings are in the module docstring
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

    `series._product` calls it for every product that `_shift_add` would
    not make cheaper, with what it has already found: every coefficient of
    a * b fits a slot of `w` decimal digits, every |entry| of a and b is at
    most `top`, and `signs` says whether a and b have a negative entry.

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


def _shift_add_pays(terms: int, slot_bytes: int, window: int, out_len: int) -> bool:
    """Whether `_shift_add` beats `_convolve_packed` on a window of a product.

    Shift-and-add moves about `window` lanes of `slot_bytes` each per term
    of the sparse operand; the packed product packs, multiplies and reads
    back about `out_len` slots (the window's end), at a cost per slot that
    varies little with the modulus or the length.  The timings behind the
    constants are listed in the module docstring.
    """
    return terms * (slot_bytes * window + _SHIFT_ADD_TERM) <= _SHIFT_ADD_BYTES * out_len


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
