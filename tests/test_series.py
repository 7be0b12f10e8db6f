"""Series kernel: frozen examples, oracle cross-checks, ring properties,
and agreement of the residue-ring (modulus) path with exact-then-reduce."""

import functools
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etacert import (
    KNOWN_INSTANCES,
    EtaQuotientSpec,
    NonUnitConstantTerm,
    ParseError,
    TruncatedSeries,
    b_series,
    eta_factor,
    expand_eta_quotient,
    reduce_mod,
    series_add,
    series_invert,
    series_mul,
    series_pow,
    substitute_q_power,
)
from etacert import series as series_module
from etacert.oracle import naive_eta, naive_expand, naive_invert, naive_mul
from etacert.series import _divide_recurrence, _product, _reduce_exponents


def S(*coeffs):
    return TruncatedSeries.from_coeffs(coeffs)


# --- strategies -------------------------------------------------------------

small_coeffs = st.integers(min_value=-50, max_value=50)
series_64 = st.lists(small_coeffs, min_size=65, max_size=65).map(TruncatedSeries.from_coeffs)
series_any = st.lists(small_coeffs, min_size=1, max_size=40).map(TruncatedSeries.from_coeffs)
unit_series = st.tuples(
    st.sampled_from((1, -1)), st.lists(small_coeffs, min_size=0, max_size=48)
).map(lambda t: TruncatedSeries.from_coeffs([t[0], *t[1]]))


# --- TruncatedSeries basics -------------------------------------------------

class TestTruncatedSeries:
    def test_length_invariant(self):
        with pytest.raises(ValueError):
            TruncatedSeries(3, (1, 2))
        with pytest.raises(ValueError):
            TruncatedSeries(-1, ())

    def test_truncate(self):
        s = S(1, 2, 3, 4)
        assert s.truncate(1) == S(1, 2)
        assert s.truncate(3) is s
        with pytest.raises(ValueError):
            s.truncate(4)

    def test_json_roundtrip_big_coefficients(self):
        s = expand_eta_quotient(EtaQuotientSpec(1, {1: -3}), 300)
        assert max(map(abs, s.coeffs)) > 2**64  # decimal strings are load-bearing
        data = s.to_json_dict()
        assert data["order"] == s.order
        assert all(isinstance(c, str) for c in data["coeffs"])
        assert tuple(map(int, data["coeffs"])) == s.coeffs

    def test_monomial(self):
        assert TruncatedSeries.monomial(2, 4).coeffs == (0, 0, 1, 0, 0)
        with pytest.raises(ValueError):
            TruncatedSeries.monomial(5, 4)


# --- add / mul / invert / pow ----------------------------------------------

class TestRingOps:
    def test_add_cancellation(self):
        assert series_add(S(1, 1), S(1, -1)) == S(2, 0)

    def test_add_identity(self):
        s = S(5, -2, 7)
        assert series_add(s, S(0, 0, 0)) == s

    def test_add_eta_plus_partitions(self):
        # oracle: pentagonal eta plus its convolution inverse
        e = eta_factor(1, 6)
        total = series_add(e, naive_invert(naive_eta(1, 6)))
        assert total.coeffs == (2, 0, 1, 3, 5, 8, 11)

    def test_mul_telescoping(self):
        geometric = TruncatedSeries(10, (1,) * 11)
        assert series_mul(S(1, -1).truncate(1), geometric) == TruncatedSeries.one(1)
        one_minus_q = TruncatedSeries(10, (1, -1) + (0,) * 9)
        assert series_mul(one_minus_q, geometric) == TruncatedSeries.one(10)

    def test_mul_unit_roundtrip_f1(self):
        f1 = eta_factor(1, 50)
        assert series_mul(f1, series_invert(f1)) == TruncatedSeries.one(50)

    def test_cube_matches_weighted_triangular_sum(self):
        # independent evaluation of the alternating (2n+1) q^(n(n+1)/2) sum
        expected = [0] * 21
        n = 0
        while n * (n + 1) // 2 <= 20:
            expected[n * (n + 1) // 2] = (2 * n + 1) * (-1) ** n
            n += 1
        f1 = eta_factor(1, 20)
        cube = series_mul(series_mul(f1, f1), f1)
        assert cube == TruncatedSeries.from_coeffs(expected)

    def test_invert_one(self):
        assert series_invert(TruncatedSeries.one(5)) == TruncatedSeries.one(5)

    def test_invert_partition_numbers(self):
        inv = series_invert(eta_factor(1, 10))
        assert inv.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
        assert inv == naive_invert(naive_eta(1, 10))

    def test_invert_non_unit(self):
        with pytest.raises(NonUnitConstantTerm):
            series_invert(S(2, 1))

    def test_invert_negative_unit(self):
        s = S(-1, 4, -2)
        assert series_mul(s, series_invert(s)) == TruncatedSeries.one(2)

    def test_pow_binomial(self):
        assert series_pow(S(1, 1, 0), 2) == S(1, 2, 1)

    def test_pow_zero_exponent(self):
        assert series_pow(S(3, 1, 4), 0) == TruncatedSeries.one(2)

    def test_pow_negative_gives_b_sequence(self):
        # oracle route: convolution inverse cubed, times (q^2;q^2)
        got = series_mul(series_pow(eta_factor(1, 10), -3), eta_factor(2, 10))
        inv = naive_invert(naive_eta(1, 10))
        want = naive_mul(naive_mul(naive_mul(inv, inv), inv), naive_eta(2, 10))
        assert got == want

    def test_pow_negative_non_unit(self):
        with pytest.raises(NonUnitConstantTerm):
            series_pow(S(2, 1), -1)


# --- substitution and eta factors -------------------------------------------

class TestSubstitutionAndEta:
    def test_substitute_simple(self):
        assert substitute_q_power(S(1, 1), 5) == TruncatedSeries(5, (1, 0, 0, 0, 0, 1))

    def test_substitute_pentagonal_doubled(self):
        got = substitute_q_power(eta_factor(1, 7), 2)
        assert got.order == 14
        assert got.support() == (0, 2, 4, 10, 14)
        assert got == naive_eta(2, 14)

    def test_substitute_identity(self):
        s = S(4, 5, 6)
        assert substitute_q_power(s, 1) is s

    def test_substitute_order_cap_and_extension(self):
        s = S(1, 2)
        assert substitute_q_power(s, 3, order=2).coeffs == (1, 0, 0)
        # exponents 4 and 5 are still determined by the known prefix
        assert substitute_q_power(s, 3, order=9).order == 5

    def test_eta_factor_pentagonal(self):
        assert eta_factor(1, 12).coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)
        assert eta_factor(1, 12) == naive_eta(1, 12)

    def test_eta_factor_scaled(self):
        assert eta_factor(5, 4) == TruncatedSeries(4, (1, 0, 0, 0, 0))
        assert eta_factor(2, 14) == substitute_q_power(eta_factor(1, 7), 2)

    @pytest.mark.parametrize("delta", [1, 2, 7])
    def test_eta_factor_every_order_against_finite_product(self, delta):
        # every truncation point, so each pentagonal exponent is met exactly
        # at the order, one past it and one before it
        full = naive_eta(delta, 150)
        for order in range(151):
            assert eta_factor(delta, order) == full.truncate(order), order

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_substitute_every_order_against_definition(self, d):
        a = S(3, -1, 4, 1, -5, 9, 2)
        for order in range(a.order * d + d):
            want = [a.coeffs[n // d] if n % d == 0 else 0 for n in range(order + 1)]
            assert substitute_q_power(a, d, order).coeffs == tuple(want), order


# --- eta quotient spec -------------------------------------------------------

class TestEtaQuotientSpec:
    def test_normalization_drops_zeros(self):
        assert EtaQuotientSpec(10, {1: -3, 2: 1, 10: 0}) == EtaQuotientSpec(10, {2: 1, 1: -3})

    def test_divisor_validation(self):
        with pytest.raises(ValueError):
            EtaQuotientSpec(10, {3: 1})
        with pytest.raises(ValueError):
            EtaQuotientSpec(10, {0: 1})
        with pytest.raises(ValueError):
            EtaQuotientSpec(0, {})

    def test_sums(self):
        spec = EtaQuotientSpec(10, {1: 22, 2: 1, 5: -5})
        assert spec.exponent_sum() == 18
        assert spec.weighted_sum() == -1

    def test_from_string(self):
        spec = EtaQuotientSpec.from_string("1:-3,2:1")
        assert spec.level == 2
        assert dict(spec.exponents) == {1: -3, 2: 1}
        assert EtaQuotientSpec.from_string("1:22,2:1,5:-5").level == 10

    def test_from_string_errors(self):
        with pytest.raises(ParseError):
            EtaQuotientSpec.from_string("1:")
        with pytest.raises(ParseError):
            EtaQuotientSpec.from_string("1:2,x:3")
        with pytest.raises(ParseError):
            EtaQuotientSpec.from_string("1:2,1:3")
        err = None
        try:
            EtaQuotientSpec.from_string("1:1,2:y")
        except ParseError as exc:
            err = exc
        assert err is not None and err.position == 4


# --- expansion ---------------------------------------------------------------

def _expand_per_factor(
    spec: EtaQuotientSpec, order: int, modulus: int | None = None
) -> TruncatedSeries:
    """The reference route: each factor's exponent as given, by `series_pow`.

    Per factor, (q;q)_inf is inverted once if r_delta < 0 and powered by
    squaring at order//delta, then lifted by q -> q^delta; no exponent is
    reduced mod the modulus and no cube comes from Jacobi's identity.
    """
    result = TruncatedSeries.one(order)
    for delta, r in spec.exponents:
        powered = series_pow(eta_factor(1, order // delta), r, modulus)
        result = series_mul(result, substitute_q_power(powered, delta, order), modulus)
    return result


class TestExpandEtaQuotient:
    def test_b_sequence(self):
        got = expand_eta_quotient(EtaQuotientSpec(2, {1: -3, 2: 1}), 6)
        assert got == naive_expand(EtaQuotientSpec(2, {1: -3, 2: 1}), 6)

    def test_congruent_form_mod25(self):
        lhs = expand_eta_quotient(EtaQuotientSpec(10, {1: 22, 2: 1, 5: -5}), 100)
        rhs = expand_eta_quotient(EtaQuotientSpec(2, {1: -3, 2: 1}), 100)
        assert reduce_mod(lhs, 25) == reduce_mod(rhs, 25)

    def test_empty_spec(self):
        assert expand_eta_quotient(EtaQuotientSpec(1, {}), 5) == TruncatedSeries.one(5)

    def test_order_zero(self):
        assert expand_eta_quotient(EtaQuotientSpec(2, {1: -3, 2: 1}), 0) == TruncatedSeries.one(0)

    @pytest.mark.parametrize(
        "level,exps",
        [
            (10, {1: 22, 2: 1, 5: -5}),
            (10, {1: 13}),
            (14, {1: 4, 2: 1, 7: -1}),
            (14, {1: 3}),
            (14, {1: 46, 2: 1, 7: -7}),
            (14, {1: 18}),
            (2, {1: -3, 2: 1}),
        ],
    )
    def test_matches_oracle_to_300(self, level, exps):
        spec = EtaQuotientSpec(level, exps)
        assert expand_eta_quotient(spec, 300) == naive_expand(spec, 300)

    @pytest.mark.parametrize("r", [r for r in range(-10, 11) if r])
    def test_jacobi_route_matches_per_factor_route(self, r):
        # every split |r| = 3c + s, both signs, on the exact path
        spec = EtaQuotientSpec(6, {1: r, 6: 1})
        assert expand_eta_quotient(spec, 600) == _expand_per_factor(spec, 600)


# --- modular reduction -------------------------------------------------------

class TestReduceMod:
    def test_least_nonnegative(self):
        assert reduce_mod(S(1, -3, 0, 5), 5) == S(1, 2, 0, 0)

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            reduce_mod(S(1), 1)

    def test_idempotent(self):
        s = S(7, -9, 13, -2)
        assert reduce_mod(reduce_mod(s, 2), 2) == reduce_mod(s, 2)

    def test_cube_class3_vanishes(self):
        cube = series_pow(eta_factor(1, 30), 3)
        reduced = reduce_mod(cube, 5)
        for n, c in enumerate(reduced.coeffs):
            if n % 5 == 3:
                assert c == 0


# --- binomial congruence lemma ----------------------------------------------

@pytest.mark.parametrize("p,alpha", [(5, 1), (5, 2), (7, 1), (7, 2)])
def test_binomial_lemma(p, alpha):
    order = 300
    # f_alpha^p == f_(p*alpha)  (mod p)
    lhs = series_pow(eta_factor(alpha, order), p)
    rhs = eta_factor(p * alpha, order)
    assert reduce_mod(lhs, p) == reduce_mod(rhs, p)
    # f_1^(p^alpha) == f_p^(p^(alpha-1))  (mod p^alpha)
    lhs = series_pow(eta_factor(1, order), p**alpha)
    rhs = series_pow(eta_factor(p, order), p ** (alpha - 1))
    assert reduce_mod(lhs, p**alpha) == reduce_mod(rhs, p**alpha)


# --- convolution kernel equivalence ------------------------------------------

def _convolve_schoolbook(a, b, out_len):
    """The reference product: the plain double loop, skipping zero entries."""
    out = [0] * out_len
    for i, ai in enumerate(a):
        if i >= out_len:
            break
        if ai:
            for j, bj in enumerate(b[: out_len - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def _reference(a, b, lo, hi, u=None):
    """Coefficients lo..hi-1 of a * b by the schoolbook loop, mod u unless u is None."""
    window = _convolve_schoolbook(a, b, hi)[lo:]
    return window if u is None else [c % u for c in window]


def _sparse(rng, length, mag, density):
    return tuple(rng.randint(-mag, mag) if rng.random() < density else 0 for _ in range(length))


@pytest.fixture
def no_shift_add(monkeypatch):
    """Every `_product` from now on is one packed multiply: shift-and-add never pays."""
    monkeypatch.setattr(series_module, "_shift_add_pays", lambda *args: False)


@functools.cache
def _random_products():
    """(a, b, lo, hi, exact coefficients 0..hi-1 of a * b) for random operands.

    Short operands of any size of entry, then long ones of a few thousand
    entries: the schoolbook loop skips zero entries of its first operand,
    so a sparse first operand keeps the reference cheap.  Every ring of
    `test_packed_matches_schoolbook_random` reads the same exact products.
    """
    rng = random.Random(20260810)
    cases = []
    for _ in range(300):
        la = rng.randint(1, 60)
        lb = rng.randint(1, 60)
        mag = rng.choice((1, 9, 10**6, 10**30))
        a = tuple(rng.randint(-mag, mag) for _ in range(la))
        b = tuple(rng.randint(-mag, mag) for _ in range(lb))
        hi = rng.randint(1, la + lb)
        cases.append((a, b, rng.randint(0, hi), hi, _convolve_schoolbook(a, b, hi)))
    for mag in (1, 48, 10**6, 10**30, 2**300):
        la, lb = rng.randint(1000, 3000), rng.randint(1000, 3000)
        a = _sparse(rng, la, mag, 0.02)
        b = tuple(rng.randint(-mag, mag) for _ in range(lb))
        hi = rng.randint(1, la + lb - 1)
        cases.append((a, b, rng.randint(0, hi), hi, _convolve_schoolbook(a, b, hi)))
    return cases


@pytest.mark.parametrize("u", [None, 2, 3, 49, 125, 1999, 2000, 2001, 10**6, 10**30])
def test_packed_matches_schoolbook_random(u, no_shift_add):
    for a, b, lo, hi, exact in _random_products():
        expected = exact if u is None else [c % u for c in exact]
        for start in (0, lo):
            assert _product(a, b, start, hi, u) == expected[start:]
            assert _product(b, a, start, hi, u) == expected[start:]
    # 1000 + 1000 coefficients: u up to 2000 packs by table, larger u per
    # coefficient; inputs carry negative entries and entries >= u
    rng = random.Random(1 if u is None else u)
    mag = 3 * (u or 10**6)
    a = _sparse(rng, 1000, mag, 0.05)
    b = tuple(rng.randint(-mag, mag) for _ in range(1000))
    assert min(a) < 0 and min(b) < 0 and max(b) >= (u or 0)
    expected = _reference(a, b, 0, 1999, u)
    for lo, hi in ((0, 1), (0, 999), (0, 1000), (0, 1999), (1, 2), (500, 999), (998, 1999)):
        assert _product(a, b, lo, hi, u) == expected[lo:hi]
        assert _product(b, a, lo, hi, u) == expected[lo:hi]


def test_packed_edge_cases(no_shift_add):
    assert _product((0, 0), (0, 0, 0), 0, 4) == [0, 0, 0, 0]
    assert _product((-1,), (1, -1, 1), 0, 3) == [-1, 1, -1]
    # a zero operand on either side
    b = tuple(range(-200, 200))
    assert _product((0,) * 200, b, 0, 300) == [0] * 300
    assert _product(b, (0,), 0, 401) == [0] * 401
    # hi beyond len(a) + len(b) - 1 pads with zeros, from 0 or from past the end
    a, b = (3, -1, 4), (1, -5, 9, 2)
    assert _product(a, b, 0, 10) == _convolve_schoolbook(a, b, 6) + [0] * 4
    assert _product(a, b, 0, 10) == _convolve_schoolbook(a, b, 10)
    assert _product(a, b, 4, 10) == _convolve_schoolbook(a, b, 6)[4:] + [0] * 4
    assert _product(a, b, 7, 10) == [0] * 3


def test_packed_nonnegative_inputs(no_shift_add):
    # residues mod u: no negative half is packed and no offset is needed
    rng = random.Random(49)
    for u in (2, 49, 10**12):
        a = tuple(abs(c) for c in _sparse(rng, 2000, u - 1, 0.1))
        b = tuple(rng.randrange(u) for _ in range(2500))
        assert _product(a, b, 0, 2000) == _convolve_schoolbook(a, b, 2000)
    assert _product((0, 3), (5, 0, 7), 0, 4) == [0, 15, 0, 21]


@pytest.mark.parametrize("u", [None, 5, 49, 10**6])
@pytest.mark.parametrize("signed", [False, True])
def test_packed_aliased_operands(u, signed, no_shift_add, monkeypatch):
    # a square is packed once; mod u its operand is reduced once
    reduced = []
    real_residues = series_module._residues

    def residues(coeffs, modulus):
        reduced.append(coeffs)
        return real_residues(coeffs, modulus)

    monkeypatch.setattr(series_module, "_residues", residues)
    rng = random.Random(11 if u is None else u + 1)
    mag = 10**40 if u is None else 2 * u
    a = tuple(rng.randint(-mag if signed else 0, mag) for _ in range(900))
    assert (min(a) < 0) == signed
    for lo in (0, 450):
        expected = _reference(a, a, lo, 900, u)
        reduced.clear()
        assert _product(a, a, lo, 900, u) == expected
        assert len(reduced) == (0 if u is None else 1)
        reduced.clear()
        assert _product(a, tuple(list(a)), lo, 900, u) == expected
        assert len(reduced) == (0 if u is None else 2)


@pytest.mark.parametrize(
    "value", [4, 5, 9, 10, 49, 50, 99, 100, 5 * 10**20 - 1, 5 * 10**20, 10**21 - 1, 10**21]
)
def test_packed_slot_width_boundaries(value, no_shift_add):
    # products whose largest coefficient sits at either side of a digit or
    # half-slot boundary, in both signs
    for a, b in (((value,), (1,)), ((-value,), (1,)), ((value, value), (1, 1)),
                 ((value, -value), (1, 1)), ((1,) * 3, (value,) * 3)):
        assert _product(a, b, 0, 4) == _convolve_schoolbook(a, b, 4)


def test_packed_wide_slots(no_shift_add):
    # slots of more than 4300 digits: CPython refuses int <-> str conversions
    # that long unless the process-wide limit is raised, which the kernel must not do
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    a, b = (10**5000, 1) * 40, (10**5000, -1) * 40
    assert _product(a, b, 0, 80) == _convolve_schoolbook(a, b, 80)
    c = (-(7**6000), 3, 0, 2**20000)
    assert _product(c, c, 0, 7) == _convolve_schoolbook(c, c, 7)
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str conversion limit"
)
@pytest.mark.parametrize("u", [None, 10**400 + 1])
def test_packed_slots_beyond_lowest_conversion_limit(u, no_shift_add):
    # 640 digits is the lowest limit CPython accepts; slots of 700-1300
    # digits, exact or mod u = 10**400 + 1, must decode under it as well,
    # without the kernel raising it
    if u is None:
        rng = random.Random(640)
        a = tuple(rng.randint(-(10**600), 10**600) for _ in range(30))
        b = tuple(rng.randint(-(10**650), 10**650) for _ in range(30))
    else:
        rng = random.Random(400)
        a = tuple(rng.randint(-2 * u, 2 * u) for _ in range(40))
        b = tuple(rng.randint(0, u - 1) for _ in range(30))
    end, square_end = len(a) + len(b) - 1, 2 * len(a) - 1
    expected = _reference(a, b, 0, end, u)
    square = _reference(a, a, 0, square_end, u)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = _product(a, b, 0, end, u)
        got_window = _product(a, b, 20, end, u)
        got_square = _product(a, a, 0, square_end, u)
        got_series = series_mul(S(*a), S(*a), modulus=u)
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == expected
    assert got_window == expected[20:]
    assert got_square == square
    assert got_series.coeffs == tuple(square[: len(a)])


def test_residue_packing_residue_inputs(no_shift_add):
    # residues already in 0..u-1, including all u - 1 (the slot-width bound)
    # and all zero
    for u in (2, 7, 49, 10**12):
        top = (u - 1,) * 700
        assert _product(top, top[:500], 0, 1199, u) == _reference(top, top[:500], 0, 1199, u)
        assert _product((0,) * 300, top, 0, 500, u) == [0] * 500
        assert _product(top, (u, -u, 2 * u), 0, 702, u) == [0] * 702


def test_residue_packing_out_len_beyond_product(no_shift_add):
    rng = random.Random(7)
    a = tuple(rng.randint(-100, 100) for _ in range(70))
    b = tuple(rng.randint(-100, 100) for _ in range(90))
    for u in (7, 49, 10**9):
        got = _product(a, b, 0, 200, u)
        assert got == _reference(a, b, 0, 159, u) + [0] * 41
        assert got == _reference(a, b, 0, 200, u)


# --- slot bound from the nonzero count, and word-parallel lane decoding ----------

def _bound_operands(k, stride, n, amax, bmax, signed):
    """k entries of size amax, `stride` apart, against n dense entries of size bmax.

    Signed, entry t of the first has sign (-1)**t and entry j of the second
    (-1)**(j // stride), so all k terms of a fully overlapped product
    coefficient share one sign and its size is k * amax * bmax.
    """
    a = [0] * ((k - 1) * stride + 1)
    for t in range(k):
        a[t * stride] = -amax if signed and t & 1 else amax
    b = [-bmax if signed and (j // stride) & 1 else bmax for j in range(n)]
    return a, b


def _entries(counters, ring=None):
    """(route, [len(a), len(b), K, lo, hi, width]) of every product a `tracing()`
    block counted, in `ring` or in both; in call order within a route and ring."""
    return [(route, entry) for route, rings in counters["product"].items()
            for name, entries in rings.items() if ring in (None, name) for entry in entries]


# (u, max|a|, max|b|, K, lane width).  Mod u, K entries of u - 1 against a
# dense operand of u - 1: K * (u - 1)**2 on either side of 10, 100, 10**4 and
# 10**8.  Exact, with mixed signs: 2 * K * max|a| * max|b| on either side of
# the same, so the largest |c| sits just under the half-slot.  None is the
# per-slot string route, in slots of exactly that bound's digit count
@pytest.mark.parametrize(
    "u,amax,bmax,k,lane",
    [(3, 2, 2, 2, 1), (2, 1, 1, 9, 1), (2, 1, 1, 10, 2), (4, 3, 3, 11, 2), (2, 1, 1, 100, 4),
     (34, 33, 33, 9, 4), (34, 33, 33, 10, 8), (49, 48, 48, 40, 8), (10**4, 9999, 9999, 1, 8),
     (10**4, 9999, 9999, 2, None),
     (None, 1, 1, 4, 1), (None, 1, 1, 5, 2), (None, 1, 1, 49, 2), (None, 1, 1, 50, 4),
     (None, 7, 7, 102, 4), (None, 7, 7, 103, 8), (None, 5000, 9999, 1, 8),
     (None, 5000, 10**4, 1, None), (None, 10**20, 3, 7, None)],
)
def test_slot_bound_reached(u, amax, bmax, k, lane, no_shift_add):
    # the slots hold exactly the bound, counted from the nonzero entries, in
    # every window that reads a fully overlapped coefficient
    with series_module.tracing() as counters:
        for stride in (1, 2, 3):
            a, b = _bound_operands(k, stride, stride * k + 5, amax, bmax, signed=u is None)
            end = len(a) + len(b) - 1
            exact = _convolve_schoolbook(a, b, end)
            assert max(exact) == k * amax * bmax
            assert u is not None or min(exact) == -max(exact)
            for lo, hi in ((0, end), (0, len(b)), (stride * (k - 1), end)):
                expected = _reference(a, b, lo, hi, u)
                assert _product(a, b, lo, hi, u) == expected
                assert _product(b, a, lo, hi, u) == expected
    entries = _entries(counters)
    assert len(entries) == 18 and {route for route, _ in entries} == {"packed"}
    span = k * amax * bmax << (u is None)
    assert {entry[5] for _, entry in entries} == {lane or len(str(span))}


@pytest.mark.parametrize("u", [None, 2, 49, 10**30])
def test_all_zero_operands(u, no_shift_add):
    # an operand with no nonzero entry, before or after reduction mod u,
    # gives zeros on either side, squared, and past the product's length
    rng = random.Random(u)
    zeros = tuple(rng.randint(-3, 3) * (u or 0) for _ in range(60))
    other = tuple(rng.randint(-10**6, 10**6) for _ in range(40))
    for a, b in ((zeros, other), (other, zeros), (zeros, zeros[:7])):
        for hi in (1, 40, 99, 150):
            assert _product(a, b, 0, hi, u) == [0] * hi
    assert _product(zeros, zeros, 0, 130, u) == [0] * 130
    assert _product(zeros, zeros, 50, 130, u) == [0] * 80
    assert _product((0,), (0,), 0, 1, u) == [0]


@pytest.mark.parametrize("u", [None, 49])
def test_lane_chunk_boundaries(u, no_shift_add):
    # slots are decoded in chunks of _LANE_CHUNK; windows end just before,
    # on and just after a chunk boundary, and one past two chunks, from 0 and
    # from a slot inside the first chunk
    chunk = series_module._LANE_CHUNK
    rng = random.Random(chunk)
    n = 2 * chunk + 3
    sparse = _sparse(rng, n, 9, 0.01)
    dense = tuple(rng.randint(-9, 9) for _ in range(n))
    windows = [(lo, hi) for hi in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1) for lo in (0, 5)]
    with series_module.tracing() as counters:
        for lo, hi in windows:
            expected = _reference(sparse, dense, lo, hi, u)
            assert _product(dense, sparse, lo, hi, u) == expected, (lo, hi)
    entries = _entries(counters)
    assert [(route, entry[3], entry[4]) for route, entry in entries] == [
        ("packed", lo, hi) for lo, hi in windows]
    assert all(entry[5] <= series_module._LANE_DIGITS for _, entry in entries)


# --- windowed products: shift-and-add by a sparse operand -----------------------


def _lanes_used(counters, ring):
    """The lane bytes of every shift-and-add in `ring`, and "packed" if a packed
    multiply ran there."""
    return {entry[5] if route == "shift_add" else route
            for route, entry in _entries(counters, ring)}


@pytest.mark.parametrize("u", [2, 7, 49, 125])
def test_shift_add_windows_match_schoolbook(u):
    rng = random.Random(u)
    # signed entries far outside 0..u-1 on both sides
    sparse = [0] * 300
    for k in rng.sample(range(300), 8) + [0, 299]:
        sparse[k] = rng.choice((-1, 1)) * rng.randint(1, 10**6)
    dense = [rng.randint(-10**6, 10**6) for _ in range(200)]
    end = len(sparse) + len(dense) - 1
    # from 0, empty, inside, the Newton windows [n, 2n), and past the end
    windows = [(0, 60), (0, end), (37, 37), (150, 420), (100, 200), (150, 300),
               (end - 30, end + 40), (end + 5, end + 50)]
    with series_module.tracing() as counters:
        for lo, hi in windows:
            expected = _reference(sparse, dense, lo, hi, u)
            assert series_module._product(sparse, dense, lo, hi, u) == expected, (lo, hi)
            assert series_module._product(dense, sparse, lo, hi, u) == expected, (lo, hi)
            assert series_module._product(sparse, sparse, lo, hi, u) == _reference(
                sparse, sparse, lo, hi, u
            ), (lo, hi)
    # every window was shifted and added; an empty one formed no product
    entries = _entries(counters)
    assert [(route, entry[3], entry[4]) for route, entry in entries] == [
        ("shift_add", lo, hi) for lo, hi in windows if lo < hi for _ in range(3)]
    assert _lanes_used(counters, "modular") <= {1, 2, 4}


@pytest.mark.parametrize("u", [2, 49])
def test_shift_add_operands_reducing_to_zero(u):
    rng = random.Random(u)
    multiples = [0] * 80
    for k in rng.sample(range(80), 6):
        multiples[k] = u * rng.randint(-9, 9) or u
    dense = [rng.randint(-10**4, 10**4) for _ in range(90)]
    sparse = [0] * 90
    sparse[3] = sparse[50] = -1
    with series_module.tracing() as counters:
        for a, b in ((multiples, dense), (dense, multiples), (sparse, [u] * 90)):
            for lo, hi in ((0, 100), (40, 169), (150, 200)):
                assert series_module._product(a, b, lo, hi, u) == [0] * (hi - lo)
    assert len(_entries(counters)) == 9
    assert _lanes_used(counters, "modular") <= {1, 2, 4}
    with series_module.tracing() as counters:
        assert series_module._product([0] * 40, dense, 0, 129, u) == [0] * 129
    assert _entries(counters) == []


# (u, K, lane bytes): K * (u - 1)**2 just below and at 2**8, 2**16, 2**32 and
# 2**64; None is the packed product
@pytest.mark.parametrize(
    "u,k,lane",
    [(2, 255, 1), (2, 256, 2), (16, 291, 2), (17, 256, 4), (2**16, 1, 4), (2**16 + 1, 1, 8),
     (2**32, 1, 8), (2**32 + 1, 1, "packed")],
)
def test_shift_add_lane_bound_reached(u, k, lane):
    # K entries of u - 1, 3 apart, against a dense operand of u - 1: the
    # coefficients from 3 * (K - 1) on are the bound itself
    a, b = _bound_operands(k, 3, 3 * k + 5, u - 1, u - 1, signed=False)
    end = len(a) + len(b) - 1
    exact = _convolve_schoolbook(a, b, end)
    assert max(exact) == exact[3 * (k - 1)] == k * (u - 1) ** 2
    with series_module.tracing() as counters:
        for lo, hi in ((max(3 * k - 5, 0), 3 * k), (0, end + 2)):
            expected = _reference(a, b, lo, hi, u)
            assert series_module._product(a, b, lo, hi, u) == expected
            assert series_module._product(b, a, lo, hi, u) == expected
    assert len(_entries(counters)) == 4
    assert _lanes_used(counters, "modular") == {lane}


# --- the same route rule for exact products ----------------------------------------

_exact_entries = st.integers(-(2**20), 2**20)


@st.composite
def _exact_operands(draw):
    """Two signed operands of any sparsity, one of them perhaps with no negative entry."""

    def operand(label):
        length = draw(st.integers(1, 40), label=f"{label} length")
        terms = draw(
            st.dictionaries(st.integers(0, length - 1), _exact_entries, max_size=length),
            label=label,
        )
        return [terms.get(k, 0) for k in range(length)]

    a, b = operand("a"), operand("b")
    if draw(st.booleans(), label="b nonnegative"):
        b = [abs(c) for c in b]
    return a, b


@settings(max_examples=150, deadline=None)
@given(operands=_exact_operands(), data=st.data())
def test_exact_shift_add_matches_schoolbook(operands, data):
    a, b = operands
    end = len(a) + len(b) - 1
    # windows from 0, with lo > 0, with hi past the product's end, and with
    # lo past every shifted copy
    lo = data.draw(st.integers(0, end + 3), label="lo")
    hi = data.draw(st.integers(lo, end + 8), label="hi")
    expected = _convolve_schoolbook(a, b, hi)[lo:]
    assert series_module._product(a, b, lo, hi) == expected
    assert series_module._product(b, a, lo, hi) == expected
    # shift-and-add itself, by either operand, in the narrowest lanes that
    # hold the bound, whichever route the cost rule picks
    for sparse, dense in ((a, b), (b, a)):
        terms = len(sparse) - sparse.count(0)
        if not terms:
            continue  # `_product` forms no product by an all-zero operand
        bound = terms * max(map(abs, sparse)) * max(map(abs, dense))
        slot = next(s for s in (1, 2, 4, 8) if bound < 1 << 8 * s)
        groups = {}
        for k, c in enumerate(sparse[:hi]):
            if c:
                groups.setdefault(c, []).append(k)
        got = series_module._shift_add(groups, dense, lo, hi, slot, min(dense) < 0)
        assert list(got) == expected


# (K, max|sparse|, max|dense|, lane bytes): K * max|sparse| * max|dense| at
# 2**(8s) - 1 and at 2**(8s) for s = 1, 2, 4 and 8; "packed" past 8 bytes
@pytest.mark.parametrize(
    "k,smax,dmax,lane",
    [(3, 5, 17, 1), (4, 8, 8, 2), (3, 85, 257, 2), (4, 2**7, 2**7, 4),
     (3, 21845, 65537, 4), (4, 2**15, 2**15, 8),
     (3, 21845, 281479271743489, 8), (4, 2**31, 2**31, "packed")],
)
@pytest.mark.parametrize("signed", [False, True])
def test_exact_shift_add_lane_bound_reached(k, smax, dmax, lane, signed):
    # signed, the K terms of a fully overlapped coefficient share one sign,
    # so the plus or the minus sum of its lane reaches the bound
    with series_module.tracing() as counters:
        for stride in (1, 3):
            a, b = _bound_operands(k, stride, stride * k + 5, smax, dmax, signed)
            end = len(a) + len(b) - 1
            exact = _convolve_schoolbook(a, b, end)
            assert max(map(abs, exact)) == k * smax * dmax
            first = stride * (k - 1)  # the first fully overlapped coefficient
            for lo, hi in ((first, first + 5), (0, end + 2)):
                expected = _convolve_schoolbook(a, b, hi)[lo:]
                assert series_module._product(a, b, lo, hi) == expected
                assert series_module._product(b, a, lo, hi) == expected
    assert len(_entries(counters)) == 8
    assert _lanes_used(counters, "exact") == {lane}


@pytest.mark.parametrize("exps", [{1: 4, 3: 1}, {1: -3, 5: 2}])
def test_exact_requests_form_no_packed_product(exps):
    # f1**4 * f3 is the cube times f1, then times f3; f1**-3 * f5**2 is f1
    # squared at order 500, lifted and divided by the cube: every product
    # has a sparse operand, so none is a packed multiply
    spec = EtaQuotientSpec(max(exps), exps)
    with series_module.tracing() as counters:
        got = expand_eta_quotient(spec, 2500)
    assert counters["product"]["packed"]["exact"] == []
    assert counters["product"]["shift_add"]["exact"]
    assert got == _expand_per_factor(spec, 2500)


def test_residue_operands_are_not_reduced_again():
    residues = [0, 1, 6, 3]
    assert series_module._residues(residues, 7) is residues
    assert series_module._residues((), 7) == ()
    assert series_module._residues([0, 7, -1, 3], 7) == [0, 0, 6, 3]
    assert series_module._residues([-7], 7) == [0]


# (lo, hi, route, width) of each product of b_series(19549, 49), in call
# order: the Newton windows h = (a * g)[n:2n] by the cube, f_2 * g and the
# residual are shifted and added, in 2-byte lanes for the 25 cube terms below
# 306 and in 4-byte lanes from there; the dense g * h and g * (num - a * y)
# stay packed, in 8-digit slots
_B_19549_PRODUCTS = [
    (153, 306, "shift_add", 2), (0, 153, "packed", 8),
    (306, 612, "shift_add", 4), (0, 306, "packed", 8),
    (612, 1224, "shift_add", 4), (0, 612, "packed", 8),
    (1224, 2448, "shift_add", 4), (0, 1224, "packed", 8),
    (2448, 4896, "shift_add", 4), (0, 2448, "packed", 8),
    (4896, 9775, "shift_add", 4), (0, 4879, "packed", 8),
    (0, 9775, "shift_add", 4), (9775, 19550, "shift_add", 4), (0, 9775, "packed", 8),
]


def test_b_series_product_routes():
    # each route's list holds its products in call order; the interleaving of
    # the two is checked call by call below
    with series_module.tracing() as counters:
        b_series(19549, 49)
    assert _entries(counters, "exact") == []
    for route in ("packed", "shift_add"):
        assert [(entry[3], entry[4], route, entry[5])
                for entry in counters["product"][route]["modular"]] == [
            product for product in _B_19549_PRODUCTS if product[2] == route]


def test_shift_add_reduces_only_the_dense_operand(monkeypatch):
    # on the shift-and-add route of a modular product `_residues` sees the
    # dense operand alone: the sparse one, such as the signed Jacobi cube of
    # every Newton window, is reduced term by term over its nonzero entries,
    # never whole; a packed product reduces each operand, a square once
    reduced, calls = [], []
    real_residues, real_product = series_module._residues, series_module._product

    def residues(coeffs, u):
        reduced.append(coeffs)
        return real_residues(coeffs, u)

    def product(a, b, lo, hi, modulus=None):
        reduced.clear()
        with series_module.tracing() as counters:
            out = real_product(a, b, lo, hi, modulus)
        (route, entry), = _entries(counters, "modular")
        calls.append((a, b, list(reduced), (entry[3], entry[4], route, entry[5])))
        return out

    monkeypatch.setattr(series_module, "_residues", residues)
    monkeypatch.setattr(series_module, "_product", product)
    b_series(19549, 49)
    assert [call[3] for call in calls] == _B_19549_PRODUCTS
    for a, b, seen, (_, _, route, _) in calls:
        dense = b if len(a) - a.count(0) <= len(b) - b.count(0) else a
        if route == "packed":
            assert len(seen) == 1 + (a is not b)
        else:
            assert len(seen) == 1 and seen[0] is dense


@pytest.mark.parametrize(
    "terms,slot,window,out_len,pays",
    [
        # X1, b mod 49 to 378,915: the residual (a * out)[189458:378916] and
        # f_2 * g to 189,458, timed at 0.81 and 0.86 of the packed product
        (871, 4, 189458, 378916, True),
        (503, 4, 189458, 189458, True),
        # X2, b mod 125 to 921,224: the residual at 0.85, f_2 * g at 1.46
        (1357, 4, 460612, 921225, True),
        (784, 4, 460613, 460613, False),
        # dense g * h of the first two Newton steps of b mod 49 to 19,549
        (583, 4, 611, 611, False),
        (1155, 4, 1222, 1222, False),
        # T4's largest window, the residual of b mod 49 to 19,549
        (198, 4, 9775, 19550, True),
    ],
)
def test_shift_add_rule_at_the_extension_orders(terms, slot, window, out_len, pays):
    assert series_module._shift_add_pays(terms, slot, window, out_len) is pays


# --- short products: series_mul at every low order against the oracle --------

_SHORT_ORDERS = range(71)


def _short_operands(kind, order, rng):
    """Operands a of `order` and b a little beyond (series_mul truncates to the smaller).

    b always has small mixed-sign coefficients; a is all zero, or has huge
    ones of either sign, whose slots are wider than the 640 digits CPython
    converts between int and str directly.
    """
    if kind == "zero":
        a = TruncatedSeries(order, (0,) * (order + 1))
    elif kind == "huge":
        a = S(*(rng.choice((1, -1)) * rng.randint(10**700, 10**720) for _ in range(order + 1)))
    else:
        a = S(*(rng.randint(-50, 50) for _ in range(order + 1)))
    b = S(*(rng.randint(-50, 50) for _ in range(order + rng.randint(1, 4))))
    return a, b


@pytest.mark.parametrize("kind", ["signed", "zero", "huge"])
def test_short_products_match_oracle(kind):
    rng = random.Random(kind)
    for order in _SHORT_ORDERS:
        a, b = _short_operands(kind, order, rng)
        expected = naive_mul(a, b)
        assert expected.order == order
        assert series_mul(a, b) == expected, order
        assert series_mul(b, a) == expected, order
        if kind != "huge" or order % 10 == 0:
            assert series_mul(a, a) == naive_mul(a, a), order


@pytest.mark.parametrize("u", [2, 49, 10**30])
def test_short_products_mod_u_match_reduced_oracle(u):
    # u = 49 is table-packed from 2 * 25 coefficients on and packed per
    # coefficient below; u = 2 is always table-packed, u = 10**30 never
    rng = random.Random(u)
    for order in _SHORT_ORDERS:
        for kind in ("signed", "zero", "huge"):
            a, b = _short_operands(kind, order, rng)
            a = S(*(c + rng.choice((0, u, -u)) for c in a.coeffs))  # entries >= u and < 0
            expected = reduce_mod(naive_mul(a, b), u)
            assert series_mul(a, b, modulus=u) == expected, (order, kind)
            assert series_mul(b, a, modulus=u) == expected, (order, kind)
            if kind != "huge" or order % 10 == 0:
                square = reduce_mod(naive_mul(a, a), u)
                assert series_mul(a, a, modulus=u) == square, (order, kind)


# --- ring axioms (property) --------------------------------------------------

class TestRingAxioms:
    @settings(max_examples=40)
    @given(a=series_64, b=series_64, c=series_64)
    def test_mul_associative_commutative(self, a, b, c):
        assert series_mul(a, b) == series_mul(b, a)
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))

    @settings(max_examples=40)
    @given(a=series_64, b=series_64, c=series_64)
    def test_add_axioms_and_distributivity(self, a, b, c):
        assert series_add(a, b) == series_add(b, a)
        assert series_add(series_add(a, b), c) == series_add(a, series_add(b, c))
        lhs = series_mul(a, series_add(b, c))
        rhs = series_add(series_mul(a, b), series_mul(a, c))
        assert lhs == rhs

    @settings(max_examples=60)
    @given(a=series_any, b=series_any)
    def test_order_is_min(self, a, b):
        assert series_add(a, b).order == min(a.order, b.order)
        assert series_mul(a, b).order == min(a.order, b.order)

    @settings(max_examples=60)
    @given(a=unit_series)
    def test_invert_roundtrip(self, a):
        assert series_mul(a, series_invert(a)) == TruncatedSeries.one(a.order)

    @settings(max_examples=60)
    @given(a=series_any, b=series_any)
    def test_mul_matches_oracle(self, a, b):
        assert series_mul(a, b) == naive_mul(a, b)


# --- residue ring: modulus=u equals exact-then-reduce (property) -------------

# short operands (up to 64 coefficients) and long ones are drawn about equally often
_SPLIT = 64

moduli = st.sampled_from((2, 3, 5, 7, 11, 13, 25, 49, 125, 343))
lengths = st.one_of(st.integers(1, _SPLIT), st.integers(_SPLIT + 1, 200))
mixed_specs = st.dictionaries(
    st.sampled_from((1, 2, 3, 4, 6, 12)), st.integers(-7, 7), min_size=1, max_size=4
).map(lambda exps: EtaQuotientSpec(12, exps))
wide_coeffs = st.one_of(small_coeffs, st.integers(-(10**30), 10**30))


def _series(coeffs=wide_coeffs):
    return lengths.flatmap(
        lambda n: st.lists(coeffs, min_size=n, max_size=n).map(TruncatedSeries.from_coeffs)
    )


def _with_constant(a, c0):
    return TruncatedSeries(a.order, (c0,) + a.coeffs[1:])


class TestResidueRing:
    @settings(max_examples=40, deadline=None)
    @given(spec=mixed_specs, order=lengths.map(lambda n: n - 1), u=moduli)
    def test_expand_matches_reduced_exact(self, spec, order, u):
        got = expand_eta_quotient(spec, order, modulus=u)
        assert got == reduce_mod(expand_eta_quotient(spec, order), u)

    @settings(max_examples=40, deadline=None)
    @given(a=_series(), b=_series(), u=moduli)
    def test_mul_matches_reduced_exact(self, a, b, u):
        assert series_mul(a, b, modulus=u) == reduce_mod(series_mul(a, b), u)

    @settings(max_examples=30, deadline=None)
    @given(a=_series(small_coeffs), e=st.integers(-4, 6), u=moduli)
    def test_pow_matches_reduced_exact(self, a, e, u):
        if e < 0:
            a = _with_constant(a, 1)
        assert series_pow(a, e, modulus=u) == reduce_mod(series_pow(a, e), u)

    @settings(max_examples=40, deadline=None)
    @given(a=_series(small_coeffs), c0=st.sampled_from((1, -1)), u=moduli)
    def test_invert_matches_reduced_exact(self, a, c0, u):
        a = _with_constant(a, c0)
        assert series_invert(a, modulus=u) == reduce_mod(series_invert(a), u)

    @pytest.mark.parametrize("order", [_SPLIT - 2, 3000])
    def test_known_quotients_both_kernel_paths(self, order):
        for spec in (
            EtaQuotientSpec(14, {1: 46, 2: 1, 7: -7}),
            EtaQuotientSpec(2, {1: -3, 2: 1}),
        ):
            exact = expand_eta_quotient(spec, order)
            for u in (5, 25, 49, 343):
                got = expand_eta_quotient(spec, order, modulus=u)
                assert got == reduce_mod(exact, u)
                assert all(0 <= c < u for c in got.coeffs)

    def test_negative_unit_inverse_is_canonical(self):
        inv = series_invert(S(-1, 4, -2), modulus=7)
        assert inv.coeffs == (6, 3, 0)  # exact inverse: -1, -4, -14
        assert series_mul(S(-1, 4, -2), inv, modulus=7) == TruncatedSeries.one(2)

    @pytest.mark.parametrize("u", [1, 0, -5])
    def test_modulus_below_two_rejected(self, u):
        s = eta_factor(1, 10)
        spec = EtaQuotientSpec(2, {1: -3, 2: 1})
        for call in (
            lambda: series_mul(s, s, modulus=u),
            lambda: series_invert(s, modulus=u),
            lambda: series_pow(s, 2, modulus=u),
            lambda: series_pow(s, 0, modulus=u),
            lambda: expand_eta_quotient(spec, 10, modulus=u),
            lambda: expand_eta_quotient(EtaQuotientSpec(1, {}), 10, modulus=u),
        ):
            with pytest.raises(ValueError, match="modulus must be >= 2"):
                call()


# --- exponent reduction mod a prime power ---------------------------------------

reduction_moduli = st.sampled_from((2, 4, 8, 9, 25, 49, 125, 10))
wide_specs = st.dictionaries(
    st.sampled_from((1, 2, 3, 4, 6, 12)), st.integers(-150, 150), min_size=1, max_size=4
).map(lambda exps: EtaQuotientSpec(12, exps))
# divisors that share chains delta, p delta, p**2 delta for p = 2, 3, 5 and 7
chain_specs = st.dictionaries(
    st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 14, 15, 25, 27, 49)),
    st.one_of(st.integers(-3000, 3000), st.integers(-(10**12), 10**12)),
    min_size=1, max_size=5,
).map(lambda exps: EtaQuotientSpec(math.lcm(*exps), exps))
ODD_PRIME_POWERS = ((3, 3), (9, 3), (27, 3), (5, 5), (25, 5), (125, 5), (7, 7), (49, 7), (343, 7))


def _reduce_by_passes(spec: EtaQuotientSpec, u: int, p: int) -> EtaQuotientSpec:
    """The reduction as a fixed-point loop: sweep every divisor until none moves.

    The reference for `_reduce_exponents`'s one pass; a sweep moves each
    exponent once, so a carry climbs one step of its chain per sweep.
    """
    exps = dict(spec.exponents)
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
    return EtaQuotientSpec(math.lcm(spec.level, *exps), exps)


def _balanced(spec: EtaQuotientSpec, u: int) -> bool:
    return all(2 * abs(r) <= u for _, r in spec.exponents)


class TestExponentReduction:
    @settings(max_examples=60, deadline=None)
    @given(
        spec=wide_specs,
        order=st.one_of(st.integers(0, _SPLIT), st.integers(_SPLIT + 1, 3000)),
        u=reduction_moduli,
    )
    def test_reduced_route_matches_per_factor_route(self, spec, order, u):
        assert expand_eta_quotient(spec, order, modulus=u) == _expand_per_factor(spec, order, u)

    @pytest.mark.parametrize(
        "r, u",
        [*(pytest.param(KNOWN_INSTANCES[key].r, KNOWN_INSTANCES[key].u, id=key)
           for key in sorted(KNOWN_INSTANCES)),
         # the X2 quotient, whose expansion the extension-order CI steps check
         pytest.param(EtaQuotientSpec(10, {1: 122, 2: 1, 5: -25}), 125, id="x2_mod125")],
    )
    def test_known_instances_reduce_to_b(self, r, u):
        reduced = _reduce_exponents(r, u, 20000)
        assert reduced.exponents == ((1, -3), (2, 1))
        assert reduced.level % r.level == 0

    @settings(max_examples=150, deadline=None)
    @given(spec=chain_specs, modulus=st.sampled_from(ODD_PRIME_POWERS))
    def test_one_pass_matches_passes_for_odd_prime_powers(self, spec, modulus):
        u, p = modulus
        assert _reduce_exponents(spec, u, 100) == _reduce_by_passes(spec, u, p)

    @settings(max_examples=40, deadline=None)
    @given(spec=chain_specs, u=st.sampled_from((2, 4, 8)))
    def test_one_pass_is_balanced_and_congruent_for_powers_of_2(self, spec, u):
        # the two may keep -u/2 and u/2 at different divisors, a congruent form
        one_pass, passes = _reduce_exponents(spec, u, 100), _reduce_by_passes(spec, u, 2)
        assert _balanced(one_pass, u)
        expand = functools.partial(series_module._expand, order=24, modulus=u, reduce=False)
        assert expand(one_pass) == expand(passes)

    @pytest.mark.parametrize(
        "r, u, p", [(7**60, 49, 7), (-(2**70), 8, 2)], ids=["7**60_mod49", "-2**70_mod8"]
    )
    def test_huge_exponent_settles_in_one_pass(self, r, u, p):
        spec = EtaQuotientSpec(1, {1: r})
        reduced = _reduce_exponents(spec, u, 100)
        assert _balanced(reduced, u)
        assert _reduce_exponents(reduced, u, 100) == reduced  # nothing left to move
        # a chain from f_1**r makes at most 1 + log_p(2|r|) moves, one divisor
        # p**j each; the level is the lcm of every divisor the chain reached
        moves = 1 + math.log(2 * abs(r), p)
        assert len(reduced.exponents) <= 1 + moves
        assert reduced.level <= p**moves
        expand = functools.partial(series_module._expand, order=24, modulus=u, reduce=False)
        assert expand(reduced) == expand(_reduce_by_passes(spec, u, p))

    def test_mod2_stops_at_exponent_minus_one(self):
        # the balanced residue of -1 mod 2 is 1: moving it would never end
        assert _reduce_exponents(EtaQuotientSpec(1, {1: -1}), 2, 100) == EtaQuotientSpec(
            1, {1: -1}
        )
        # f1^-3 = f1 f1^-4 == f1 f2^-2 == f1 f4^-1 (mod 2)
        assert _reduce_exponents(EtaQuotientSpec(1, {1: -3}), 2, 100) == EtaQuotientSpec(
            4, {1: 1, 4: -1}
        )

    @pytest.mark.parametrize("u", [10, 12, 63])
    def test_composite_modulus_unchanged(self, u):
        spec = EtaQuotientSpec(14, {1: 46, 2: 1, 7: -7})
        assert _reduce_exponents(spec, u, 100) is spec

    def test_large_modulus_search_is_bounded_by_the_order(self):
        # u is prime, so trial division up to isqrt(u) would run about 10**10
        # steps; the timeout makes such a search fail the test, not hang it
        r, u = 50000000000000000020, 100000000000000000039
        proc = subprocess.run(
            [sys.executable, "-m", "etacert.cli", "expand", "--spec", f"1:{r}",
             "--order", "10", "--mod", str(u)],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        expected = _expand_per_factor(EtaQuotientSpec(1, {1: r}), 10, u)
        assert proc.stdout == ",".join(map(str, expected.coeffs)) + "\n"


# --- the unreduced route: the quotient as given, in (Z/u)[[q]] -------------------

# r = {1: u - 3, 2: 1, p: -u/p} of the p-adic ladder of b (T2, T3, T4, X1, X2);
# each is congruent to b = f2/f1^3 mod u by the binomial lemma
_LADDER_R = {
    5: EtaQuotientSpec(10, {1: 2, 2: 1, 5: -1}),
    25: EtaQuotientSpec(10, {1: 22, 2: 1, 5: -5}),
    125: EtaQuotientSpec(10, {1: 122, 2: 1, 5: -25}),
    7: EtaQuotientSpec(14, {1: 4, 2: 1, 7: -1}),
    49: EtaQuotientSpec(14, {1: 46, 2: 1, 7: -7}),
}


class TestUnreducedRoute:
    @pytest.mark.parametrize("u", sorted(_LADDER_R))
    def test_ladder_r_equals_b_at_scale(self, u):
        # two routes to b mod u that share no factor: f1^(u-3) from powers of
        # the cube, inverted sparse bases of f_p, no division by f1^3
        r = _LADDER_R[u]
        with series_module.tracing() as counters:
            unreduced = series_module._expand(r, 20000, u, reduce=False)
        assert counters["expand"]["unreduced"] == [20000]
        assert unreduced == b_series(20000, u)

    @settings(max_examples=40, deadline=None)
    @given(spec=wide_specs, order=st.integers(0, 400), u=reduction_moduli)
    def test_matches_per_factor_route(self, spec, order, u):
        assert series_module._expand(spec, order, u, reduce=False) == _expand_per_factor(
            spec, order, u
        )

    def test_reduce_has_no_effect_on_the_exact_path(self):
        spec = _LADDER_R[49]
        assert series_module._expand(spec, 200, None, reduce=False) == expand_eta_quotient(
            spec, 200
        )


# --- trace counters ----------------------------------------------------------------


class TestTracing:
    def test_off_by_default_and_after_the_block(self):
        assert series_module._trace is None
        with series_module.tracing() as counters:
            assert series_module._trace is counters
        assert series_module._trace is None
        b_series(300, 7)
        assert counters["expand"] == {"exact": [], "reduced": [], "unreduced": []}

    def test_counts_each_route_with_its_sizes(self):
        sparse, short = S(1, 2, 0, 3), S(4, 5, 6, 7)
        rng = random.Random(7)
        dense = S(*(rng.randint(1, 6) for _ in range(300)))
        with series_module.tracing() as counters:
            series_mul(sparse, short)
            series_mul(sparse, short, modulus=7)
            series_mul(dense, dense, modulus=7)
            expand_eta_quotient(EtaQuotientSpec(2, {1: -3, 2: 1}), 10)
            expand_eta_quotient(EtaQuotientSpec(2, {1: -3, 2: 1}), 12, 7)
            series_module._expand(EtaQuotientSpec(2, {1: -3, 2: 1}), 14, 7, reduce=False)
        assert counters["expand"] == {"exact": [10], "reduced": [12], "unreduced": [14]}
        # the 4 x 4 product by K = 3 terms is shifted and added in both
        # rings, in 1-byte lanes (bounds 3 * 3 * 7 and 3 * 6 * 6); only the
        # dense square is packed, its bound 300 * 6 * 6 in 8-digit slots
        assert counters["product"] == {
            "packed": {"exact": [], "modular": [[300, 300, 300, 0, 300, 8]]},
            "shift_add": {"exact": [[4, 4, 3, 0, 4, 1]], "modular": [[4, 4, 3, 0, 4, 1]]},
        }

    def test_nested_block_counts_on_its_own(self):
        with series_module.tracing() as outer:
            expand_eta_quotient(EtaQuotientSpec(1, {1: 2}), 5)
            with series_module.tracing() as inner:
                expand_eta_quotient(EtaQuotientSpec(1, {1: 2}), 6)
            expand_eta_quotient(EtaQuotientSpec(1, {1: 2}), 7)
        assert outer["expand"]["exact"] == [5, 7]
        assert inner["expand"]["exact"] == [6]

    def test_results_do_not_change(self):
        spec = EtaQuotientSpec(14, {1: 46, 2: 1, 7: -7})
        plain = [expand_eta_quotient(spec, 3000, u) for u in (None, 7, 49)]
        with series_module.tracing():
            traced = [expand_eta_quotient(spec, 3000, u) for u in (None, 7, 49)]
        assert traced == plain


# --- Newton inversion on the modular path ---------------------------------------

_T = series_module._NEWTON_MIN
# around the threshold, and lengths one past a doubling: the last Newton step
# then stops short of a full doubling
_NEWTON_LENGTHS = (_T - 1, _T, _T + 1, 2 * _T + 1, 4 * _T, 4 * _T + 1)
_NEWTON_MODULI = (2, 7, 49, 125, 10**30)


class TestNewtonInversion:
    @pytest.mark.parametrize("delta,c0", [(1, 1), (3, -1)])
    def test_eta_factors_match_exact_recurrence(self, delta, c0):
        longest = max(_NEWTON_LENGTHS)
        a = eta_factor(delta, longest - 1)
        if c0 == -1:
            a = -a
        # the inverse of a truncation is the truncation of the inverse
        exact = series_invert(a)
        for length in _NEWTON_LENGTHS:
            if c0 == -1 and length > 2 * _T + 1:
                continue
            prefix = a.truncate(length - 1)
            for u in _NEWTON_MODULI:
                got = series_invert(prefix, modulus=u)
                assert got == reduce_mod(exact.truncate(length - 1), u), (length, u)

    @pytest.mark.parametrize("c0", [1, -1])
    def test_dense_matches_exact_recurrence(self, c0):
        rng = random.Random(2048 + c0)
        a = S(c0, *(rng.randint(-1, 1) for _ in range(_T)))
        exact = series_invert(a)
        # below the threshold this is the dense O(N**2) recurrence, so two
        # moduli each there
        for length, moduli in ((_T - 1, (2, 10**30)), (_T, (49, 125)), (_T + 1, _NEWTON_MODULI)):
            for u in moduli:
                got = series_invert(a.truncate(length - 1), modulus=u)
                assert got == reduce_mod(exact.truncate(length - 1), u), (length, u)

    @pytest.mark.parametrize("c0", [1, -1])
    def test_dense_one_past_doubling_is_inverse(self, c0):
        # the exact inverse is too dear here; the product must be one mod u
        rng = random.Random(4096 + c0)
        a = S(c0, *(rng.randint(-9, 9) for _ in range(2 * _T)))
        for u in _NEWTON_MODULI:
            inv = series_invert(a, modulus=u)
            assert all(0 <= c < u for c in inv.coeffs)
            assert series_mul(a, inv, modulus=u) == TruncatedSeries.one(2 * _T)

    @pytest.mark.parametrize("length", [17, 31, 32, 33, 64, 65, 129, 200])
    def test_low_threshold_matches_oracle(self, length, monkeypatch):
        monkeypatch.setattr(series_module, "_NEWTON_MIN", 16)
        rng = random.Random(length)
        for c0 in (1, -1):
            a = S(c0, *(rng.randint(-60, 60) for _ in range(length - 1)))
            reference = naive_invert(a)
            for u in _NEWTON_MODULI:
                got = series_invert(a, modulus=u)
                assert got == reduce_mod(reference, u), (c0, u)

    def test_exact_path_keeps_recurrence(self, monkeypatch):
        # the exact path never runs a Newton step, whatever the length
        monkeypatch.setattr(series_module, "_NEWTON_MIN", 16)
        a = eta_factor(1, 300)
        with series_module.tracing() as counters:
            assert series_invert(a) == naive_invert(a)
        assert _entries(counters) == []
        with series_module.tracing() as counters:
            series_invert(a, modulus=7)
        assert _entries(counters, "exact") == [] and _entries(counters, "modular")


# --- division by the sparse f1 or f1^3 base --------------------------------------

_ROUTE_ORDERS = (_T - 2, _T - 1, _T)  # order + 1 straddles the Newton threshold


class TestDivision:
    @pytest.mark.parametrize("r", [-1, -3])
    @pytest.mark.parametrize("delta,e", [(4, 2), (5, -1)])
    def test_divided_route_matches_per_factor_route(self, r, delta, e):
        spec = EtaQuotientSpec(delta, {1: r, delta: e})
        # exact truncation commutes with the product, so one exact reference serves
        exact = _expand_per_factor(spec, max(_ROUTE_ORDERS))
        for order in _ROUTE_ORDERS:
            assert expand_eta_quotient(spec, order) == exact.truncate(order), order
            for u in (2, 7, 49, 10**30):
                got = expand_eta_quotient(spec, order, modulus=u)
                assert got == _expand_per_factor(spec, order, u), (order, u)

    def test_division_drops_the_full_length_product(self):
        def windows(order, modulus=None):
            with series_module.tracing() as counters:
                expand_eta_quotient(spec, order, modulus)
            return [(entry[3], entry[4]) for _, entry in _entries(counters)]

        spec = EtaQuotientSpec(4, {1: -3, 4: 2})
        exact = windows(600)
        assert exact and all(hi < 601 for _, hi in exact)
        below = windows(_T - 1, 49)
        assert below and all(hi < _T for _, hi in below)
        # one past the threshold the cube takes a Newton inverse: the residual
        # window ends at _T + 1, and no product forms all _T + 1 coefficients
        newton = windows(_T, 49)
        assert ((_T + 2) // 2, _T + 1) in newton
        assert all(lo > 0 for lo, hi in newton if hi == _T + 1)

    @pytest.mark.parametrize("kind", ["ones", "others", "mixed"])
    @pytest.mark.parametrize("c0", [1, -1])
    def test_recurrence_matches_oracle(self, kind, c0):
        # the +-1 terms are summed apart from the others, so divisors with
        # only the one kind, only the other, and both
        rng = random.Random(f"{kind}{c0}")
        order = 60
        if kind == "ones":
            a = eta_factor(1, order)
        elif kind == "others":
            a = series_module._sparse_series(order, series_module._jacobi_walk())
        else:
            a = S(1, *(rng.choice((0, 0, 1, -1, 2, -7)) for _ in range(order)))
        if c0 == -1:
            a = -a
        inverse = naive_invert(a)
        numerators = (
            S(*(rng.randint(-(10**20), 10**20) for _ in range(order + 1))),
            TruncatedSeries(order, (0,) * (order + 1)),
        )
        for num in numerators:
            for num_order in (0, 1, 16, order):
                prefix = num.truncate(num_order)
                expected = naive_mul(prefix, inverse)
                assert _divide_recurrence(prefix, a, None) == expected, num_order
                for u in (2, 49, 10**30):
                    got = _divide_recurrence(prefix, a, u)
                    assert got == reduce_mod(expected, u), (num_order, u)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), u=st.one_of(moduli, st.just(10**30)))
    def test_quotient_times_base_is_numerator(self, data, u):
        length = data.draw(st.integers(1, 80), label="length")
        num = S(*data.draw(st.lists(wide_coeffs, min_size=length, max_size=length), label="num"))
        # the base may be longer than the numerator
        tail_len = length - 1 + data.draw(st.integers(0, 3), label="extra")
        dense = st.lists(small_coeffs, min_size=tail_len, max_size=tail_len)
        sparse = st.dictionaries(st.integers(0, max(tail_len - 1, 0)), small_coeffs, max_size=4).map(
            lambda terms: [terms.get(k, 0) for k in range(tail_len)]
        )
        c0 = data.draw(st.sampled_from((1, -1)), label="c0")
        base = S(c0, *data.draw(st.one_of(dense, sparse), label="tail"))
        quotient = _divide_recurrence(num, base, None)
        assert quotient.order == num.order
        assert naive_mul(base, quotient) == num
        residues = _divide_recurrence(num, base, u)
        assert all(0 <= c < u for c in residues.coeffs)
        assert residues == reduce_mod(quotient, u)
        assert reduce_mod(naive_mul(base, residues), u) == reduce_mod(num, u)


# --- Karp-Markstein division: Newton on 1/a, numerator folded into the last step --

_KM_LENGTHS = (_T - 1, _T, _T + 1, 2 * _T - 1, 2 * _T + 1, 4 * _T + 1)
# a common multiple of the moduli, so one reference quotient serves them all
_KM_REFERENCE_MODULUS = 49 * 10**30


def _km_series(rng, kind, length, c0=None):
    """A random series of `length` terms: every term set, or a few terms only."""
    if kind == "dense":
        coeffs = [rng.randint(-10**6, 10**6) for _ in range(length)]
    else:
        coeffs = [0] * length
        for k in rng.sample(range(1, length), 40):
            coeffs[k] = rng.randint(-50, 50)
    if c0 is not None:
        coeffs[0] = c0
    return S(*coeffs)


class TestKarpMarkstein:
    @pytest.mark.parametrize(
        "base_kind,c0,num_kind",
        [("sparse", 1, "dense"), ("sparse", -1, "sparse"),
         ("dense", 1, "sparse"), ("dense", -1, "dense")],
    )
    def test_divide_matches_recurrence(self, base_kind, c0, num_kind, monkeypatch):
        lengths = _KM_LENGTHS
        if base_kind == "dense":
            # the dense reference recurrence is O(N**2): the same steps at a
            # threshold of 64 instead of _NEWTON_MIN
            monkeypatch.setattr(series_module, "_NEWTON_MIN", 64)
            lengths = (63, 64, 65, 127, 129, 16 * 64 + 1)
        rng = random.Random(f"{base_kind}{c0}{num_kind}")
        longest = max(lengths)
        a = _km_series(rng, base_kind, longest, c0)
        num = _km_series(rng, num_kind, longest)
        reference = _divide_recurrence(num, a, _KM_REFERENCE_MODULUS)
        for length in lengths:
            for u in _NEWTON_MODULI:
                got = series_module._divide(num.truncate(length - 1), a, u)
                assert got == reduce_mod(reference.truncate(length - 1), u), (length, u)

    @pytest.mark.parametrize("exponent", [1024, 2048, 2049, 3072])
    def test_numerator_with_one_late_term(self, exponent):
        # 1 + q^e to 4097 terms, several Newton levels past the threshold:
        # below half = 2049 terms the numerator is not constant and is
        # multiplied by g; from there on y is g itself and the fold adds q^e
        length = 4097
        assert length > 4 * _T
        num = TruncatedSeries.one(length - 1) + TruncatedSeries.monomial(exponent, length - 1)
        a = -eta_factor(1, length - 1)
        reference = _divide_recurrence(num, a, _KM_REFERENCE_MODULUS)
        for u in _NEWTON_MODULI:
            assert series_module._divide(num, a, u) == reduce_mod(reference, u), u

    def test_b_series_forms_no_full_length_product(self):
        with series_module.tracing() as counters:
            b_series(19549, 49)
        pairs = [(entry[0], entry[1]) for _, entry in _entries(counters)]
        assert pairs and (19550, 19550) not in pairs

    # across the threshold, and at lengths 1024 to 1026, which straddle a
    # power-of-two multiple of it: the seed is halved once more on one side.
    # The threshold's cases are named by role, so a new threshold keeps the ids
    @pytest.mark.parametrize(
        "order",
        [pytest.param(_T - 1, id="T-1"), pytest.param(_T, id="T"),
         pytest.param(_T + 1, id="T+1"), 1023, 1024, 1025],
    )
    def test_b_quotient_across_threshold(self, order):
        spec = EtaQuotientSpec(2, {1: -3, 2: 1})
        assert expand_eta_quotient(spec, order, 49) == _expand_per_factor(spec, order, 49)


# --- quotients in q^g --------------------------------------------------------------


class TestQuotientsInQPower:
    @pytest.mark.parametrize(
        "exps,order,u",
        [
            ({343: 1, 686: -1}, 3771, None),
            ({7: 7}, 300, None),
            ({2: -3, 4: 1}, 5000, 49),
            ({5: -5, 10: 2}, 1349, 25),
            ({10: 1, 20: -3}, 7, None),  # an order below g
            ({10: 1, 20: -3}, 9, 7),
        ],
    )
    def test_matches_per_factor_route(self, exps, order, u):
        spec = EtaQuotientSpec(max(exps), exps)
        assert expand_eta_quotient(spec, order, u) == _expand_per_factor(spec, order, u)

    def test_expanded_at_order_over_g(self):
        # f_343 / f_686 to 3771 is f_1 / f_2 to 10, lifted once
        with series_module.tracing() as counters:
            expand_eta_quotient(EtaQuotientSpec(686, {343: 1, 686: -1}), 3771)
        assert [entry[4] for _, entry in _entries(counters)] == [3771 // 343 + 1]
