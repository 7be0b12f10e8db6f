"""Series kernel: frozen examples, oracle cross-checks, ring properties,
and agreement of the residue-ring (modulus) path with exact-then-reduce."""

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
from etacert.oracle import naive_eta, naive_invert, naive_mul
from etacert.series import _convolve_packed, _divide_recurrence, _reduce_exponents


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

def _naive_expand(spec: EtaQuotientSpec, order: int) -> TruncatedSeries:
    """Independent expansion from oracle primitives only."""
    result = TruncatedSeries.one(order)
    for delta, r in spec.exponents:
        base = naive_eta(delta, order)
        if r < 0:
            base = naive_invert(base)
        for _ in range(abs(r)):
            result = naive_mul(result, base)
    return result


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
        assert got == _naive_expand(EtaQuotientSpec(2, {1: -3, 2: 1}), 6)

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
        assert expand_eta_quotient(spec, 300) == _naive_expand(spec, 300)

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


def _sparse(rng, length, mag, density):
    return tuple(rng.randint(-mag, mag) if rng.random() < density else 0 for _ in range(length))


def test_packed_matches_schoolbook_random():
    rng = random.Random(20260810)
    for _ in range(300):
        la = rng.randint(1, 60)
        lb = rng.randint(1, 60)
        mag = rng.choice((1, 9, 10**6, 10**30))
        a = tuple(rng.randint(-mag, mag) for _ in range(la))
        b = tuple(rng.randint(-mag, mag) for _ in range(lb))
        out_len = rng.randint(1, la + lb)
        assert _convolve_packed(a, b, out_len) == _convolve_schoolbook(a, b, out_len)
    # lengths of a few thousand: the schoolbook loop skips zero entries of its
    # first operand, so a sparse first operand keeps the reference cheap
    for mag in (1, 48, 10**6, 10**30, 2**300):
        la, lb = rng.randint(1000, 3000), rng.randint(1000, 3000)
        a = _sparse(rng, la, mag, 0.02)
        b = tuple(rng.randint(-mag, mag) for _ in range(lb))
        out_len = rng.randint(1, la + lb - 1)
        expected = _convolve_schoolbook(a, b, out_len)
        assert _convolve_packed(a, b, out_len) == expected
        assert _convolve_packed(b, a, out_len) == expected


def test_packed_edge_cases():
    assert _convolve_packed((0, 0), (0, 0, 0), 4) == [0, 0, 0, 0]
    assert _convolve_packed((-1,), (1, -1, 1), 3) == [-1, 1, -1]
    # a zero operand on either side
    b = tuple(range(-200, 200))
    assert _convolve_packed((0,) * 200, b, 300) == [0] * 300
    assert _convolve_packed(b, (0,), 401) == [0] * 401
    # out_len beyond len(a) + len(b) - 1 pads with zeros
    a, b = (3, -1, 4), (1, -5, 9, 2)
    assert _convolve_packed(a, b, 10) == _convolve_schoolbook(a, b, 6) + [0] * 4
    assert _convolve_packed(a, b, 10) == _convolve_schoolbook(a, b, 10)


def test_packed_nonnegative_inputs():
    # residues mod u: no negative half is packed and no offset is needed
    rng = random.Random(49)
    for u in (2, 49, 10**12):
        a = tuple(abs(c) for c in _sparse(rng, 2000, u - 1, 0.1))
        b = tuple(rng.randrange(u) for _ in range(2500))
        assert _convolve_packed(a, b, 2000) == _convolve_schoolbook(a, b, 2000)
    assert _convolve_packed((0, 3), (5, 0, 7), 4) == [0, 15, 0, 21]


@pytest.mark.parametrize("signed", [False, True])
def test_packed_aliased_operands(signed):
    rng = random.Random(11)
    low = -(10**40) if signed else 0
    a = tuple(rng.randint(low, 10**40) for _ in range(900))
    assert (min(a) < 0) == signed
    expected = _convolve_schoolbook(a, a, 900)
    assert _convolve_packed(a, a, 900) == expected
    assert _convolve_packed(a, tuple(list(a)), 900) == expected


@pytest.mark.parametrize(
    "value", [4, 5, 9, 10, 49, 50, 99, 100, 5 * 10**20 - 1, 5 * 10**20, 10**21 - 1, 10**21]
)
def test_packed_slot_width_boundaries(value):
    # products whose largest coefficient sits at either side of a digit or
    # half-slot boundary, in both signs
    for a, b in (((value,), (1,)), ((-value,), (1,)), ((value, value), (1, 1)),
                 ((value, -value), (1, 1)), ((1,) * 3, (value,) * 3)):
        assert _convolve_packed(a, b, 4) == _convolve_schoolbook(a, b, 4)


def test_packed_wide_slots():
    # slots of more than 4300 digits: CPython refuses int <-> str conversions
    # that long unless the process-wide limit is raised, which the kernel must not do
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    a, b = (10**5000, 1) * 40, (10**5000, -1) * 40
    assert _convolve_packed(a, b, 80) == _convolve_schoolbook(a, b, 80)
    c = (-(7**6000), 3, 0, 2**20000)
    assert _convolve_packed(c, c, 7) == _convolve_schoolbook(c, c, 7)
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str conversion limit"
)
def test_packed_slots_beyond_lowest_conversion_limit():
    # 640 digits is the lowest limit CPython accepts; slots of 700-1300 digits
    # must decode under it as well
    rng = random.Random(640)
    a = tuple(rng.randint(-(10**600), 10**600) for _ in range(30))
    b = tuple(rng.randint(-(10**650), 10**650) for _ in range(30))
    expected = _convolve_schoolbook(a, b, 59)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = _convolve_packed(a, b, 59)
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == expected


# --- residue packing: the modulus path of the packed kernel -------------------

def _reduced_schoolbook(a, b, out_len, u):
    return [c % u for c in _convolve_schoolbook(a, b, out_len)]


@pytest.mark.parametrize("u", [2, 3, 49, 125, 1999, 2000, 2001, 10**6, 10**30])
def test_residue_packing_matches_reduced_schoolbook(u):
    # 1000 + 1000 coefficients: u up to 2000 packs by table, larger u per
    # coefficient; inputs carry negative entries and entries >= u
    rng = random.Random(u)
    mag = 3 * u
    a = _sparse(rng, 1000, mag, 0.05)
    b = tuple(rng.randint(-mag, mag) for _ in range(1000))
    assert min(a) < 0 and min(b) < 0 and max(b) >= u
    for out_len in (1, 999, 1000, 1999):
        expected = _reduced_schoolbook(a, b, out_len, u)
        assert _convolve_packed(a, b, out_len, u) == expected
        assert _convolve_packed(b, a, out_len, u) == expected


def test_residue_packing_residue_inputs():
    # residues already in 0..u-1, including all u - 1 (the slot-width bound)
    # and all zero
    for u in (2, 7, 49, 10**12):
        top = (u - 1,) * 700
        assert _convolve_packed(top, top[:500], 1199, u) == _reduced_schoolbook(
            top, top[:500], 1199, u
        )
        assert _convolve_packed((0,) * 300, top, 500, u) == [0] * 500
        assert _convolve_packed(top, (u, -u, 2 * u), 702, u) == [0] * 702


@pytest.mark.parametrize("u", [5, 49, 10**6])
def test_residue_packing_aliased_operands(u):
    rng = random.Random(u + 1)
    a = tuple(rng.randint(-2 * u, 2 * u) for _ in range(900))
    expected = _reduced_schoolbook(a, a, 900, u)
    assert _convolve_packed(a, a, 900, u) == expected
    assert _convolve_packed(a, tuple(list(a)), 900, u) == expected


def test_residue_packing_out_len_beyond_product():
    rng = random.Random(7)
    a = tuple(rng.randint(-100, 100) for _ in range(70))
    b = tuple(rng.randint(-100, 100) for _ in range(90))
    for u in (7, 49, 10**9):
        got = _convolve_packed(a, b, 200, u)
        assert got == _reduced_schoolbook(a, b, 159, u) + [0] * 41
        assert got == _reduced_schoolbook(a, b, 200, u)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str conversion limit"
)
def test_residue_packing_slots_beyond_lowest_conversion_limit():
    # u = 10**400 + 1: slots of about 800 digits must decode under the lowest
    # limit CPython accepts, without the kernel raising it
    u = 10**400 + 1
    rng = random.Random(400)
    a = tuple(rng.randint(-2 * u, 2 * u) for _ in range(40))
    b = tuple(rng.randint(0, u - 1) for _ in range(30))
    expected = _reduced_schoolbook(a, b, 69, u)
    square = _reduced_schoolbook(a, a, 79, u)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = _convolve_packed(a, b, 69, u)
        got_square = _convolve_packed(a, a, 79, u)
        got_series = series_mul(S(*a), S(*a), modulus=u)
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == expected
    assert got_square == square
    assert got_series.coeffs == tuple(square[:40])


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


def _record_lane_widths(monkeypatch):
    widths = []
    real = series_module._read_lanes

    def recording(digits, w, take):
        widths.append(w)
        return real(digits, w, take)

    monkeypatch.setattr(series_module, "_read_lanes", recording)
    return widths


# (u, k, lane width): k * (u - 1)**2 on either side of 10, 100, 10**4 and
# 10**8; None is the per-slot string route
@pytest.mark.parametrize(
    "u,k,lane",
    [(3, 2, 1), (2, 9, 1), (2, 10, 2), (4, 11, 2), (2, 100, 4), (34, 9, 4), (34, 10, 8),
     (49, 40, 8), (10**4, 1, 8), (10**4, 2, None)],
)
def test_residue_slot_bound_reached(u, k, lane, monkeypatch):
    # k entries of u - 1 against a dense operand of u - 1: the slots hold
    # exactly the bound k * (u - 1)**2, counted from the nonzero entries
    widths = _record_lane_widths(monkeypatch)
    a, b = _bound_operands(k, 3, 3 * k + 5, u - 1, u - 1, signed=False)
    exact = _convolve_schoolbook(a, b, len(a) + len(b) - 1)
    assert max(exact) == k * (u - 1) ** 2
    for out_len in (len(a) + len(b) - 1, len(b)):
        assert _convolve_packed(a, b, out_len, u) == [c % u for c in exact[:out_len]]
        assert _convolve_packed(b, a, out_len, u) == [c % u for c in exact[:out_len]]
    assert set(widths) == ({lane} if lane else set())


# (amax, bmax, k, lane width): 2 * k * amax * bmax on either side of 10, 100,
# 10**4 and 10**8, so the largest |c| sits just under the half-slot
@pytest.mark.parametrize(
    "amax,bmax,k,lane",
    [(1, 1, 4, 1), (1, 1, 5, 2), (1, 1, 49, 2), (1, 1, 50, 4), (7, 7, 102, 4),
     (7, 7, 103, 8), (5000, 9999, 1, 8), (5000, 10**4, 1, None), (10**20, 3, 7, None)],
)
def test_signed_slot_bound_reached(amax, bmax, k, lane, monkeypatch):
    widths = _record_lane_widths(monkeypatch)
    for stride in (1, 2):
        a, b = _bound_operands(k, stride, stride * k + 3, amax, bmax, signed=True)
        exact = _convolve_schoolbook(a, b, len(a) + len(b) - 1)
        assert max(exact) == k * amax * bmax == -min(exact)
        for out_len in (len(exact), len(b)):
            assert _convolve_packed(a, b, out_len) == exact[:out_len]
            assert _convolve_packed(b, a, out_len) == exact[:out_len]
    assert set(widths) == ({lane} if lane else set())


@pytest.mark.parametrize("u", [None, 2, 49, 10**30])
def test_all_zero_operands(u):
    # an operand with no nonzero entry, before or after reduction mod u,
    # gives zeros on either side, squared, and past the product's length
    rng = random.Random(u)
    zeros = tuple(rng.randint(-3, 3) * (u or 0) for _ in range(60))
    other = tuple(rng.randint(-10**6, 10**6) for _ in range(40))
    for a, b in ((zeros, other), (other, zeros), (zeros, zeros[:7])):
        for out_len in (1, 40, 99, 150):
            assert _convolve_packed(a, b, out_len, u) == [0] * out_len
    assert _convolve_packed(zeros, zeros, 130, u) == [0] * 130
    assert _convolve_packed((0,), (0,), 1, u) == [0]


@pytest.mark.parametrize("u", [None, 49])
def test_lane_chunk_boundaries(u, monkeypatch):
    # slots are decoded in chunks of _LANE_CHUNK; outputs end just before,
    # on and just after a chunk boundary, and one past two chunks
    widths = _record_lane_widths(monkeypatch)
    chunk = series_module._LANE_CHUNK
    rng = random.Random(chunk)
    n = 2 * chunk + 3
    sparse = _sparse(rng, n, 9, 0.01)
    dense = tuple(rng.randint(-9, 9) for _ in range(n))
    exact = _convolve_schoolbook(sparse, dense, 2 * chunk + 2)
    for take in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        expected = exact[:take] if u is None else [c % u for c in exact[:take]]
        assert _convolve_packed(dense, sparse, take, u) == expected, take
    assert widths and all(w <= series_module._LANE_DIGITS for w in widths)


# --- windowed products: shift-and-add by a sparse operand -----------------------


def _record_products(monkeypatch):
    """(lo, hi, route) of every `_product` call from now on.

    The route is the lane bytes `_shift_add` was given, "packed" for
    `_convolve_packed`, or None when neither ran.
    """
    products, route = [], []
    real_product = series_module._product
    real_shift_add = series_module._shift_add
    real_packed = series_module._convolve_packed

    def product(a, b, lo, hi, modulus=None):
        route.clear()
        out = real_product(a, b, lo, hi, modulus)
        products.append((lo, hi, route[0] if route else None))
        return out

    def shift_add(sparse, dense, lo, hi, slot, u):
        route.append(slot)
        return real_shift_add(sparse, dense, lo, hi, slot, u)

    def packed(a, b, out_len, modulus=None):
        route.append("packed")
        return real_packed(a, b, out_len, modulus)

    monkeypatch.setattr(series_module, "_product", product)
    monkeypatch.setattr(series_module, "_shift_add", shift_add)
    monkeypatch.setattr(series_module, "_convolve_packed", packed)
    return products


def _windowed_reference(a, b, lo, hi, u):
    return [c % u for c in _convolve_schoolbook(a, b, hi)[lo:]]


@pytest.mark.parametrize("u", [2, 7, 49, 125])
def test_shift_add_windows_match_schoolbook(u, monkeypatch):
    products = _record_products(monkeypatch)
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
    for lo, hi in windows:
        expected = _windowed_reference(sparse, dense, lo, hi, u)
        assert series_module._product(sparse, dense, lo, hi, u) == expected, (lo, hi)
        assert series_module._product(dense, sparse, lo, hi, u) == expected, (lo, hi)
        assert series_module._product(sparse, sparse, lo, hi, u) == _windowed_reference(
            sparse, sparse, lo, hi, u
        ), (lo, hi)
    # every window was shifted and added; an empty one formed no product
    assert products
    assert all((route in (1, 2, 4)) if lo < hi else route is None for lo, hi, route in products)


@pytest.mark.parametrize("u", [2, 49])
def test_shift_add_operands_reducing_to_zero(u, monkeypatch):
    products = _record_products(monkeypatch)
    rng = random.Random(u)
    multiples = [0] * 80
    for k in rng.sample(range(80), 6):
        multiples[k] = u * rng.randint(-9, 9) or u
    dense = [rng.randint(-10**4, 10**4) for _ in range(90)]
    sparse = [0] * 90
    sparse[3] = sparse[50] = -1
    for a, b in ((multiples, dense), (dense, multiples), (sparse, [u] * 90)):
        for lo, hi in ((0, 100), (40, 169), (150, 200)):
            assert series_module._product(a, b, lo, hi, u) == [0] * (hi - lo)
    assert {route for _, _, route in products} <= {1, 2, 4}
    products.clear()
    assert series_module._product([0] * 40, dense, 0, 129, u) == [0] * 129
    assert products == [(0, 129, None)]


# (u, K, lane bytes): K * (u - 1)**2 just below and at 2**8, 2**16, 2**32 and
# 2**64; None is the packed product
@pytest.mark.parametrize(
    "u,k,lane",
    [(2, 255, 1), (2, 256, 2), (16, 291, 2), (17, 256, 4), (2**16, 1, 4), (2**16 + 1, 1, 8),
     (2**32, 1, 8), (2**32 + 1, 1, "packed")],
)
def test_shift_add_lane_bound_reached(u, k, lane, monkeypatch):
    # K entries of u - 1, 3 apart, against a dense operand of u - 1: the
    # coefficients from 3 * (K - 1) on are the bound itself
    products = _record_products(monkeypatch)
    a, b = _bound_operands(k, 3, 3 * k + 5, u - 1, u - 1, signed=False)
    end = len(a) + len(b) - 1
    exact = _convolve_schoolbook(a, b, end)
    assert max(exact) == exact[3 * (k - 1)] == k * (u - 1) ** 2
    for lo, hi in ((max(3 * k - 5, 0), 3 * k), (0, end + 2)):
        expected = _windowed_reference(a, b, lo, hi, u)
        assert series_module._product(a, b, lo, hi, u) == expected
        assert series_module._product(b, a, lo, hi, u) == expected
    assert {route for _, _, route in products} == {lane}


def test_residue_operands_are_not_reduced_again():
    residues = [0, 1, 6, 3]
    assert series_module._residues(residues, 7) is residues
    assert series_module._residues((), 7) == ()
    assert series_module._residues([0, 7, -1, 3], 7) == [0, 0, 6, 3]
    assert series_module._residues([-7], 7) == [0]


# (lo, hi, route) of each product of b_series(19549, 49): the Newton windows
# h = (a * g)[n:2n] by the cube, f_2 * g and the residual are shifted and
# added, in 2-byte lanes for the 25 cube terms below 306 and in 4-byte lanes
# from there; the dense g * h and g * (num - a * y) stay packed
_B_19549_PRODUCTS = [
    (153, 306, 2), (0, 153, "packed"),
    (306, 612, 4), (0, 306, "packed"),
    (612, 1224, 4), (0, 612, "packed"),
    (1224, 2448, 4), (0, 1224, "packed"),
    (2448, 4896, 4), (0, 2448, "packed"),
    (4896, 9775, 4), (0, 4879, "packed"),
    (0, 9775, 4), (9775, 19550, 4), (0, 9775, "packed"),
]


def test_b_series_product_routes(monkeypatch):
    products = _record_products(monkeypatch)
    b_series(19549, 49)
    assert products == _B_19549_PRODUCTS


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


class TestExponentReduction:
    @settings(max_examples=60, deadline=None)
    @given(
        spec=wide_specs,
        order=st.one_of(st.integers(0, _SPLIT), st.integers(_SPLIT + 1, 3000)),
        u=reduction_moduli,
    )
    def test_reduced_route_matches_per_factor_route(self, spec, order, u):
        assert expand_eta_quotient(spec, order, modulus=u) == _expand_per_factor(spec, order, u)

    @pytest.mark.parametrize("key", sorted(KNOWN_INSTANCES))
    def test_known_instances_reduce_to_b(self, key):
        instance = KNOWN_INSTANCES[key]
        reduced = _reduce_exponents(instance.r, instance.u, 20000)
        assert reduced.exponents == ((1, -3), (2, 1))
        assert reduced.level % instance.r.level == 0

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
        calls = []
        real = series_module._product

        def counting(a, b, lo, hi, modulus=None):
            calls.append(modulus)
            return real(a, b, lo, hi, modulus)

        monkeypatch.setattr(series_module, "_product", counting)
        a = eta_factor(1, 300)
        assert series_invert(a) == naive_invert(a)
        assert calls == []
        series_invert(a, modulus=7)
        assert calls and set(calls) == {7}


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

    def test_division_drops_the_full_length_product(self, monkeypatch):
        windows = []
        real = series_module._product

        def recording(a, b, lo, hi, modulus=None):
            windows.append((lo, hi))
            return real(a, b, lo, hi, modulus)

        monkeypatch.setattr(series_module, "_product", recording)
        spec = EtaQuotientSpec(4, {1: -3, 4: 2})
        expand_eta_quotient(spec, 600)
        assert windows and all(hi < 601 for _, hi in windows)
        windows.clear()
        expand_eta_quotient(spec, _T - 1, modulus=49)
        assert windows and all(hi < _T for _, hi in windows)
        # one past the threshold the cube takes a Newton inverse: the residual
        # window ends at _T + 1, and no product forms all _T + 1 coefficients
        windows.clear()
        expand_eta_quotient(spec, _T, modulus=49)
        assert ((_T + 2) // 2, _T + 1) in windows
        assert all(lo > 0 for lo, hi in windows if hi == _T + 1)

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

    def test_b_series_forms_no_full_length_product(self, monkeypatch):
        pairs = []
        real = series_module._product

        def recording(a, b, lo, hi, modulus=None):
            pairs.append((len(a), len(b)))
            return real(a, b, lo, hi, modulus)

        monkeypatch.setattr(series_module, "_product", recording)
        b_series(19549, 49)
        assert pairs and (19550, 19550) not in pairs

    # across the threshold, and at lengths 1024 to 1026, which straddle a
    # power-of-two multiple of it: the seed is halved once more on one side
    @pytest.mark.parametrize("order", [_T - 1, _T, _T + 1, 1023, 1024, 1025])
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

    def test_expanded_at_order_over_g(self, monkeypatch):
        # f_343 / f_686 to 3771 is f_1 / f_2 to 10, lifted once
        lengths = []
        real = series_module._convolve_packed

        def recording(a, b, out_len, modulus=None):
            lengths.append(out_len)
            return real(a, b, out_len, modulus)

        monkeypatch.setattr(series_module, "_convolve_packed", recording)
        expand_eta_quotient(EtaQuotientSpec(686, {343: 1, 686: -1}), 3771)
        assert lengths == [3771 // 343 + 1]
