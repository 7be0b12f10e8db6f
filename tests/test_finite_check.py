"""Constants, cusp sums, bounds, and full certificate runs."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import least_failing_n, sweep
from etacert import finite_check, oracle
from etacert import (
    CuspEntry,
    EtaQuotientSpec,
    KNOWN_INSTANCES,
    OrderCapExceeded,
    RSCertificate,
    RSInstance,
    compute_p_set,
    coset_representatives,
    divisors,
    expand_eta_quotient,
    extract_arithmetic_progression,
    index_gamma0,
    instance_from_dict,
    kappa,
    p_min,
    p_star,
    revalidate_certificate,
    v_bound,
    verify_instance,
)


class TestKappa:
    def test_values(self):
        assert kappa(125) == 24
        assert kappa(2) == 3
        assert kappa(1) == 24  # gcd(0, 24)
        assert kappa(49) == 24
        assert kappa(343) == 24

    def test_validation(self):
        with pytest.raises(ValueError):
            kappa(0)


class TestPSet:
    def test_mod25_instance(self):
        assert compute_p_set(KNOWN_INSTANCES["mod25"]) == (99,)

    def test_mod7_t33_instance(self):
        assert compute_p_set(KNOWN_INSTANCES["mod7_t33"]) == (19, 33, 40)

    def test_mod7_t47_instance(self):
        assert compute_p_set(KNOWN_INSTANCES["mod7_t47"]) == (47,)

    def test_mod49_instance(self):
        assert compute_p_set(KNOWN_INSTANCES["mod49"]) == (96, 292, 341)


class TestIndex:
    def test_values(self):
        assert index_gamma0(1) == 1
        assert index_gamma0(14) == 24
        assert index_gamma0(10) == 18
        assert index_gamma0(8) == 12
        assert index_gamma0(49) == 56

    def test_matches_rational_product(self):
        for n in range(1, 201):
            want = Fraction(n)
            for p in {d for d in range(2, n + 1) if n % d == 0 and all(d % q for q in range(2, d))}:
                want *= Fraction(p + 1, p)
            assert index_gamma0(n) == want

    def test_matches_projective_line_count(self):
        # [SL2(Z) : Gamma0(N)] = |P^1(Z/N)|: the pairs (c, d) mod N with
        # gcd(c, d, N) = 1, up to the phi(N) unit scalings; no prime is found
        for n in range(1, 61):
            pairs = sum(1 for c in range(n) for d in range(n) if math.gcd(c, d, n) == 1)
            phi = sum(1 for x in range(n) if math.gcd(x, n) == 1)
            assert pairs % phi == 0
            assert index_gamma0(n) == pairs // phi


class TestCosetRepresentatives:
    def test_n14(self):
        assert coset_representatives(14) == (1, 2, 7, 14)

    def test_n1(self):
        assert coset_representatives(1) == (1,)

    def test_divisors(self):
        assert divisors(14) == (1, 2, 7, 14)
        assert divisors(1) == (1,)
        with pytest.raises(ValueError):
            divisors(0)


class TestCuspSums:
    def test_p_min_single_term(self):
        inst = RSInstance(
            m=1, M=1, N=1, t=0,
            r=EtaQuotientSpec(1, {1: 1}), r_prime=EtaQuotientSpec(1, {}), u=2,
        )
        assert p_min(inst, 1) == Fraction(1, 24)

    def test_p_min_zero_quotient(self):
        inst = RSInstance(
            m=5, M=1, N=1, t=0,
            r=EtaQuotientSpec(1, {}), r_prime=EtaQuotientSpec(1, {}), u=2,
        )
        assert p_min(inst, 1) == 0

    def test_p_min_needs_nonzero_c(self):
        inst = KNOWN_INSTANCES["mod25"]
        with pytest.raises(ValueError):
            p_min(inst, 0)

    def test_p_star_direct_values(self):
        inst25 = KNOWN_INSTANCES["mod25"]
        assert p_star(inst25, 10) == Fraction(13, 24)
        inst7 = KNOWN_INSTANCES["mod7_t33"]
        assert p_star(inst7, 14) == Fraction(1, 8)

    def test_p_star_zero_quotient(self):
        inst = RSInstance(
            m=5, M=1, N=1, t=0,
            r=EtaQuotientSpec(1, {1: 1}), r_prime=EtaQuotientSpec(1, {}), u=2,
        )
        assert p_star(inst, 1) == 0

    @pytest.mark.parametrize("key", sorted(KNOWN_INSTANCES))
    def test_nonnegative_at_every_representative(self, key):
        inst = KNOWN_INSTANCES[key]
        for c in coset_representatives(inst.N):
            assert p_min(inst, c) + p_star(inst, c) >= 0


def _reference_p_min(instance: RSInstance, a: int, c: int) -> Fraction:
    """min over lambda in 0..m-1 of (1/24) sum_delta r_delta gcd^2(delta(a + kappa lambda c), mc) / (delta m)."""
    m = instance.m
    kap = math.gcd(m * m - 1, 24)
    best = None
    for lam in range(m):
        total = Fraction(0)
        for delta, r in instance.r.exponents:
            g = math.gcd(delta * (a + kap * lam * c), m * c)
            total += Fraction(r * g * g, 24 * delta * m)
        if best is None or total < best:
            best = total
    return best


def _reference_p_star(instance: RSInstance, a: int, c: int) -> Fraction:
    """(1/24) sum over delta | N of r'_delta gcd^2(delta a, c) / delta."""
    total = Fraction(0)
    for delta, r in instance.r_prime.exponents:
        g = math.gcd(delta * a, c)
        total += Fraction(r * g * g, 24 * delta)
    return total


@st.composite
def _eta_spec(draw, levels):
    level = draw(st.sampled_from(levels))
    deltas = draw(st.lists(st.sampled_from(divisors(level)), unique=True, max_size=4))
    return EtaQuotientSpec(level, {d: draw(st.integers(-30, 30)) for d in deltas})


_R70 = EtaQuotientSpec(70, {1: -4, 2: 3, 5: 5, 7: -6, 35: 2})


class TestCuspSumsAgainstReference:
    """p_min and p_star against the term-by-term Fraction sums they replaced,
    taken at any cusp a/c: the sums at 1/c stand for it, so the divisors of N
    cover every cusp of Gamma0(N)."""

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 60),
        r=_eta_spec(list(range(1, 61))),
        r_prime=_eta_spec(list(range(1, 61))),
        c=st.integers(1, 60),
        a=st.integers(1, 60),
    )
    @example(m=24, r=EtaQuotientSpec(6, {1: 5, 2: -3, 3: 1, 6: -7}),
             r_prime=EtaQuotientSpec(6, {1: -2, 6: 3}), c=3, a=1)
    @example(m=49, r=EtaQuotientSpec(14, {}), r_prime=EtaQuotientSpec(14, {}), c=7, a=1)
    # m = 2 * 3 * 5 * 7 * 11: each c leaves a different set of divisors prime to it
    @example(m=2310, r=_R70, r_prime=EtaQuotientSpec(1, {}), c=6, a=1)
    @example(m=2310, r=_R70, r_prime=EtaQuotientSpec(1, {}), c=10, a=1)
    @example(m=2310, r=_R70, r_prime=EtaQuotientSpec(1, {}), c=14, a=1)
    @example(m=2310, r=_R70, r_prime=EtaQuotientSpec(1, {}), c=35, a=1)
    # the cusp 2/3 of Gamma0(9), which the table of (1 0; delta 1) does not list
    @example(m=6, r=EtaQuotientSpec(9, {1: -3, 3: 5, 9: -2}),
             r_prime=EtaQuotientSpec(9, {1: 2, 3: -4, 9: 1}), c=3, a=2)
    def test_p_min_and_p_star(self, m, r, r_prime, c, a):
        a += next(k for k in range(c) if math.gcd(a + k, c) == 1)  # the least a' >= a prime to c
        inst = RSInstance(m=m, M=r.level, N=r_prime.level, t=0, r=r, r_prime=r_prime, u=2)
        assert p_min(inst, c) == _reference_p_min(inst, a, c)
        assert p_star(inst, c) == _reference_p_star(inst, a, c)
        assert type(p_min(inst, c)) is type(p_star(inst, c)) is Fraction

    @settings(max_examples=150, deadline=None)
    @given(
        r=_eta_spec(list(range(1, 61))),
        xs=st.lists(st.integers(1, 10**4), min_size=1, max_size=30),
        y=st.integers(1, 3000),
        m=st.integers(1, 60),
    )
    @example(  # p_min of mod49 at c = 7: x = 1 + 24 * 7 * lambda, y = 343 * 7
        r=EtaQuotientSpec(14, {1: 46, 2: 1, 7: -7}),
        xs=[1 + 24 * 7 * lam for lam in range(343)], y=343 * 7, m=343,
    )
    def test_sum_over_distinct_gcds_is_per_x_minimum(self, r, xs, y, m):
        # the reference takes gcd(delta x, y) for every x, with no gcd(x, y) step
        brute = min(
            sum(Fraction(r_delta * math.gcd(delta * x, y) ** 2, 24 * delta * m)
                for delta, r_delta in r.exponents)
            for x in xs
        )
        assert finite_check._cusp_sum(r, xs, y, m) == brute

    @settings(max_examples=40, deadline=None)
    @given(r_prime=_eta_spec(list(range(1, 61))), c=st.integers(-40, 0))
    def test_c_below_one_refused(self, r_prime, c):
        inst = RSInstance(m=1, M=1, N=r_prime.level, t=0, r=EtaQuotientSpec(1, {1: 1}),
                          r_prime=r_prime, u=2)
        for cusp_sum in (p_min, p_star):
            with pytest.raises(ValueError, match=f"^c must be positive, got {c}$"):
                cusp_sum(inst, c)


def _reference_p_set(instance: RSInstance) -> tuple[int, ...]:
    """The orbit of t under t*s + (s - 1)/24 * sigma, squaring every unit x in 1..24m - 1."""
    m, modulus = instance.m, 24 * instance.m
    sigma = instance.r.weighted_sum()
    squares = {x * x % modulus for x in range(1, modulus) if math.gcd(x, modulus) == 1}
    return tuple(sorted({(instance.t * s + (s - 1) // 24 * sigma) % m for s in squares}))


_ETA_1 = EtaQuotientSpec(1, {1: 1})
_MOD49_R = EtaQuotientSpec(14, {1: 46, 2: 1, 7: -7})
_MOD125_R = EtaQuotientSpec(10, {1: 122, 2: 1, 5: -25})


class TestPSetAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 400), t=st.integers(0, 10**6), r=_eta_spec(list(range(1, 61))))
    @example(m=385, t=3, r=_ETA_1)  # 24t + sigma = 73 is prime to m: n = m = 5 * 7 * 11
    @example(m=2275, t=3, r=_ETA_1)  # n = m = 5^2 * 7 * 13
    @example(m=144, t=3, r=_ETA_1)  # no prime >= 5: every k < n = 144 passes
    @example(m=343, t=96, r=_MOD49_R)  # mod49: 24t + sigma = 49 * 47, so n = 7
    @example(m=3125, t=2474, r=_MOD125_R)  # X2: 24t + sigma = 19 * 3125, so n = 1
    def test_closed_form_matches_every_unit(self, m, t, r):
        t %= m
        inst = RSInstance(m=m, M=r.level, N=1, t=t, r=r, r_prime=EtaQuotientSpec(1, {}), u=2)
        assert compute_p_set(inst) == _reference_p_set(inst)

    def test_p5_a6_rung_by_hand(self):
        # 24 * 14974 - 1 = 359375 = 23 * 15625: T = 0 (mod m), so n = 1 and
        # every square unit fixes t
        inst = RSInstance(m=15625, M=10, N=1, t=14974, r=_MOD125_R,
                          r_prime=EtaQuotientSpec(1, {}), u=125)
        assert 24 * inst.t + inst.r.weighted_sum() == 23 * inst.m
        assert compute_p_set(inst) == (14974,) == _reference_p_set(inst)

    def test_orbit_count_checked(self, monkeypatch):
        # a prime list that does not match n = 385 leaves 21 residues where the
        # count n * prod (p - 1) / (2p) says 13
        primes = finite_check._primes
        monkeypatch.setattr(finite_check, "_primes", lambda n: primes(n) + [13])
        inst = RSInstance(m=385, M=1, N=1, t=3, r=_ETA_1, r_prime=EtaQuotientSpec(1, {}), u=2)
        with pytest.raises(finite_check.InternalAssertionFailure, match="21 residues, expected 13$"):
            compute_p_set(inst)


class TestVBound:
    def test_mod25(self):
        v, floor = v_bound(KNOWN_INSTANCES["mod25"])
        assert v == Fraction(263, 12)
        assert floor == 21

    def test_mod7_t33(self):
        v, floor = v_bound(KNOWN_INSTANCES["mod7_t33"])
        assert v == Fraction(545, 84)
        assert floor == 6

    def test_mod7_t47(self):
        # t_min = 47 is the only orbit element, so the exact bound lands below 6
        v, floor = v_bound(KNOWN_INSTANCES["mod7_t47"])
        assert v == Fraction(71, 12)
        assert floor == 5

    def test_mod49(self):
        v, floor = v_bound(KNOWN_INSTANCES["mod49"])
        assert v == Fraction(9571, 168)
        assert floor == 56

    def test_floor_is_exact(self):
        for inst in KNOWN_INSTANCES.values():
            v, floor = v_bound(inst)
            assert floor == math.floor(v)


# (m, M, N, t, r, r', u, v, P, (n, exponent, value, t'), failed Delta* conditions):
# counterexamples whose witness lies at n = checked_upto > 0, so a check bound
# one short of floor(v) misses it.  The first is the hand-made m = N = 11 pin:
# v = 7/6, so n = 0 and n = 1 are scanned, c(9) == 0 and c(20) == 3 (mod 7),
# and the tuple passing all six conditions, a short bound would certify it.
# The next ten are every such witness of the scale/ corpus sweeps while they
# drew M = N: seven of seed 7 (property B), then three of seed 3 (property
# A).  The last twelve are those of the sweeps that draw M apart from N whose
# least failing n over P is checked_upto too: nine of seed 7, two of seed 3
# and one of the tier-1 seed 5
_BOUNDARY_WITNESSES = [
    (11, 11, 11, 9, {1: 4, 11: 1}, {1: -1}, 7, "7/6", (9,), (1, 20, 3, 9), []),
    (11, 11, 11, 9, {1: 4}, {}, 3, "7/6", (9,), (1, 20, 1, 9), []),
    (23, 23, 23, 20, {1: 3, 23: -1}, {1: 1}, 2, "17/8", (20,), (2, 66, 1, 20), []),
    (13, 13, 13, 8, {1: 3, 13: -3}, {1: 3}, 5, "9/8", (8,), (1, 21, 3, 8), []),
    (17, 17, 17, 2, {1: 3, 17: 2}, {1: -2}, 7, "17/8", (2,), (2, 36, 3, 2), []),
    (19, 19, 19, 7, {1: 3, 19: 4}, {1: -4}, 2, "17/8", (7,), (2, 45, 1, 7), []),
    (17, 17, 17, 7, {1: 2, 17: -1}, {1: 1}, 3, "13/12", (7,), (1, 24, 2, 7), []),
    (25, 5, 5, 14, {1: 4, 5: -3}, {1: 11}, 3, "2", (14,), (2, 64, 2, 14), []),
    (22, 9, 9, 17, {1: 3, 3: -2, 9: 3}, {}, 3, "21/11", (1, 5, 7, 9, 17), (1, 27, 2, 5),
     [1, 4, 5]),
    (17, 7, 7, 12, {1: 3, 7: 4}, {}, 3, "299/136", (1, 3, 4, 5, 8, 9, 10, 12), (2, 35, 1, 1),
     [1, 5]),
    (15, 7, 7, 1, {1: 2, 7: 2}, {}, 2, "11/9", (1, 6, 11), (1, 16, 1, 1), [1, 5]),
    (13, 1, 13, 2, {1: 4}, {}, 2, "13/6", (2,), (2, 28, 1, 2), []),
    (23, 23, 23, 21, {1: 2, 23: 3}, {1: -3}, 7, "13/12", (21,), (1, 44, 1, 21), []),
    (5, 5, 5, 3, {1: -2, 5: -1}, {1: 11}, 2, "1", (3,), (1, 8, 1, 3), []),
    (23, 1, 23, 19, {1: 4}, {}, 7, "19/6", (19,), (3, 88, 5, 19), []),
    (5, 1, 5, 2, {1: -3}, {1: 15}, 3, "2", (2,), (2, 12, 2, 2), []),
    (19, 1, 19, 3, {1: 4}, {}, 2, "19/6", (3,), (3, 60, 1, 3), []),
    (29, 1, 29, 24, {1: 4}, {}, 7, "25/6", (24,), (4, 140, 6, 24), []),
    (11, 29, 11, 9, {1: 4}, {}, 7, "7/6", (9,), (1, 20, 3, 9), []),
    (5, 25, 5, 3, {1: -2, 5: -3, 25: -1}, {1: 14}, 2, "7/6", (3,), (1, 8, 1, 3), []),
    (35, 19, 17, 10, {19: -3}, {1: 6}, 5, "571/280", (1, 10, 11, 15, 25, 31), (2, 95, 3, 25),
     [1, 2, 5]),
    (21, 17, 26, 16, {17: -3}, {1: 4}, 2, "275/168", (1, 13, 16), (1, 34, 1, 13),
     [1, 2, 3, 5]),
    (21, 10, 24, 9, {1: 3, 5: 2, 10: -4}, {}, 7, "13/8", (9,), (1, 30, 4, 9), [1, 2]),
]


def _check_boundary_certificate(row) -> RSInstance:
    """The instance of a `_BOUNDARY_WITNESSES` row, once its certificate is checked:
    a counterexample with its witness at n = checked_upto, at the pinned v and P."""
    m, M, N, t, r, r_prime, u, v, p_set, (n, exponent, value, t_prime), _ = row
    inst = RSInstance(m, M, N, t, EtaQuotientSpec(M, r), EtaQuotientSpec(N, r_prime), u)
    cert = verify_instance(inst)
    assert cert.status == "counterexample", inst
    assert cert.witness == {"n": n, "exponent": exponent, "value": value, "t_prime": t_prime}, inst
    assert (cert.v_exact, cert.p_set, cert.checked_upto) == (Fraction(v), p_set, n), inst
    return inst


class TestVerifyInstance:
    def test_mod7_t33_verifies(self):
        cert = verify_instance(KNOWN_INSTANCES["mod7_t33"])
        assert cert.status == "verified"
        assert cert.p_set == (19, 33, 40)
        assert cert.t_min == 19
        assert cert.kappa == 24
        assert cert.index == 24
        assert cert.checked_upto == cert.v_floor == 6
        assert cert.delta_star == "assumed"
        assert cert.witness is None
        for t_prime, flags in cert.residues_ok:
            assert t_prime in (19, 33, 40)
            assert len(flags) == 7 and all(flags)

    def test_mod7_t47_verifies(self):
        cert = verify_instance(KNOWN_INSTANCES["mod7_t47"])
        assert cert.status == "verified"
        assert cert.p_set == (47,)
        assert cert.v_floor == 5

    def test_reproducible(self):
        a = verify_instance(KNOWN_INSTANCES["mod7_t33"])
        b = verify_instance(KNOWN_INSTANCES["mod7_t33"])
        assert a == b
        assert a.series_hash == b.series_hash
        assert a.to_json() == b.to_json()

    def test_overcheck_three_times_bound(self):
        for key in ("mod7_t33", "mod7_t47", "mod25"):
            inst = KNOWN_INSTANCES[key]
            _, floor = v_bound(inst)
            cert = verify_instance(inst, check_upto=3 * floor)
            assert cert.status == "verified"
            assert cert.checked_upto == 3 * floor

    def test_undercheck_rejected(self):
        with pytest.raises(ValueError):
            verify_instance(KNOWN_INSTANCES["mod7_t33"], check_upto=2)

    def test_negative_v_floor_scans_n_zero(self):
        # cusp sum -1/6 + 1/6 = 0 at delta = 1 and v = -1/24: n = 0 is still
        # scanned, where floor(v) = -1 alone would ask the kernel for order -2
        inst = RSInstance(
            m=2, M=1, N=1, t=0,
            r=EtaQuotientSpec(1, {1: -2}), r_prime=EtaQuotientSpec(1, {1: 4}), u=5,
        )
        cert = verify_instance(inst)
        assert (cert.v_exact, cert.v_floor, cert.checked_upto) == (Fraction(-1, 24), -1, 0)
        assert cert.status == "counterexample"
        assert cert.witness == {"n": 0, "exponent": 0, "value": 1, "t_prime": 0}
        assert revalidate_certificate(json.loads(cert.to_json()))
        with pytest.raises(ValueError, match="check_upto must be nonnegative, got -1$"):
            verify_instance(inst, check_upto=-1)

    def test_perturbed_t_is_not_certified(self):
        # moving the residue off the certified family must not produce a pass
        base = KNOWN_INSTANCES["mod25"]
        perturbed = RSInstance(
            m=125, M=10, N=10, t=98, r=base.r, r_prime=base.r_prime, u=25
        )
        cert = verify_instance(perturbed)
        assert cert.p_set != (98,)
        assert cert.status == "counterexample"
        assert cert.witness is not None
        assert cert.witness["value"] % 25 != 0

    def test_each_residue_class_read_once(self, monkeypatch):
        reads = []
        extract = finite_check.extract_arithmetic_progression

        def recording(series, m, t):
            reads.append(t)
            return extract(series, m, t)

        monkeypatch.setattr(finite_check, "extract_arithmetic_progression", recording)
        cert = verify_instance(KNOWN_INSTANCES["mod7_t33"])
        assert cert.verified
        assert sorted(reads) == list(cert.p_set)

    def test_residue_flags_match_an_independent_scan(self):
        # the perturbed mod-25 instance fails: its flags, read off a fresh
        # expansion here, place the witness at the first nonzero coefficient
        mod25 = KNOWN_INSTANCES["mod25"]
        inst = RSInstance(125, 10, 10, 98, mod25.r, mod25.r_prime, 25)
        cert = verify_instance(inst)
        assert cert.status == "counterexample"
        order = inst.m * cert.checked_upto + max(cert.p_set)
        reduced = expand_eta_quotient(inst.r, order, inst.u)
        flags = tuple(
            (t, tuple(v == 0 for v in extract_arithmetic_progression(reduced, inst.m, t).coeffs))
            for t in cert.p_set
        )
        assert cert.residues_ok == flags
        first_failing = next(t for t, ok in flags if not all(ok))
        assert cert.witness["t_prime"] == first_failing
        assert dict(flags)[first_failing].index(False) == cert.witness["n"]

    def test_strict_mode_flags_membership(self):
        cert = verify_instance(KNOWN_INSTANCES["mod7_t47"], assume_delta_star=False)
        assert cert.status == "delta_star_unverified"
        assert cert.delta_star == "unverified"
        # the scan itself still ran clean
        assert cert.witness is None
        assert all(all(flags) for _, flags in cert.residues_ok)

    def test_hypothesis_violation(self):
        inst = RSInstance(
            m=1, M=1, N=1, t=0,
            r=EtaQuotientSpec(1, {1: -1}), r_prime=EtaQuotientSpec(1, {}), u=2,
        )
        cert = verify_instance(inst)
        assert cert.status == "hypothesis_violation"
        assert cert.witness == {"delta": 1, "p_min": "-1/24", "p_star": "0"}
        assert cert.residues_ok == ()

    def test_false_congruence_is_not_verified(self):
        # f7^2 has c(7) = -2, so c(2n + 1) == 0 (mod 3) fails at n = 3; the tuple
        # fails conditions 1, 3, 4 and 5 of Delta*, and its check bound is 0
        assert oracle.naive_expand(EtaQuotientSpec(7, {7: 2}), 7).coeffs[7] == -2
        inst = RSInstance(m=2, M=7, N=7, t=1, r=EtaQuotientSpec(7, {7: 2}),
                          r_prime=EtaQuotientSpec(7, {1: 0}), u=3)
        cert = verify_instance(inst)
        assert (cert.status, cert.checked_upto) == ("hypothesis_violation", 0)
        assert cert.witness == {"delta_star_conditions": [1, 3, 4, 5]}
        assert all(all(flags) for _, flags in cert.residues_ok)  # the scan was clean
        assert cert.delta_star == "assumed"
        assert revalidate_certificate(json.loads(cert.to_json()))
        # strict mode does not consult the conditions
        assert verify_instance(inst, assume_delta_star=False).status == "delta_star_unverified"

    @pytest.mark.parametrize("N,failures,status", [(6, [4, 5], "hypothesis_violation"),
                                                   (12, [], "verified")])
    def test_delta_1_mod_3_at_two_levels(self, N, failures, status):
        # Delta_1(2n + 1) == 0 (mod 3) with r' = {1: 5}: at N = 6 the tuple fails
        # conditions 4 and 5 and is refused, at N = 12 it passes all six
        inst = RSInstance(m=2, M=N, N=N, t=1, r=EtaQuotientSpec(N, {1: -3, 2: 1, 3: 1, 6: -1}),
                          r_prime=EtaQuotientSpec(N, {1: 5}), u=3)
        cert = verify_instance(inst)
        assert cert.status == status
        assert cert.witness == ({"delta_star_conditions": failures} if failures else None)

    def test_counterexample_wins_over_delta_star(self):
        # the perturbed mod-25 residue fails condition 5 too, and is a counterexample
        mod25 = KNOWN_INSTANCES["mod25"]
        inst = RSInstance(125, 10, 10, 98, mod25.r, mod25.r_prime, 25)
        assert finite_check._delta_star_failures(inst) == [5]
        assert verify_instance(inst).status == "counterexample"

    def test_witness_at_the_check_bound(self):
        for row in _BOUNDARY_WITNESSES:
            inst = _check_boundary_certificate(row)
            (n, exponent, value, t_prime), failures = row[-2:]
            coeffs = oracle.naive_expand(inst.r, exponent).coeffs
            assert [c % inst.u for c in coeffs[t_prime::inst.m]] == [0] * n + [value], inst
            assert finite_check._delta_star_failures(inst) == failures, inst

    def test_order_cap_fails_fast(self):
        with pytest.raises(OrderCapExceeded):
            verify_instance(KNOWN_INSTANCES["mod25"], order_cap=100)

    def test_order_cap_refused_before_orbit(self, monkeypatch):
        # m = 10**6: the orbit and the cusp table alone take many seconds, and
        # m * floor(v at t) + t already exceeds the cap
        def no_orbit(instance):
            raise AssertionError("P set computed for an instance over the cap")

        monkeypatch.setattr(finite_check, "compute_p_set", no_orbit)
        inst = RSInstance(
            m=10**6, M=14, N=14, t=33,
            r=EtaQuotientSpec(14, {1: 4, 2: 1, 7: -1}), r_prime=EtaQuotientSpec(14, {1: 3}), u=7,
        )
        with pytest.raises(OrderCapExceeded, match="exceeds cap 1000000$"):
            verify_instance(inst)
        with pytest.raises(OrderCapExceeded, match="exceeds cap 100$"):
            verify_instance(KNOWN_INSTANCES["mod25"], order_cap=100)

    def test_m_over_cap_refused_before_orbit(self, monkeypatch):
        # floor(v) at t is <= 0, so m * floor(v) + t = 5 stays under the cap
        def no_orbit(instance):
            raise AssertionError("P set computed for an m over the cap")

        monkeypatch.setattr(finite_check, "compute_p_set", no_orbit)
        inst = RSInstance(
            m=10**8, M=10, N=10, t=5,
            r=EtaQuotientSpec(10, {1: 22, 2: 1, 5: -5}), r_prime=EtaQuotientSpec(10, {1: -40}),
            u=25,
        )
        assert finite_check._v_exact(inst, inst.t) <= 0
        with pytest.raises(OrderCapExceeded, match="^m = 100000000 exceeds cap 1000000$"):
            verify_instance(inst)
        with pytest.raises(OrderCapExceeded, match="^m = 100000000 exceeds cap 10$"):
            verify_instance(inst, order_cap=10)

    @pytest.mark.parametrize("key", sorted(KNOWN_INSTANCES))
    def test_order_cap_early_bound_below_required_order(self, key):
        # the bound refuses only what the exact check would refuse: at a cap
        # equal to the required order both pass, one below it both refuse,
        # without check_upto and with check_upto = floor(v) + extra
        inst = KNOWN_INSTANCES[key]
        _, v_floor = v_bound(inst)
        for extra in (None, 0, 1):
            check_upto = None if extra is None else v_floor + extra
            required = inst.m * (v_floor + (extra or 0)) + max(compute_p_set(inst))
            verify_instance(inst, check_upto=check_upto, order_cap=required)
            with pytest.raises(OrderCapExceeded, match=f"exceeds cap {required - 1}$"):
                verify_instance(inst, check_upto=check_upto, order_cap=required - 1)

    def test_order_cap_with_check_upto_keeps_undercut_check(self):
        # with check_upto given, an undercut is refused as such even over the cap
        with pytest.raises(ValueError, match="undercuts"):
            verify_instance(KNOWN_INSTANCES["mod25"], check_upto=0, order_cap=100)

    def test_order_cap_with_check_upto_refused_before_orbit(self, monkeypatch):
        # m = 10**6: m * check_upto + t exceeds the cap, so neither the orbit
        # nor the cusp table is built, in verify_instance or in the replay
        def no_orbit(instance):
            raise AssertionError("P set computed for an instance over the cap")

        monkeypatch.setattr(finite_check, "compute_p_set", no_orbit)
        inst = RSInstance(
            m=10**6, M=14, N=14, t=33,
            r=EtaQuotientSpec(14, {1: 4, 2: 1, 7: -1}), r_prime=EtaQuotientSpec(14, {1: 3}), u=7,
        )
        with pytest.raises(OrderCapExceeded, match="at least 10000033 exceeds cap 1000000$"):
            verify_instance(inst, check_upto=10)
        data = {"schema_version": 1, "instance": inst.to_json_dict(),
                "checked_upto": 10, "delta_star": "assumed"}
        with pytest.raises(OrderCapExceeded, match="exceeds cap 1000000$"):
            revalidate_certificate(data)

    def test_check_upto_between_bounds_is_refused_by_the_cap(self):
        # t = 43 has t_min = 1: floor(v) is 5 at t but 6 at t_min, so
        # check_upto = 5 undercuts only once P is known; over the cap the early
        # order bound 49 * 5 + 43 refuses it first
        base = KNOWN_INSTANCES["mod7_t33"]
        inst = RSInstance(m=49, M=14, N=14, t=43, r=base.r, r_prime=base.r_prime, u=7)
        assert min(compute_p_set(inst)) == 1 and v_bound(inst)[1] == 6
        with pytest.raises(OrderCapExceeded, match="at least 288 exceeds cap 100$"):
            verify_instance(inst, check_upto=5, order_cap=100)
        with pytest.raises(ValueError, match="undercuts the bound floor.v. = 6$"):
            verify_instance(inst, check_upto=5)
        with pytest.raises(ValueError, match="undercuts the bound floor.v. >= 5$"):
            verify_instance(inst, check_upto=4, order_cap=100)

    def test_instance_validation(self):
        r = EtaQuotientSpec(10, {1: 1})
        rp = EtaQuotientSpec(10, {})
        with pytest.raises(ValueError):
            RSInstance(m=5, M=10, N=10, t=5, r=r, r_prime=rp, u=25)
        with pytest.raises(ValueError):
            RSInstance(m=5, M=14, N=10, t=1, r=r, r_prime=rp, u=25)
        with pytest.raises(ValueError):
            RSInstance(m=5, M=10, N=10, t=1, r=r, r_prime=rp, u=1)


_MOD7_T47 = (
    "RSInstance(m=49, M=14, N=14, t=47, "
    "r=EtaQuotientSpec(level=14, exponents=((1, 4), (2, 1), (7, -1))), "
    "r_prime=EtaQuotientSpec(level=14, exponents=((1, 3),)), u=7)"
)


class TestValues:
    def test_instance(self, frozen_value):
        inst = KNOWN_INSTANCES["mod7_t47"]
        frozen_value(
            RSInstance(49, 14, 14, 47, inst.r, inst.r_prime, 7),
            RSInstance(u=7, r_prime=inst.r_prime, r=inst.r, t=47, N=14, M=14, m=49),
            _MOD7_T47,
            (49, 14, 14, 47, inst.r, inst.r_prime, 7),
        )

    def test_cusp_entry(self, frozen_value):
        frozen_value(
            CuspEntry(7, Fraction(-5, 2352), Fraction(1, 8)),
            CuspEntry(p_star=Fraction(1, 8), p_min=Fraction(-5, 2352), delta=7),
            "CuspEntry(delta=7, p_min=Fraction(-5, 2352), p_star=Fraction(1, 8))",
            (7, Fraction(-5, 2352), Fraction(1, 8)),
        )

    def test_verified_certificate(self, frozen_value):
        # a witness dict is unhashable, so the value checked is a verified one
        cert = verify_instance(KNOWN_INSTANCES["mod7_t47"])
        fields = (
            KNOWN_INSTANCES["mod7_t47"], 24, (47,), 47, 24, cert.cusp_table, Fraction(71, 12), 5,
            5, ((47, (True,) * 6),), "verified", None, "assumed", cert.series_hash,
        )
        frozen_value(
            cert,
            RSCertificate(**dict(zip(RSCertificate.__slots__, fields))),
            f"RSCertificate(instance={_MOD7_T47}, kappa=24, p_set=(47,), t_min=47, index=24, "
            f"cusp_table={cert.cusp_table!r}, v_exact=Fraction(71, 12), v_floor=5, "
            "checked_upto=5, residues_ok=((47, (True, True, True, True, True, True)),), "
            "status='verified', witness=None, delta_star='assumed', "
            f"series_hash={cert.series_hash!r})",
            fields,
        )
        assert cert.cusp_table[0] == CuspEntry(1, Fraction(-5, 48), Fraction(1, 8))


class TestCertificateSerialization:
    def test_schema_fields(self):
        cert = verify_instance(KNOWN_INSTANCES["mod7_t47"])
        data = cert.to_json_dict()
        assert data["schema_version"] == 1
        assert data["instance"] == {
            "m": 49, "M": 14, "N": 14, "t": 47,
            "r": {"1": 4, "2": 1, "7": -1}, "r_prime": {"1": 3}, "u": 7,
        }
        assert data["p_set"] == [47]
        assert data["v"] == {"num": 71, "den": 12, "floor": 5}
        assert data["status"] == "verified"
        assert data["series_hash"].startswith("sha256:")
        assert len(data["cusp_table"]) == 4
        entry = data["cusp_table"][0]
        assert set(entry) == {"delta", "p_min_num", "p_min_den", "p_star_num", "p_star_den"}
        assert "witness" not in data

    def test_instance_roundtrip(self):
        inst = KNOWN_INSTANCES["mod49"]
        assert instance_from_dict(inst.to_json_dict()) == inst

    def test_fractional_field_refused(self):
        # int() took 49.9 to m = 49 and an exponent 3.5 to 3; keys stay strings
        data = KNOWN_INSTANCES["mod7_t33"].to_json_dict()
        with pytest.raises(ValueError, match="^m must be an integer, got 49.9$"):
            instance_from_dict(dict(data, m=49.9))
        with pytest.raises(ValueError, match="^exponent must be an integer, got 3.5$"):
            instance_from_dict(dict(data, r_prime={"1": 3.5}))
        cert = json.loads(verify_instance(KNOWN_INSTANCES["mod7_t33"]).to_json())
        cert["instance"]["m"] = 49.9
        assert not revalidate_certificate(cert)

    def test_revalidate_genuine(self):
        cert = verify_instance(KNOWN_INSTANCES["mod7_t33"])
        data = json.loads(cert.to_json())
        assert revalidate_certificate(data)

    def test_revalidate_detects_tampering(self):
        cert = verify_instance(KNOWN_INSTANCES["mod7_t33"])
        data = json.loads(cert.to_json())
        data["v"]["floor"] = 7
        assert not revalidate_certificate(data)
        data = json.loads(cert.to_json())
        data["series_hash"] = "sha256:" + "0" * 64
        assert not revalidate_certificate(data)
        data = json.loads(cert.to_json())
        data["schema_version"] = 99
        assert not revalidate_certificate(data)
        data = json.loads(cert.to_json())
        data["checked_upto"] = 1  # undercuts floor(v); replay must refuse, not crash
        assert not revalidate_certificate(data)
        data = json.loads(cert.to_json())
        del data["instance"]["r"]
        assert not revalidate_certificate(data)
        for bad_r in ([4, 1, -1], None):  # r must be a mapping; refuse, not crash
            data = json.loads(cert.to_json())
            data["instance"]["r"] = bad_r
            assert not revalidate_certificate(data)
        assert not revalidate_certificate([json.loads(cert.to_json())])
        # equal values of another type: 49.0 == 49, but the JSON text differs
        for path in (("instance", "m"), ("instance", "u"), ("checked_upto",), ("kappa",),
                     ("instance", "r", "1")):
            data = json.loads(cert.to_json())
            *parents, key = path
            holder = data
            for name in parents:
                holder = holder[name]
            holder[key] = float(holder[key])
            assert not revalidate_certificate(data), path
        data = json.loads(cert.to_json())
        data["note"] = {1, 2}  # does not serialize; refuse, not crash
        assert not revalidate_certificate(data)


# (condition, m, M, N, t, r, r', u, n): a false congruence that fails that
# condition alone.  Its scan to checked_upto is clean, so only the check of
# the condition refuses it, and the naive product shows its first nonzero
# residue at m n + t.  No such tuple is known for 3 or 6
_FALSE_CONGRUENCES = [
    (1, 7, 19, 19, 3, {19: 1}, {}, 2, 5),
    (2, 4, 25, 24, 3, {5: 2, 25: -2}, {}, 5, 3),
    (4, 4, 4, 4, 2, {1: -4, 2: -4, 4: 1}, {1: 23}, 3, 4),
    (5, 4, 2, 2, 2, {1: -4}, {1: 16}, 7, 3),
]


def _bare(m, M, N, t, r):
    return RSInstance(m, M, N, t, EtaQuotientSpec(M, r), EtaQuotientSpec(N, {}), 2)


class TestDeltaStar:
    """The six Delta* conditions that `_delta_star_failures` checks."""

    # (condition, m, M, N, t, r): a tuple that fails that condition alone.
    # kappa = gcd(m^2 - 1, 24) is 24 for m prime to 6, which makes conditions
    # 3 and 4 hold, so m = 2 (kappa 3) and m = 3 (kappa 8).  With M = N,
    # failing 3 forces failing 6 as well, so condition 3's tuple has M = 2N
    @pytest.mark.parametrize("condition,m,M,N,t,r", [
        (1, 3, 1, 1, 1, {1: 3}),
        (2, 2, 16, 4, 0, {16: -4}),
        (3, 2, 8, 4, 0, {1: 2, 2: 1, 8: 1}),
        (4, 2, 4, 4, 0, {4: -1}),
        (5, 2, 4, 4, 0, {1: -2}),
        (6, 2, 4, 4, 0, {1: -2, 2: -1, 4: -1}),
    ])
    def test_each_condition_fails_alone(self, condition, m, M, N, t, r):
        assert finite_check._delta_star_failures(_bare(m, M, N, t, r)) == [condition]

    @pytest.mark.parametrize("condition,m,M,N,t,r,r_prime,u,n", _FALSE_CONGRUENCES)
    def test_false_congruence_refused_by_its_condition(self, run_cli, condition, m, M, N, t,
                                                       r, r_prime, u, n):
        def spec(exponents):
            return ",".join(f"{d}:{e}" for d, e in exponents.items()) or "1:0"

        code, out, err = run_cli("certify", "--m", m, "--M", M, "--N", N, "--t", t,
                                 "--r", spec(r), "--rprime", spec(r_prime), "--mod", u)
        assert (code, err) == (2, "")
        data = json.loads(out)
        assert data["witness"] == {"delta_star_conditions": [condition]}
        assert data["p_set"] == [t] and data["checked_upto"] < n
        coeffs = oracle.naive_expand(EtaQuotientSpec(M, r), m * n + t).coeffs
        assert [c % u != 0 for c in coeffs[t::m]] == [False] * n + [True]


class TestSoundnessCorpus:
    """ROADMAP item 15: no `verified` certificate of a seeded tuple has a nonzero
    residue up to n = 400, whether every drawn tuple is certified (property A)
    or only those that pass the six Delta* conditions (property B).  The
    corpus lives in tests/corpus.py; scale/test_scale.py sweeps 1000 and 3000."""

    def test_conditions_by_hand(self):
        for instance in KNOWN_INSTANCES.values():
            assert finite_check._delta_star_failures(instance) == []
        # f7^2 with (m, t) = (2, 1), and Delta_1(2n + 1) mod 3 at N = 6 and N = 12
        assert finite_check._delta_star_failures(_bare(2, 7, 7, 1, {7: 2})) == [1, 3, 4, 5]
        delta_1 = {1: -3, 2: 1, 3: 1, 6: -1}
        assert finite_check._delta_star_failures(_bare(2, 6, 6, 1, delta_1)) == [4, 5]
        assert finite_check._delta_star_failures(_bare(2, 12, 12, 1, delta_1)) == []

    def test_sweep_counts_the_least_failing_n_over_p(self):
        # a seed-3 tuple of the scale/ sweep: its witness is t' = 1 at
        # n = checked_upto = 2, but t' = 3 and t' = 10 already fail at n = 0
        inst = RSInstance(17, 7, 7, 12, EtaQuotientSpec(7, {1: 3, 7: 4}), EtaQuotientSpec(7, {}), 3)
        cert = verify_instance(inst)
        assert (cert.witness["t_prime"], cert.witness["n"], cert.checked_upto) == (1, 2, 2)
        assert least_failing_n(cert) == 0

    def test_no_false_verified_unfiltered(self):
        result = sweep(seed=5, size=100, filtered=False)
        print(result.summary())
        # this draw holds no `verified`, so the status counts are what pin it
        assert result.false_verified == []
        assert dict(result.statuses) == {"counterexample": 89, "hypothesis_violation": 11}

    def test_no_false_verified(self):
        result = sweep(seed=1, size=300)
        print(result.summary())
        assert result.false_verified == []
        assert dict(result.statuses) == {"counterexample": 249, "verified": 51}
