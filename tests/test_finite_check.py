"""Constants, cusp sums, bounds, and full certificate runs."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import sweep
from etacert import finite_check, oracle
from etacert import (
    EtaQuotientSpec,
    KNOWN_INSTANCES,
    OrderCapExceeded,
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


def _reference_p_min(instance: RSInstance, c: int) -> Fraction:
    """min over lambda in 0..m-1 of (1/24) sum_delta r_delta gcd^2(delta(1 + kappa lambda c), mc) / (delta m)."""
    m = instance.m
    kap = math.gcd(m * m - 1, 24)
    best = None
    for lam in range(m):
        total = Fraction(0)
        for delta, r in instance.r.exponents:
            g = math.gcd(delta * (1 + kap * lam * c), m * c)
            total += Fraction(r * g * g, 24 * delta * m)
        if best is None or total < best:
            best = total
    return best


def _reference_p_star(instance: RSInstance, c: int) -> Fraction:
    """(1/24) sum over delta | N of r'_delta gcd^2(delta, c) / delta."""
    total = Fraction(0)
    for delta, r in instance.r_prime.exponents:
        g = math.gcd(delta, c)
        total += Fraction(r * g * g, 24 * delta)
    return total


def _reference_cusp_count(N: int) -> int:
    """Number of cusps of Gamma0(N): the sum over d | N of phi(gcd(d, N/d))."""
    total = 0
    for d in divisors(N):
        g = math.gcd(d, N // d)
        total += sum(1 for x in range(1, g + 1) if math.gcd(x, g) == 1)
    return total


# levels whose cusps are all of the form (1 0; delta 1), so RSInstance accepts them
_COMPLETE_LEVELS = [N for N in range(1, 61) if _reference_cusp_count(N) == len(divisors(N))]


@st.composite
def _eta_spec(draw, levels):
    level = draw(st.sampled_from(levels))
    deltas = draw(st.lists(st.sampled_from(divisors(level)), unique=True, max_size=4))
    return EtaQuotientSpec(level, {d: draw(st.integers(-30, 30)) for d in deltas})


_R70 = EtaQuotientSpec(70, {1: -4, 2: 3, 5: 5, 7: -6, 35: 2})


class TestCuspSumsAgainstReference:
    """p_min and p_star against the term-by-term Fraction sums they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 60),
        r=_eta_spec(list(range(1, 61))),
        r_prime=_eta_spec(_COMPLETE_LEVELS),
        c=st.integers(1, 60),
    )
    @example(m=24, r=EtaQuotientSpec(6, {1: 5, 2: -3, 3: 1, 6: -7}),
             r_prime=EtaQuotientSpec(6, {1: -2, 6: 3}), c=3)
    @example(m=49, r=EtaQuotientSpec(14, {}), r_prime=EtaQuotientSpec(14, {}), c=7)
    # m = 2 * 3 * 5 * 7 * 11: each c leaves a different set of divisors prime to it
    @example(m=2310, r=_R70, r_prime=EtaQuotientSpec(1, {}), c=6)
    @example(m=2310, r=_R70, r_prime=EtaQuotientSpec(1, {}), c=10)
    @example(m=2310, r=_R70, r_prime=EtaQuotientSpec(1, {}), c=14)
    @example(m=2310, r=_R70, r_prime=EtaQuotientSpec(1, {}), c=35)
    def test_p_min_and_p_star(self, m, r, r_prime, c):
        inst = RSInstance(m=m, M=r.level, N=r_prime.level, t=0, r=r, r_prime=r_prime, u=2)
        assert p_min(inst, c) == _reference_p_min(inst, c)
        assert p_star(inst, c) == _reference_p_star(inst, c)
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
    @given(r_prime=_eta_spec(_COMPLETE_LEVELS), c=st.integers(-40, 0))
    def test_c_below_one_refused(self, r_prime, c):
        inst = RSInstance(m=1, M=1, N=r_prime.level, t=0, r=EtaQuotientSpec(1, {1: 1}),
                          r_prime=r_prime, u=2)
        for cusp_sum in (p_min, p_star):
            with pytest.raises(ValueError, match="c >= 1"):
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
        inst = dataclasses.replace(KNOWN_INSTANCES["mod25"], t=98)
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
        inst = dataclasses.replace(KNOWN_INSTANCES["mod25"], t=98)
        assert finite_check._delta_star_failures(inst) == [5]
        assert verify_instance(inst).status == "counterexample"

    def test_witness_at_the_check_bound(self):
        # v = 7/6, so n = 0 and n = 1 are scanned: c(9) == 0 and c(20) == 3
        # (mod 7).  A check bound one short of floor(v) would miss the witness
        # and, the tuple passing all six Delta* conditions, certify it
        inst = RSInstance(m=11, M=11, N=11, t=9, r=EtaQuotientSpec(11, {1: 4, 11: 1}),
                          r_prime=EtaQuotientSpec(11, {1: -1}), u=7)
        coeffs = oracle.naive_expand(inst.r, 20).coeffs
        assert (coeffs[9] % 7, coeffs[20] % 7) == (0, 3)
        assert finite_check._delta_star_failures(inst) == []
        cert = verify_instance(inst)
        assert cert.status == "counterexample"
        assert cert.witness == {"n": 1, "exponent": 20, "value": 3, "t_prime": 9}
        assert (cert.v_exact, cert.p_set, cert.checked_upto) == (Fraction(7, 6), (9,), 1)

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


def _cusp_test_fields(N: int) -> dict:
    return dict(
        m=1, M=1, N=N, t=0,
        r=EtaQuotientSpec(1, {1: -1}), r_prime=EtaQuotientSpec(N, {1: 1}), u=2,
    )


class TestCuspCompleteness:
    """The check covers the cusps (1 0; delta 1), delta | N, and must cover all of them."""

    @pytest.mark.parametrize("N", [9, 16, 18, 25])
    def test_incomplete_cusp_table_refused(self, N):
        with pytest.raises(ValueError, match="cusps"):
            RSInstance(**_cusp_test_fields(N))

    @pytest.mark.parametrize("N", [1, 10, 14])
    def test_complete_cusp_table_accepted(self, N):
        assert RSInstance(**_cusp_test_fields(N)).N == N

    def test_refusal_matches_cusp_count(self):
        # the gcd rule refuses exactly the N with more cusps than divisors
        for N in range(1, 301):
            incomplete = _reference_cusp_count(N) > len(divisors(N))
            try:
                RSInstance(**_cusp_test_fields(N))
            except ValueError as exc:
                assert incomplete and "cusps" in str(exc), N
            else:
                assert not incomplete, N

    def test_replay_refuses_incomplete_cusp_table(self):
        # a self-consistent N = 9 certificate, made by skipping the refusal:
        # only the refusal itself can reject its replay
        instance = object.__new__(RSInstance)
        for name, value in _cusp_test_fields(9).items():
            object.__setattr__(instance, name, value)
        data = json.loads(verify_instance(instance).to_json())
        assert len(data["cusp_table"]) == 3
        assert not revalidate_certificate(data)


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

    def test_no_false_verified_unfiltered(self):
        result = sweep(seed=5, size=100, filtered=False)
        print(result.summary())
        assert result.false_verified == []
        assert dict(result.statuses) == {
            "counterexample": 88, "hypothesis_violation": 10, "verified": 2}

    def test_no_false_verified(self):
        result = sweep(seed=1, size=300)
        print(result.summary())
        assert result.false_verified == []
        assert dict(result.statuses) == {"counterexample": 275, "verified": 25}
