"""Theta constructions, dissection identities, and residue-class splits."""

import functools
import random
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etacert import (
    BrokenDiamondSpec,
    DissectionBlocks,
    EtaQuotientSpec,
    ThetaSpec,
    TruncatedSeries,
    broken_k_diamond_series,
    build_dissection_blocks,
    dissect,
    eta_factor,
    expand_eta_quotient,
    extract_arithmetic_progression,
    jacobi_cube,
    jtp_product,
    psi_series,
    reduce_mod,
    series_add,
    series_mul,
    series_pow,
    substitute_q_power,
    theta_series,
)
from etacert import series as series_module
from etacert import theta as theta_module
from etacert.theta import _divide_one_minus


def _jtp_by_factors(spec, order):
    """The triple product one (1 + q^e) at a time, then times (q^P; q^P)_inf."""
    period = spec.alpha + spec.beta
    acc = [0] * (order + 1)
    acc[0] = 1
    for start in (spec.alpha, spec.beta):
        for e in range(start, order + 1, period):
            acc[e:] = map(add, acc[e:], acc[: order + 1 - e])
    return series_mul(TruncatedSeries(order, tuple(acc)), eta_factor(period, order))


class TestThetaSeries:
    def test_psi_specialization(self):
        got = theta_series(ThetaSpec(1, 3), 10)
        assert got.support() == (0, 1, 3, 6, 10)
        assert got == psi_series(1, 10)

    def test_exponent_walk_10_15(self):
        # n = 0, 1, -1 contribute exponents 0, 10 and 15; n = 2 gives 45
        got = theta_series(ThetaSpec(10, 15), 25)
        assert got.support() == (0, 10, 15)
        assert theta_series(ThetaSpec(10, 15), 45).support() == (0, 10, 15, 45)

    def test_matches_triple_product_5_20(self):
        spec = ThetaSpec(5, 20)
        assert theta_series(spec, 200) == jtp_product(spec, 200)

    def test_colliding_exponents_accumulate(self):
        # alpha = beta: both walk directions land on the squares
        got = theta_series(ThetaSpec(1, 1), 10)
        assert [(n, c) for n, c in enumerate(got.coeffs) if c] == [
            (0, 1), (1, 2), (4, 2), (9, 2),
        ]
        assert got == jtp_product(ThetaSpec(1, 1), 10)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ThetaSpec(0, 3)


class TestJtpProduct:
    def test_psi_as_eta_quotient(self):
        # psi(q) = (q^2;q^2)^2 / (q;q)
        want = expand_eta_quotient(EtaQuotientSpec(2, {1: -1, 2: 2}), 20)
        assert jtp_product(ThetaSpec(1, 3), 20) == want

    def test_matches_bilateral_sum_10_15(self):
        spec = ThetaSpec(10, 15)
        assert jtp_product(spec, 50) == theta_series(spec, 50)

    def test_order_zero(self):
        assert jtp_product(ThetaSpec(2, 3), 0) == TruncatedSeries.one(0)

    @pytest.mark.parametrize("spec", [ThetaSpec(1, 3), ThetaSpec(2, 3), ThetaSpec(10, 15)])
    def test_every_order_against_bilateral_sum(self, spec):
        for order in range(61):
            assert jtp_product(spec, order) == theta_series(spec, order), order

    def test_equivalence_paper_and_random_specs(self):
        rng = random.Random(1924)
        specs = [ThetaSpec(1, 3), ThetaSpec(10, 15), ThetaSpec(5, 20)]
        while len(specs) < 23:
            alpha = rng.randint(1, 11)
            beta = rng.randint(1, 12 - alpha)
            specs.append(ThetaSpec(alpha, beta))
        for spec in specs:
            assert theta_series(spec, 500) == jtp_product(spec, 500), spec


class TestJtpAgainstReferences:
    # alpha = beta, gcd(alpha, beta) > 1 and alpha > order all occur
    SPECS = [ThetaSpec(a, b) for a in range(1, 13) for b in range(1, 13)]

    def test_every_small_order_and_999(self):
        for spec in self.SPECS:
            # one reference per route; every lower order is its truncation
            by_sum = theta_series(spec, 999)
            assert _jtp_by_factors(spec, 80) == by_sum.truncate(80), spec
            for order in [*range(81), 999]:
                assert jtp_product(spec, order) == by_sum.truncate(order), (spec, order)

    def test_order_2550_against_bilateral_sum(self):
        for spec in self.SPECS:
            assert jtp_product(spec, 2550) == theta_series(spec, 2550), spec

    @pytest.mark.parametrize("spec", [ThetaSpec(1, 1), ThetaSpec(2, 4), ThetaSpec(12, 5)], ids=str)
    def test_against_factors_at_999_and_2550(self, spec):
        by_factors = _jtp_by_factors(spec, 2550)
        assert jtp_product(spec, 999) == by_factors.truncate(999)
        assert jtp_product(spec, 2550) == by_factors

    @pytest.mark.parametrize("d", range(1, 13))
    def test_division_both_branches(self, d):
        # d*d <= len takes the running sums per class, longer d the chunks
        rng = random.Random(d)
        for length in range(60):
            x = [rng.randint(-9, 9) for _ in range(length)]
            want = x[:]
            for i in range(d, length):
                want[i] += want[i - d]
            _divide_one_minus(x, d)
            assert x == want, length

    def test_independent_of_sum_and_product(self, monkeypatch):
        spec = ThetaSpec(2, 4)
        want = theta_series(spec, 300)

        def refuse(*args, **kwargs):
            raise AssertionError("jtp_product used another route")

        monkeypatch.setattr(theta_module, "theta_series", refuse)
        with series_module.tracing() as counters:
            assert jtp_product(spec, 300) == want
        assert counters["product"] == {route: {"exact": [], "modular": []}
                                       for route in ("packed", "shift_add")}


@pytest.mark.parametrize(
    "build",
    [
        lambda order: theta_series(ThetaSpec(2, 4), order),
        lambda order: jtp_product(ThetaSpec(2, 4), order),
        lambda order: psi_series(1, order),
        jacobi_cube,
        build_dissection_blocks,
    ],
    ids=["theta_series", "jtp_product", "psi_series", "jacobi_cube", "build_dissection_blocks"],
)
def test_negative_order_refused(build):
    with pytest.raises(ValueError, match="order must be nonnegative"):
        build(-1)


class TestPsiSeries:
    def test_triangular_support(self):
        assert psi_series(1, 10).support() == (0, 1, 3, 6, 10)

    def test_scaled_support(self):
        assert psi_series(25, 75).support() == (0, 25, 75)

    def test_eta_quotient_identity(self):
        want = expand_eta_quotient(EtaQuotientSpec(2, {1: -1, 2: 2}), 300)
        assert psi_series(1, 300) == want

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            psi_series(0, 10)

    @pytest.mark.parametrize("scale", [1, 2, 5])
    def test_every_order_against_definition(self, scale):
        for order in range(151):
            want = [0] * (order + 1)
            for n in range(order + 1):
                e = scale * n * (n + 1) // 2
                if e <= order:
                    want[e] += 1
            assert psi_series(scale, order).coeffs == tuple(want), order


class TestJacobiCube:
    def test_first_terms(self):
        got = jacobi_cube(15)
        assert [(n, c) for n, c in enumerate(got.coeffs) if c] == [
            (0, 1), (1, -3), (3, 5), (6, -7), (10, 9), (15, -11),
        ]

    def test_matches_cube_of_eta(self):
        assert jacobi_cube(500) == series_pow(eta_factor(1, 500), 3)
        assert jacobi_cube(2000) == series_pow(eta_factor(1, 2000), 3)

    def test_order_zero(self):
        assert jacobi_cube(0) == TruncatedSeries.one(0)

    def test_every_order_against_definition(self):
        for order in range(151):
            want = [0] * (order + 1)
            for n in range(order + 1):
                e = n * (n + 1) // 2
                if e <= order:
                    want[e] += (-1) ** n * (2 * n + 1)
            assert jacobi_cube(order).coeffs == tuple(want), order


class TestDissect:
    def test_cube_classes_mod5(self):
        split = dissect(reduce_mod(jacobi_cube(100), 5), 5)
        assert split[2].is_zero()
        assert split[4].is_zero()
        assert split[3].is_zero()  # class 3 only vanishes after reduction
        assert not dissect(jacobi_cube(100), 5)[3].is_zero()

    def test_doubled_cube_classes_mod5(self):
        cube2 = substitute_q_power(jacobi_cube(50), 2, 100)
        support_classes = {n % 5 for n in cube2.support()}
        assert support_classes == {0, 1, 2}
        split = dissect(reduce_mod(cube2, 5), 5)
        assert split[1].is_zero()

    def test_constant(self):
        split = dissect(TruncatedSeries.one(6), 3)
        assert split[0] == TruncatedSeries.one(6)
        assert split[1].is_zero() and split[2].is_zero()

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            dissect(TruncatedSeries.one(3), 0)

    @settings(max_examples=50)
    @given(
        coeffs=st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=60),
        m=st.sampled_from((2, 3, 5, 7, 25)),
    )
    def test_partition_property(self, coeffs, m):
        s = TruncatedSeries.from_coeffs(coeffs)
        split = dissect(s, m)
        assert len(split) == m
        assert functools.reduce(series_add, split) == s
        for i, cls in enumerate(split):
            assert all(n % m == i for n in cls.support())


class TestExtract:
    def test_known_family(self):
        series = reduce_mod(broken_k_diamond_series(BrokenDiamondSpec(2), 500), 5)
        assert extract_arithmetic_progression(series, 25, 14).is_zero()

    def test_identity(self):
        s = TruncatedSeries.from_coeffs([3, 1, 4, 1, 5])
        assert extract_arithmetic_progression(s, 1, 0) == s

    def test_empty_triangular_class(self):
        assert extract_arithmetic_progression(psi_series(1, 100), 5, 2).is_zero()

    def test_order_formula(self):
        s = TruncatedSeries.from_coeffs(list(range(11)))
        got = extract_arithmetic_progression(s, 3, 2)
        assert got.order == (10 - 2) // 3
        assert got.coeffs == (2, 5, 8)

    def test_random_progressions_against_definition(self):
        rng = random.Random(2007)
        for _ in range(300):
            s = TruncatedSeries.from_coeffs([rng.randint(-9, 9) for _ in range(rng.randint(1, 60))])
            m = rng.randint(1, 12)
            t = rng.randint(0, min(m - 1, s.order))
            want = [s.coeffs[m * n + t] for n in range(s.order + 1) if m * n + t <= s.order]
            got = extract_arithmetic_progression(s, m, t)
            assert got.coeffs == tuple(want) and got.order == len(want) - 1, (s, m, t)

    def test_residue_validation(self):
        s = TruncatedSeries.one(10)
        with pytest.raises(ValueError):
            extract_arithmetic_progression(s, 3, 3)
        with pytest.raises(ValueError):
            extract_arithmetic_progression(TruncatedSeries.one(1), 5, 2)


class TestValues:
    def test_theta_spec(self, frozen_value):
        frozen_value(
            ThetaSpec(1, 3), ThetaSpec(beta=3, alpha=1), "ThetaSpec(alpha=1, beta=3)", (1, 3)
        )

    def test_dissection_blocks(self, frozen_value):
        a, b, c = (TruncatedSeries.monomial(e, 1) for e in (0, 1, 1))
        frozen_value(
            DissectionBlocks(a, b, c),
            DissectionBlocks(block_c=c, block_a=a, block_b=b),
            "DissectionBlocks(block_a=TruncatedSeries(order=1, coeffs=(1, 0)), "
            "block_b=TruncatedSeries(order=1, coeffs=(0, 1)), "
            "block_c=TruncatedSeries(order=1, coeffs=(0, 1)))",
            (a, b, c),
        )


class TestDissectionBlocks:
    def test_block_construction(self):
        blocks = build_dissection_blocks(60)
        assert blocks.block_a == theta_series(ThetaSpec(10, 15), 60)
        assert blocks.block_b == theta_series(ThetaSpec(5, 20), 60)
        assert blocks.block_c == psi_series(25, 60)

    def test_supports(self):
        blocks = build_dissection_blocks(250)
        assert all(n % 5 == 0 for n in blocks.block_a.support())
        assert all(n % 5 == 0 for n in blocks.block_b.support())
        assert all(n % 25 == 0 for n in blocks.block_c.support())

    @pytest.mark.parametrize("order", [250, 500])
    def test_psi_five_dissection_exact(self, order):
        blocks = build_dissection_blocks(order)
        q = TruncatedSeries.monomial(1, order)
        q3 = TruncatedSeries.monomial(3, order)
        recombined = blocks.block_a + series_mul(q, blocks.block_b) + series_mul(
            q3, blocks.block_c
        )
        assert recombined == psi_series(1, order)

    @pytest.mark.parametrize("order", [250, 500])
    def test_psi_square_identity_exact(self, order):
        blocks = build_dissection_blocks(order)
        q5 = TruncatedSeries.monomial(5, order)
        lhs = series_pow(psi_series(5, order), 2)
        rhs = series_mul(blocks.block_a, blocks.block_b) + series_mul(
            q5, series_pow(blocks.block_c, 2)
        )
        assert lhs == rhs


@settings(max_examples=40)
@given(
    coeffs=st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=30),
    d=st.integers(min_value=1, max_value=6),
)
def test_extract_inverts_substitution(coeffs, d):
    s = TruncatedSeries.from_coeffs(coeffs)
    assert extract_arithmetic_progression(substitute_q_power(s, d), d, 0) == s


def test_no_class4_terms_in_cube_product():
    # key vanishing claim behind the mod-5 family, checked well past desk order
    order = 2000
    product = series_mul(
        jacobi_cube(order), substitute_q_power(jacobi_cube(order // 2), 2, order)
    )
    reduced = reduce_mod(product, 5)
    assert all(n % 5 != 4 for n in reduced.support())
