"""Theorem pipelines: structure, witnesses, lifts, and negative controls."""

import inspect
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etacert import (
    DEFAULT_ORDER_CAP,
    THEOREM_IDS,
    KNOWN_INSTANCES,
    BrokenDiamondSpec,
    EtaQuotientSpec,
    OrderCapExceeded,
    PreconditionViolated,
    ProofReport,
    RSInstance,
    StepResult,
    ThetaSpec,
    TruncatedSeries,
    b_series,
    broken_k_diamond_series,
    compute_p_set,
    coset_representatives,
    dissect,
    divisors,
    elementary_mod5_proof,
    eta_factor,
    expand_eta_quotient,
    extract_arithmetic_progression,
    finite_check,
    index_gamma0,
    jacobi_cube,
    jtp_product,
    kappa,
    lift_congruence,
    p_min,
    p_star,
    pipelines,
    psi_series,
    reduce_mod,
    regression_suite,
    run_theorem,
    series,
    series_invert,
    series_mul,
    series_pow,
    substitute_q_power,
    theta_series,
    v_bound,
    verify_instance,
)


class TestBrokenDiamondSeries:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BrokenDiamondSpec(0)

    def test_ell_and_level(self):
        spec = BrokenDiamondSpec(12)
        assert spec.ell == 25
        assert spec.eta_spec() == EtaQuotientSpec(50, {1: -3, 2: 1, 25: 1, 50: -1})

    def test_constant_term_is_one(self):
        for k in (1, 2, 3, 7):
            assert broken_k_diamond_series(BrokenDiamondSpec(k), 10).coeffs[0] == 1

    def test_k2_family_mod5(self):
        reduced = reduce_mod(broken_k_diamond_series(BrokenDiamondSpec(2), 120), 5)
        for exponent in (14, 39, 64, 89, 114):
            assert reduced.coeffs[exponent] == 0

    def test_k3_first_family_member_mod7(self):
        reduced = reduce_mod(broken_k_diamond_series(BrokenDiamondSpec(3), 400), 7)
        assert reduced.coeffs[82] == 0


class TestBSeries:
    def test_constant_term(self):
        assert b_series(5).coeffs[0] == 1

    def test_mod25_family_prefix(self):
        reduced = reduce_mod(b_series(500), 25)
        for exponent in (99, 224, 349, 474):
            assert reduced.coeffs[exponent] == 0

    def test_congruent_form(self):
        lhs = reduce_mod(b_series(300), 25)
        rhs = reduce_mod(expand_eta_quotient(EtaQuotientSpec(10, {1: 22, 2: 1, 5: -5}), 300), 25)
        assert lhs == rhs


class TestLiftCongruence:
    def test_mod25_lift_passes(self):
        step = lift_congruence((125, 99, 25), 125, BrokenDiamondSpec(62), 1349)
        assert step.passed
        assert step.witness is None

    def test_mod7_lift_passes(self):
        step = lift_congruence((49, 19, 7), 49, BrokenDiamondSpec(24), 800)
        assert step.passed

    def test_ell_precondition(self):
        with pytest.raises(PreconditionViolated):
            lift_congruence((125, 99, 25), 125, BrokenDiamondSpec(63), 300)

    def test_modulus_precondition(self):
        with pytest.raises(PreconditionViolated):
            lift_congruence((125, 99, 25), 25, BrokenDiamondSpec(12), 300)

    def test_wrong_residue_fails_with_witness(self):
        spec = BrokenDiamondSpec(62)
        step = lift_congruence((125, 98, 25), 125, spec, 1349)
        assert not step.passed
        assert step.witness["value"] % 25 != 0
        # the witness read off b mod u times the support is the one the
        # diamond series expanded on its own gives
        reduced = broken_k_diamond_series(spec, 1349, modulus=25)
        assert step.witness == finite_check._progression_witness(reduced, 125, 98)

    def test_order_below_residue_refused(self):
        # order 50 reaches no exponent 125n + 99: an empty scan must not pass
        with pytest.raises(ValueError, match="no coefficient"):
            lift_congruence((125, 99, 25), 125, BrokenDiamondSpec(62), 50)

    def test_negative_control_support_off_ell(self, monkeypatch):
        # a term at ell + 1 in f_ell / f_2ell breaks the factor's support on
        # ell Z, which alone carries the b-family congruence over to Delta_k
        spec = BrokenDiamondSpec(24)
        support_spec = EtaQuotientSpec(2 * spec.ell, {spec.ell: 1, 2 * spec.ell: -1})
        expand = pipelines.expand_eta_quotient

        def perturbed(eta_spec, order, *args, **kwargs):
            out = expand(eta_spec, order, *args, **kwargs)
            if eta_spec == support_spec:
                out = out + TruncatedSeries.monomial(spec.ell + 1, order)
            return out

        monkeypatch.setattr(pipelines, "expand_eta_quotient", perturbed)
        residues = (19, 33, 40, 47)
        steps = pipelines._lift_steps(49, residues, 7, spec, 200, b_series(200, modulus=7))
        assert [s.name for s in steps] == [f"lift_k24_m49_t{t}_mod7" for t in residues]
        assert all(s.status == "fail" for s in steps)
        assert all(s.witness == {"support_violation": spec.ell + 1} for s in steps)
        assert lift_congruence((49, 19, 7), 49, spec, 200) == steps[0]


def _support(spec: BrokenDiamondSpec, order: int) -> TruncatedSeries:
    ell = spec.ell
    return expand_eta_quotient(EtaQuotientSpec(2 * ell, {ell: 1, 2 * ell: -1}), order)


class TestLiftedDiamondSecondRoute:
    """Delta_k mod u read off b mod u times f_ell / f_2ell, against its own expansion."""

    @pytest.mark.parametrize("k,u,order", [(62, 25, 1349), (24, 7, 1517), (171, 49, 3771)])
    def test_family_orders(self, k, u, order):
        spec = BrokenDiamondSpec(k)
        lifted = series_mul(b_series(order, modulus=u), _support(spec, order), modulus=u)
        assert lifted == broken_k_diamond_series(spec, order, modulus=u)

    def test_lift_scans_the_diamond_series(self, monkeypatch):
        # with the support on ell Z the first witness of Delta_k and of b
        # coincide, so only the scanned series shows that the product is formed
        scanned = []
        witness = pipelines._progression_witness

        def recording(series, m, t):
            scanned.append(series)
            return witness(series, m, t)

        monkeypatch.setattr(pipelines, "_progression_witness", recording)
        spec = BrokenDiamondSpec(24)
        assert lift_congruence((49, 19, 7), 49, spec, 1517).passed
        assert scanned == [broken_k_diamond_series(spec, 1517, modulus=7)]

    @settings(max_examples=8, deadline=None)
    @given(
        k=st.integers(1, 400),
        u=st.sampled_from((5, 7, 25, 49, 125)),
        # order + 1 on both sides of the Newton threshold
        order=st.integers(series._NEWTON_MIN - 2, series._NEWTON_MIN + 1),
    )
    def test_sweep_across_newton_threshold(self, k, u, order):
        spec = BrokenDiamondSpec(k)
        lifted = series_mul(b_series(order, modulus=u), _support(spec, order), modulus=u)
        assert lifted == broken_k_diamond_series(spec, order, modulus=u)


class TestElementaryProof:
    def test_all_steps_pass_at_500(self):
        report = elementary_mod5_proof(500)
        assert report.theorem_id == "T1_mod5"
        assert [s.name for s in report.steps] == [
            "reduction", "dissection", "jacobi_support", "absence", "conclusion",
        ]
        assert report.overall

    def test_default_order_is_run_theorems(self, t1_report):
        report, _ = t1_report
        assert elementary_mod5_proof().to_json_dict() == report.to_json_dict()

    def test_witness_j3_variant(self):
        # 2k+1 = 75 exercises the spectator factor with a second witness
        report = elementary_mod5_proof(1000, j=3)
        assert report.overall
        assert report.step("conclusion_j3").passed

    def test_even_j_rejected(self):
        # 2k+1 = 25j forces j odd; j = 2 cannot occur
        with pytest.raises(ValueError):
            elementary_mod5_proof(500, j=2)

    @pytest.mark.parametrize(
        "sabotaged,exponent,support_witness,absence_witness",
        [
            # f1^3 + q^2 (and so f2^3 + q^4): a class-2 term in f1^3
            ("jacobi_cube", 2, {"series": "f1^3", "class": 2, "exponent": 2},
             {"exponent": 4, "value": 3}),
            # f1^3 + q^4: the last class of f1^3
            ("jacobi_cube", 4, {"series": "f1^3", "class": 4, "exponent": 4},
             {"exponent": 4, "value": 1}),
            # f2^3 + q: a term only f2^3's classes show, and none in class 4 of the product
            ("substitute_q_power", 1, {"series": "f2^3", "class": 1, "exponent": 1}, None),
        ],
    )
    def test_negative_control_sabotaged_cube(
        self, sabotaged, exponent, support_witness, absence_witness, monkeypatch
    ):
        # the cube steps alone read jacobi_cube and substitute_q_power
        original = getattr(pipelines, sabotaged)

        def perturbed(*args):
            # both take the truncation order as their last argument
            return original(*args) + TruncatedSeries.monomial(exponent, args[-1])

        monkeypatch.setattr(pipelines, sabotaged, perturbed)
        report = elementary_mod5_proof(100)
        assert report.step("jacobi_support").witness == support_witness
        assert report.step("absence").witness == absence_witness
        failed = [s.name for s in report.steps if not s.passed]
        assert failed == ["jacobi_support"] + ["absence"] * (absence_witness is not None)

    def test_report_json_shape(self):
        data = elementary_mod5_proof(300).to_json_dict()
        assert data["theorem"] == "T1_mod5"
        assert data["overall"] is True
        assert all({"name", "status", "order"} <= set(s) for s in data["steps"])


class TestRunTheorem:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            run_theorem("T5_mod11")

    def test_t1(self, t1_report):
        report, _ = t1_report
        assert report.overall
        assert report.step("conclusion").passed

    def test_t2_structure(self, t2_report):
        report, _ = t2_report
        assert report.overall
        assert report.theorem_id == "T2_mod25"
        (cert,) = report.certificates
        assert cert.p_set == (99,) and cert.v_floor == 21 and cert.verified
        assert report.step("binomial_lemma_mod25").passed
        assert report.step("congruent_form_mod25").passed
        assert report.step("b_family_scan_mod25").passed
        assert report.step("lift_k62_m125_t99_mod25").passed

    def test_t3_structure(self, t3_report):
        report, _ = t3_report
        assert report.overall
        certs = report.certificates
        assert [c.p_set for c in certs] == [(19, 33, 40), (47,)]
        assert all(c.verified for c in certs)
        for s in (19, 33, 40, 47):
            assert report.step(f"lift_k24_m49_t{s}_mod7").passed

    def test_t4_structure(self, t4_report):
        report, _ = t4_report
        assert report.overall
        (cert,) = report.certificates
        assert cert.p_set == (96, 292, 341) and cert.v_floor == 56 and cert.verified
        for t in (96, 292, 341):
            assert report.step(f"lift_k171_m343_t{t}_mod49").passed

    def test_report_json_embeds_certificates(self, t2_report):
        report, _ = t2_report
        data = report.to_json_dict()
        assert data["certificates"][0]["v"]["floor"] == 21
        assert data["overall"] is True


class TestFamilyLifts:
    """The families' shared lift path against the public lift_congruence."""

    @pytest.mark.parametrize(
        "fixture,m,residues,u,k,order",
        [
            ("t2_report", 125, (99,), 25, 62, 1349),
            ("t3_report", 49, (19, 33, 40, 47), 7, 24, 1517),
            ("t4_report", 343, (96, 292, 341), 49, 171, 3771),
        ],
    )
    def test_lift_steps_match_lift_congruence(self, fixture, m, residues, u, k, order, request):
        report, _ = request.getfixturevalue(fixture)
        lifts = [s for s in report.steps if s.name.startswith("lift_")]
        assert lifts == [
            lift_congruence((m, t, u), m, BrokenDiamondSpec(k), order) for t in residues
        ]

    @pytest.mark.parametrize(
        "theorem_id,k", [("T1_mod5", 12), ("T2_mod25", 62), ("T3_mod7", 24), ("T4_mod49", 171)]
    )
    def test_diamond_series_expansions(self, theorem_id, k, monkeypatch):
        # T1 scans Delta_12 mod 5 itself; a family reads Delta_k off b mod u
        # times the sparse support, so it expands Delta_k never and b mod u once
        expanded = []
        expand = pipelines.expand_eta_quotient

        def counting_expand(spec, order, modulus=None):
            expanded.append((spec, modulus))
            return expand(spec, order, modulus)

        monkeypatch.setattr(pipelines, "expand_eta_quotient", counting_expand)
        assert run_theorem(theorem_id).overall
        diamond = BrokenDiamondSpec(k).eta_spec()
        if theorem_id == "T1_mod5":
            assert [call for call in expanded if call[0] == diamond] == [(diamond, 5)]
        else:
            u = pipelines._THEOREMS[theorem_id].instances[0].u
            assert not [call for call in expanded if call[0] == diamond]
            assert expanded.count((pipelines._B_SPEC, u)) == 1

    @pytest.mark.parametrize("theorem_id", ["T2_mod25", "T3_mod7", "T4_mod49"])
    def test_scan_order_checked_once(self, theorem_id, monkeypatch):
        # run_theorem gates max(order, b_order) on the cap, the family report
        # its scan order on the largest residue, and nothing gates it again
        checks = []
        gate = pipelines._check_order
        signature = inspect.signature(gate)

        def recording_gate(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            checks.append(tuple(bound.arguments.values()))
            return gate(*args, **kwargs)

        monkeypatch.setattr(pipelines, "_check_order", recording_gate)
        assert run_theorem(theorem_id).overall
        family = pipelines._THEOREMS[theorem_id]
        order = pipelines._THEOREMS[theorem_id].order
        assert checks == [
            (max(order, family.b_order), DEFAULT_ORDER_CAP, 0),
            (order, DEFAULT_ORDER_CAP, max(family.residues)),
        ]

    @pytest.mark.parametrize(
        "theorem_id,order", [("T1_mod5", 10), ("T3_mod7", 10), ("regression", 100)]
    )
    def test_order_below_residue_refused(self, theorem_id, order):
        # some scanned progression m n + t starts beyond `order`
        with pytest.raises(ValueError, match="no coefficient"):
            run_theorem(theorem_id, order)


class TestOrderAboveBOrder:
    """A scan order above the family's b_order: one b expansion serves every step."""

    CASES = [("T3_mod7", 2000), ("T2_mod25", 7000)]

    @pytest.mark.parametrize("theorem_id,order", CASES)
    def test_one_b_expansion_serves_scan_and_lifts(self, theorem_id, order, monkeypatch):
        family = pipelines._THEOREMS[theorem_id]
        m, u = family.instances[0].m, family.instances[0].u
        assert order > family.b_order
        calls = []
        expand = pipelines.expand_eta_quotient

        def recording(spec, order, modulus=None):
            calls.append((spec, order, modulus))
            return expand(spec, order, modulus)

        for module in (pipelines, finite_check):
            monkeypatch.setattr(module, "expand_eta_quotient", recording)
        report = run_theorem(theorem_id, order)
        monkeypatch.undo()
        assert report.overall
        b_calls = [call for call in calls if call[0] == pipelines._B_SPEC and call[2] is not None]
        assert b_calls == [(pipelines._B_SPEC, order, u)]
        assert report.step(f"b_family_scan_mod{u}").order == family.b_order
        lifts = [s for s in report.steps if s.name.startswith("lift_")]
        spec = BrokenDiamondSpec((m - 1) // 2)
        assert lifts == [lift_congruence((m, t, u), m, spec, order) for t in family.residues]

    @pytest.mark.parametrize("theorem_id,order", CASES)
    def test_negative_control_b_perturbed_beyond_b_order(self, theorem_id, order, monkeypatch):
        # a nonzero b(m n + t) past b_order is seen by the lift scan, which
        # reads b to `order`, and by nothing that reads b only to b_order
        family = pipelines._THEOREMS[theorem_id]
        m, u = family.instances[0].m, family.instances[0].u
        t = family.residues[0]
        exponent = m * (family.b_order // m + 1) + t
        assert family.b_order < exponent <= order
        real = pipelines.b_series

        def perturbed(order, modulus=None):
            out = real(order, modulus)
            if modulus is not None and order >= exponent:
                out = out + TruncatedSeries.monomial(exponent, order)
            return out

        monkeypatch.setattr(pipelines, "b_series", perturbed)
        report = run_theorem(theorem_id, order)
        failed = [s for s in report.steps if not s.passed]
        assert failed and all(s.name.startswith("lift_") for s in failed)
        assert report.step(f"b_family_scan_mod{u}").passed
        lift = report.step(f"lift_k{(m - 1) // 2}_m{m}_t{t}_mod{u}")
        assert lift.witness == {"n": exponent // m, "exponent": exponent, "value": 1}


class TestFamilyTable:
    """The invariant behind each row's derived m, u and p."""

    @pytest.mark.parametrize("theorem_id", ["T2_mod25", "T3_mod7", "T4_mod49"])
    def test_residues_are_the_union_of_instance_orbits(self, theorem_id):
        family = pipelines._THEOREMS[theorem_id]
        orbits = [compute_p_set(instance) for instance in family.instances]
        assert family.residues == tuple(sorted(set().union(*orbits)))
        assert sum(map(len, orbits)) == len(family.residues)  # the orbits are disjoint

    @pytest.mark.parametrize("theorem_id", ["T2_mod25", "T3_mod7", "T4_mod49"])
    def test_instances_share_m_and_a_prime_power_u(self, theorem_id):
        instances = pipelines._THEOREMS[theorem_id].instances
        assert len({(instance.m, instance.u) for instance in instances}) == 1
        m, u = instances[0].m, instances[0].u
        p = divisors(u)[1]
        assert len(divisors(p)) == 2 and p ** (len(divisors(u)) - 1) == u
        assert m % p == 0

    def test_rows_cover_the_certified_theorems(self):
        assert THEOREM_IDS == ("T1_mod5", "T2_mod25", "T3_mod7", "T4_mod49", "regression")
        families = {tid for tid, row in pipelines._THEOREMS.items() if row.instances}
        assert families == set(THEOREM_IDS) - {"T1_mod5", "regression"}

    def test_row_whose_b_scan_is_short_of_a_certificate_is_refused(self):
        # the mod-25 certificate reads b to 125 * 21 + 99 = 2724; depth 10
        # would expand b to 1349 only, and the report would fail partway
        mod25 = (KNOWN_INSTANCES["mod25"],)
        assert pipelines._Theorem("x", 1349, (99,), mod25, 21).b_order == 2724
        with pytest.raises(ValueError, match="1349 is short of the certificate order 2724 "):
            pipelines._Theorem("x", 1349, (99,), mod25, 10)

    # the p = 7, a = 3 rung of b's 7-adic ladder: b(343 n + 243) == 0 (mod 7)
    P7_A3 = RSInstance(
        m=343, M=14, N=14, t=243,
        r=EtaQuotientSpec(14, {1: 4, 2: 1, 7: -1}),
        r_prime=EtaQuotientSpec(14, {1: 18}),
        u=7,
    )

    def _run_added_row(self, monkeypatch):
        # a new family is one row: no other table or dispatch names its id
        row = pipelines._Theorem("x", 400, (243,), (self.P7_A3,), 20)
        monkeypatch.setitem(pipelines._THEOREMS, "p7_a3", row)
        report = run_theorem("p7_a3")
        assert [s.name for s in report.steps] == [
            "binomial_lemma_mod7", "congruent_form_mod7", "certificate_m343_t243",
            "b_family_scan_mod7", "lift_k171_m343_t243_mod7",
        ]
        return report

    def test_row_added_to_the_table_alone_runs(self, monkeypatch):
        assert self._run_added_row(monkeypatch).overall

    def test_row_with_a_residue_no_certificate_covers_is_refused(self):
        # P(243) = (243,) at m = 343, and 47 is the orbit of mod7_t47, not of mod7_t33
        with pytest.raises(ValueError, match=r"covers residue\(s\) \[244\]"):
            pipelines._Theorem("x", 400, (244,), (self.P7_A3,), 20)
        with pytest.raises(ValueError, match=r"covers residue\(s\) \[47\]"):
            pipelines._Theorem("x", 1517, (19, 33, 40, 47), (KNOWN_INSTANCES["mod7_t33"],), 30)

    def test_negative_control_b_perturbed_at_the_added_residue(self, monkeypatch):
        # b(243) + 1 (mod 7): each step that reads b there has a witness at 243
        real = pipelines.b_series
        monkeypatch.setattr(pipelines, "b_series", lambda order, modulus: reduce_mod(
            real(order, modulus) + TruncatedSeries.monomial(243, order), modulus))
        failed = [s for s in self._run_added_row(monkeypatch).steps if not s.passed]
        assert [s.name for s in failed] == [
            "congruent_form_mod7", "certificate_m343_t243", "b_family_scan_mod7",
            "lift_k171_m343_t243_mod7",
        ]
        assert failed[0].witness == {"exponent": 243, "lhs": 1, "rhs": 0}
        assert {(s.witness["exponent"], s.witness["value"]) for s in failed[1:]} == {(243, 1)}


class TestSharedBSeries:
    """Each family expands b mod u once, for its certificates and its b scan."""

    @pytest.fixture
    def expansions(self, monkeypatch):
        calls = []
        expand = pipelines.expand_eta_quotient

        def recording(spec, order, modulus=None):
            calls.append((spec, order, modulus))
            return expand(spec, order, modulus)

        for module in (pipelines, finite_check):
            monkeypatch.setattr(module, "expand_eta_quotient", recording)
        return calls

    def test_t4_expands_full_length_once(self, expansions):
        assert run_theorem("T4_mod49").overall
        full = [call for call in expansions if call[2] is not None and call[1] >= 19549]
        assert full == [(pipelines._B_SPEC, 19549, 49)]

    def test_t3_certificates_share_one_b_expansion(self, expansions):
        assert run_theorem("T3_mod7").overall
        modular = [(spec, modulus) for spec, _, modulus in expansions if modulus is not None]
        assert modular.count((pipelines._B_SPEC, 7)) == 1
        assert (KNOWN_INSTANCES["mod7_t33"].r, 7) not in modular

    @pytest.fixture
    def unreduced(self, monkeypatch):
        calls = []
        expand = pipelines._expand

        def recording(spec, order, modulus, reduce):
            calls.append((spec, order, modulus, reduce))
            return expand(spec, order, modulus, reduce)

        monkeypatch.setattr(pipelines, "_expand", recording)
        return calls

    @pytest.mark.parametrize("theorem_id", ["T2_mod25", "T3_mod7", "T4_mod49"])
    def test_basis_steps_stay_exact(self, theorem_id, expansions, unreduced):
        # the binomial lemma and the congruent form are checked mod u on the
        # quotients exactly as written: no side goes through _reduce_exponents,
        # which relies on the lemma, and b is the family's one reduced
        # expansion, so the congruent form compares two routes to b mod u
        instance = pipelines._THEOREMS[theorem_id].instances[0]
        u = instance.u
        p = divisors(u)[1]
        assert run_theorem(theorem_id).overall
        assert unreduced == [
            (EtaQuotientSpec(p, {1: u}), 300, u, False),
            (EtaQuotientSpec(p, {p: u // p}), 300, u, False),
            (instance.r, 300, u, False),
        ]
        assert [call for call in expansions if call[0] == pipelines._B_SPEC] == [
            (pipelines._B_SPEC, pipelines._THEOREMS[theorem_id].b_order, u)
        ]

    @pytest.mark.parametrize("theorem_id", ["T2_mod25", "T3_mod7", "T4_mod49"])
    def test_perturbed_unreduced_r_fails_congruent_form(self, theorem_id, monkeypatch):
        instance = pipelines._THEOREMS[theorem_id].instances[0]
        u = instance.u
        expand = pipelines._expand

        def perturbed(spec, order, modulus, reduce):
            series = expand(spec, order, modulus, reduce)
            if spec != instance.r:
                return series
            coeffs = list(series.coeffs)
            coeffs[150] = (coeffs[150] + 1) % u
            return TruncatedSeries(order, tuple(coeffs))

        monkeypatch.setattr(pipelines, "_expand", perturbed)
        report = run_theorem(theorem_id)
        step = report.step(f"congruent_form_mod{u}")
        b_value = b_series(150, modulus=u).coeffs[150]
        assert step.witness == {"exponent": 150, "lhs": b_value, "rhs": (b_value + 1) % u}
        assert not report.overall
        assert [s.name for s in report.steps if not s.passed] == [step.name]

    @pytest.mark.parametrize("theorem_id", ["T2_mod25", "T3_mod7", "T4_mod49"])
    def test_b_order_covers_every_certificate(self, theorem_id):
        family = pipelines._THEOREMS[theorem_id]
        for instance in family.instances:
            _, v_floor = v_bound(instance)
            required = instance.m * max(v_floor, 0) + max(compute_p_set(instance))
            assert required <= family.b_order

    @pytest.mark.parametrize("key", ["mod25", "mod7_t47", "mod49"])
    def test_shared_certificate_is_verify_instance(self, key):
        # the certificate embedded in the family's report, read off b mod u,
        # has the bytes of the one that expands the instance's own r
        instance = KNOWN_INSTANCES[key]
        theorem_id = next(
            tid for tid, family in pipelines._THEOREMS.items() if instance in family.instances
        )
        shared = next(c for c in run_theorem(theorem_id).certificates if c.instance == instance)
        assert shared.to_json() == verify_instance(instance).to_json()

    def test_row_whose_r_is_not_b_is_refused(self):
        # r = {1: 4, 2: 1} is not b mod 7, so b's residues cannot stand in for it
        mod7 = KNOWN_INSTANCES["mod7_t33"]
        instance = RSInstance(49, 14, 14, 33, EtaQuotientSpec(14, {1: 4, 2: 1}), mod7.r_prime, 7)
        with pytest.raises(ValueError, match="is not b mod 7"):
            pipelines._Theorem("3", 1517, (19, 33, 40, 47), (instance,), 30)

    def test_row_whose_r_is_b_mod_25_only_is_refused_at_125(self):
        # mod 125 r = f1^22 f2 / f5^5 has no exponent above u/2 to move, and
        # b = f2 / f1^3 has none either: the two reduced forms differ
        mod25 = KNOWN_INSTANCES["mod25"]
        instance = RSInstance(125, 10, 10, 99, mod25.r, mod25.r_prime, 125)
        with pytest.raises(ValueError, match="is not b mod 125"):
            pipelines._Theorem("2", 1349, (99,), (instance,), 50)

    def test_row_whose_b_reduces_to_its_r_runs(self, monkeypatch):
        # the p = 5, a = 2 rung: b(25 n + 24) == 0 (mod 5).  r = f1^2 f2 / f5
        # has no exponent above u/2 to move, while b = f2 / f1^3 reduces
        # mod 5 to f1^2 f2 / f5, so the two reduced forms agree
        rung = RSInstance(
            m=25, M=10, N=10, t=24,
            r=EtaQuotientSpec(10, {1: 2, 2: 1, 5: -1}),
            r_prime=EtaQuotientSpec(10, {1: 3}),
            u=5,
        )
        row = pipelines._Theorem("x", 400, (24,), (rung,), 20)
        monkeypatch.setitem(pipelines._THEOREMS, "p5_a2", row)
        report = run_theorem("p5_a2")
        assert [s.name for s in report.steps] == [
            "binomial_lemma_mod5", "congruent_form_mod5", "certificate_m25_t24",
            "b_family_scan_mod5", "lift_k12_m25_t24_mod5",
        ]
        assert report.overall


class TestResidueOnlySteps:
    """T1-T4 check residues only, so no step forms a long exact product."""

    @pytest.mark.parametrize(
        "run",
        [*(pytest.param(lambda t=t: run_theorem(t), id=t) for t in THEOREM_IDS[:4]),
         pytest.param(lambda: elementary_mod5_proof(j=41), id="T1_j41")],
    )
    def test_no_exact_product_past_64(self, run):
        # the one exact product left is the lift support f_ell/f_2ell, at
        # order // ell + 1 <= 31 coefficients, by either route
        with series.tracing() as counters:
            assert run().overall
        products = counters["product"]
        exact = products["packed"]["exact"] + products["shift_add"]["exact"]
        assert all(max(entry[:2]) <= 64 for entry in exact), exact
        assert products["packed"]["modular"] or products["shift_add"]["modular"]


class TestKnownInstancesRule:
    """Every pinned instance follows one rule in its m, t and u."""

    @pytest.mark.parametrize("key", sorted(KNOWN_INSTANCES))
    def test_instance_follows_the_rule(self, key):
        inst = KNOWN_INSTANCES[key]
        u = inst.u
        p = divisors(u)[1]  # the prime dividing u
        assert inst.M == inst.N == 2 * p
        assert inst.r == EtaQuotientSpec(2 * p, {1: u - 3, 2: 1, p: -(u // p)})

        def cusp_sums_nonnegative(x):
            r_prime = EtaQuotientSpec(inst.N, {1: x})
            candidate = RSInstance(inst.m, inst.M, inst.N, inst.t, inst.r, r_prime, inst.u)
            return all(p_min(candidate, c) + p_star(candidate, c) >= 0
                       for c in coset_representatives(inst.N))

        # r' = {1: x} for the least x >= 0 that makes every cusp sum nonnegative
        x = next(x for x in count() if cusp_sums_nonnegative(x))
        assert inst.r_prime == EtaQuotientSpec(inst.N, {1: x})


class TestRunTheoremRefusals:
    """Orders that cannot give a sound report are refused before any series work."""

    @pytest.fixture
    def no_series_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("series work started before the order was checked")

        for name in (
            "_verify_instance", "expand_eta_quotient", "series_pow", "series_mul",
            "psi_series", "jacobi_cube",
        ):
            monkeypatch.setattr(pipelines, name, refuse)

    @pytest.mark.parametrize(
        "theorem_id,order",
        [("T1_mod5", 10), ("T2_mod25", 98), ("T4_mod49", 5), ("regression", 100)],
    )
    def test_order_below_residue_refused_up_front(self, theorem_id, order, no_series_work):
        with pytest.raises(ValueError, match="no coefficient"):
            run_theorem(theorem_id, order)

    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_order_cap(self, theorem_id, no_series_work):
        with pytest.raises(OrderCapExceeded, match=f"exceeds cap {DEFAULT_ORDER_CAP}"):
            run_theorem(theorem_id, DEFAULT_ORDER_CAP + 1)

    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_lowered_cap_refused_up_front(self, theorem_id, no_series_work):
        # every default scan or b-scan order is above 1000
        with pytest.raises(OrderCapExceeded, match="exceeds cap 1000$"):
            run_theorem(theorem_id, order_cap=1000)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda order: lift_congruence((25, 24, 5), 25, BrokenDiamondSpec(12), order),
            elementary_mod5_proof,
            regression_suite,
        ],
        ids=["lift_congruence", "elementary_mod5_proof", "regression_suite"],
    )
    def test_public_entry_points_refuse_order_above_cap(self, entry, no_series_work):
        with pytest.raises(OrderCapExceeded, match=f"exceeds cap {DEFAULT_ORDER_CAP}$"):
            entry(DEFAULT_ORDER_CAP + 1)
        # the cap itself is allowed: the check passes and series work starts
        with pytest.raises(AssertionError, match="series work started"):
            entry(DEFAULT_ORDER_CAP)

    # id: entry point, largest scanned residue
    GATED = {
        **{f"run_theorem_{tid}": (lambda order, tid=tid: run_theorem(tid, order), least)
           for tid, least in (("T1_mod5", 24), ("T2_mod25", 99), ("T3_mod7", 47),
                              ("T4_mod49", 341), ("regression", 327))},
        "lift_congruence": (
            lambda order: lift_congruence((25, 24, 5), 25, BrokenDiamondSpec(12), order), 24
        ),
        "elementary_mod5_proof": (elementary_mod5_proof, 24),
        "regression_suite": (regression_suite, 327),
    }

    @pytest.mark.parametrize("entry,least", list(GATED.values()), ids=list(GATED))
    @pytest.mark.parametrize(
        "case,error", [("negative", ValueError), ("above_cap", OrderCapExceeded),
                       ("below_residue", ValueError), ("non_integer", ValueError)],
    )
    def test_refusal_table(self, entry, least, case, error, no_series_work):
        order = {"negative": -1, "above_cap": DEFAULT_ORDER_CAP + 1, "below_residue": least - 1,
                 "non_integer": float(least + 100)}
        with pytest.raises(error) as refused:
            entry(order[case])
        assert type(refused.value) is error

    @pytest.mark.parametrize(
        "b_family,ell_multiple,error,message",
        [
            ((0, 0, 7), 49, ValueError, "modulus must be positive, got 0$"),
            ((-49, 0, 7), 49, ValueError, "modulus must be positive, got -49$"),
            ((49, 60, 7), 49, ValueError, "residue 60 outside 0..48$"),
            ((49, -1, 7), 49, ValueError, "residue -1 outside 0..48$"),
            ((49, 19, 7), 0, PreconditionViolated, "ell_multiple must be positive, got 0$"),
            ((49, 19, 7), -49, PreconditionViolated, "ell_multiple must be positive, got -49$"),
        ],
        ids=["m_zero", "m_negative", "t_above_m", "t_negative", "ell_multiple_zero",
             "ell_multiple_negative"],
    )
    def test_lift_inputs_refused_up_front(self, b_family, ell_multiple, error, message,
                                          no_series_work):
        with pytest.raises(error, match=message):
            lift_congruence(b_family, ell_multiple, BrokenDiamondSpec(24), 1517)

    def test_cap_above_default_is_clamped(self, no_series_work):
        with pytest.raises(OrderCapExceeded, match=f"exceeds cap {DEFAULT_ORDER_CAP}"):
            run_theorem("T1_mod5", DEFAULT_ORDER_CAP + 1, order_cap=3 * DEFAULT_ORDER_CAP)

    def test_cap_reaches_certificates(self, monkeypatch):
        # T3's certificates read the shared b series through _verify_instance
        caps = []
        verify = pipelines._verify_instance

        def recording_verify(instance, expand, **kwargs):
            caps.append(kwargs.get("order_cap"))
            return verify(instance, expand, **kwargs)

        monkeypatch.setattr(pipelines, "_verify_instance", recording_verify)
        assert run_theorem("T3_mod7", order_cap=5000).overall
        assert caps == [5000, 5000]


@pytest.mark.parametrize(
    "call",
    [
        lambda: eta_factor(1, -1),
        lambda: expand_eta_quotient(EtaQuotientSpec(2, {1: -3, 2: 1}), -1),
        lambda: run_theorem("T1_mod5", -1),
        lambda: run_theorem("T2_mod25", -1),
        lambda: run_theorem("T3_mod7", -1),
        lambda: run_theorem("T4_mod49", -1),
        lambda: run_theorem("regression", -1),
        lambda: lift_congruence((25, 24, 5), 25, BrokenDiamondSpec(12), -1),
    ],
    ids=[
        "eta_factor", "expand_eta_quotient", "T1_mod5", "T2_mod25", "T3_mod7", "T4_mod49",
        "regression", "lift_congruence",
    ],
)
def test_negative_order_is_value_error(call):
    with pytest.raises(ValueError, match="order must be nonnegative"):
        call()


def _mod7_instance(**fields):
    base = KNOWN_INSTANCES["mod7_t33"]
    return RSInstance(**{"m": base.m, "M": base.M, "N": base.N, "t": base.t, "r": base.r,
                         "r_prime": base.r_prime, "u": base.u, **fields})


_B_SPEC = EtaQuotientSpec(2, {1: -3, 2: 1})
_UNIT = TruncatedSeries(3, (1, 2**60 + 3, 5, 7))


@pytest.mark.parametrize(
    "field,call",
    [
        ("order", lambda: TruncatedSeries(2.0, (1, 2, 3))),
        ("level", lambda: EtaQuotientSpec(2.0, {1: -3, 2: 1})),
        ("alpha", lambda: ThetaSpec(1.5, 2)),
        ("beta", lambda: ThetaSpec(1, 2.0)),
        ("k", lambda: BrokenDiamondSpec(2.0)),
        *((field, lambda name=name, value=value: _mod7_instance(**{name: float(value)}))
          for name, field, value in (("m", "m", 49), ("M", "M", 14), ("N", "N", 14),
                                     ("t", "t", 33), ("u", "congruence modulus", 7))),
        ("order", lambda: run_theorem("T1_mod5", 100.0)),
        ("order", lambda: run_theorem("T4_mod49", 4000.0)),
        ("check_upto", lambda: verify_instance(KNOWN_INSTANCES["mod7_t33"], check_upto=12.0)),
        *((name, lambda family=family: lift_congruence(family, 49, BrokenDiamondSpec(24), 1517))
          for name, family in (("progression modulus", (49.0, 19, 7)), ("t", (49, 19.0, 7)),
                               ("u", (49, 19, 7.0)))),
        ("ell_multiple", lambda: lift_congruence((49, 19, 7), 49.0, BrokenDiamondSpec(24), 1517)),
        ("j", lambda: elementary_mod5_proof(100, j=1.0)),
        # entry points that took a float before the integer gate: a TypeError
        # from deep inside, or, for a modulus, a silent result in floating point
        ("order", lambda: eta_factor(1, 10.0)),
        ("delta", lambda: eta_factor(1.0, 10)),
        ("order", lambda: psi_series(2, 10.0)),
        ("scale", lambda: psi_series(2.0, 10)),
        ("order", lambda: jacobi_cube(10.0)),
        ("order", lambda: theta_series(ThetaSpec(1, 2), 10.0)),
        ("order", lambda: jtp_product(ThetaSpec(1, 2), 10.0)),
        ("order", lambda: expand_eta_quotient(_B_SPEC, 10.0)),
        ("order", lambda: b_series(10.0)),
        ("order", lambda: _UNIT.truncate(2.0)),
        ("substitution power", lambda: substitute_q_power(_UNIT, 2.0)),
        ("dissection modulus", lambda: dissect(_UNIT, 2.0)),
        ("modulus", lambda: extract_arithmetic_progression(_UNIT, 2.0, 0)),
        ("modulus", lambda: series_mul(_UNIT, _UNIT, 7.0)),
        ("modulus", lambda: series_pow(_UNIT, 2, 7.0)),
        ("exponent", lambda: series_pow(_UNIT, 2.0)),
        ("modulus", lambda: series_invert(_UNIT, 7.0)),
        # these two returned (1.0,), although 2**60 + 3 == 4 (mod 7), and float
        # coefficients
        ("modulus", lambda: reduce_mod(TruncatedSeries(0, (2**60 + 3,)), 7.0)),
        ("modulus", lambda: expand_eta_quotient(_B_SPEC, 10, 7.0)),
        ("c", lambda: p_min(KNOWN_INSTANCES["mod7_t33"], 2.0)),
        ("c", lambda: p_star(KNOWN_INSTANCES["mod7_t33"], 2.0)),
        ("n", lambda: divisors(10.0)),
        ("m", lambda: kappa(7.0)),
        ("N", lambda: index_gamma0(10.0)),
    ],
    ids=["series_order", "level", "alpha", "beta", "k", "m", "M", "N", "t", "u",
         "T1_order", "T4_order", "check_upto", "lift_m", "lift_t", "lift_u", "ell_multiple",
         "j", "eta_factor_order", "eta_factor_delta", "psi_series_order", "psi_series_scale",
         "jacobi_cube_order", "theta_series_order", "jtp_product_order", "expand_order",
         "b_series_order", "truncate_order", "substitute_q_power", "dissect_modulus",
         "extract_modulus", "series_mul_modulus", "series_pow_modulus", "series_pow_exponent",
         "series_invert_modulus", "reduce_mod_modulus", "expand_modulus", "p_min_c", "p_star_c",
         "divisors", "kappa", "index_gamma0"],
)
def test_non_integer_field_is_value_error(field, call):
    # an integral float is refused by the field's name, before any expansion
    with series.tracing() as counters:
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            call()
    assert not any(counters["expand"].values()), counters


class TestValues:
    def test_broken_diamond_spec(self, frozen_value):
        frozen_value(
            BrokenDiamondSpec(12), BrokenDiamondSpec(k=12), "BrokenDiamondSpec(k=12)", (12,)
        )

    def test_step_result(self, frozen_value):
        frozen_value(
            StepResult("absence", "pass", 1024),
            StepResult(order=1024, status="pass", name="absence", witness=None),
            "StepResult(name='absence', status='pass', order=1024, witness=None)",
            ("absence", "pass", 1024, None),
        )

    def test_passing_report(self, frozen_value, t1_report):
        report, _ = t1_report
        names = ["reduction", "dissection", "jacobi_support", "absence", "conclusion"]
        steps = tuple(StepResult(name, "pass", 1024) for name in names)
        frozen_value(
            report,
            ProofReport(steps=steps, theorem_id="T1_mod5"),
            f"ProofReport(theorem_id='T1_mod5', steps={steps!r}, certificates=())",
            ("T1_mod5", steps, ()),
        )

    def test_theorem_row(self, frozen_value):
        mod25 = KNOWN_INSTANCES["mod25"]
        frozen_value(
            pipelines._THEOREMS["T2_mod25"],
            pipelines._Theorem(b_scan_depth=50, instances=(mod25,), residues=(99,), order=1349,
                               alias="2"),
            f"_Theorem(alias='2', order=1349, residues=(99,), instances=({mod25!r},), "
            "b_scan_depth=50)",
            ("2", 1349, (99,), (mod25,), 50),
        )


class TestRegressionSuite:
    def test_all_known_families(self, regression_report):
        report, _ = regression_report
        assert report.theorem_id == "regression"
        assert report.overall
        names = {s.name for s in report.steps}
        assert names == {
            "delta2_m25_t14_mod5",
            "delta2_m25_t24_mod5",
            "delta3_m343_t82_mod7",
            "delta3_m343_t229_mod7",
            "delta3_m343_t278_mod7",
            "delta3_m343_t327_mod7",
        }

    def test_negative_control_shifted_residue(self):
        # 25n+13 is not a congruence family: some coefficient must survive mod 5
        reduced = reduce_mod(broken_k_diamond_series(BrokenDiamondSpec(2), 2524), 5)
        values = [reduced.coeffs[25 * n + 13] for n in range(101)]
        assert any(v != 0 for v in values)
