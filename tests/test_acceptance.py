"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every check is exact
(integer residues, rational bounds); there are no numeric tolerances, only
stated order and runtime budgets.

The (m=49, t=47) bound was settled by evaluating Radu's formula by hand:
v = 71/12, floor 5, not the 6 an earlier target table copied from the t=33
orbit (see test_criterion_3_t47_floor).
"""

import random
import time
from fractions import Fraction

from etacert import (
    BrokenDiamondSpec,
    EtaQuotientSpec,
    KNOWN_INSTANCES,
    RSInstance,
    ThetaSpec,
    TruncatedSeries,
    broken_k_diamond_series,
    build_dissection_blocks,
    compute_p_set,
    coset_representatives,
    eta_factor,
    expand_eta_quotient,
    jacobi_cube,
    jtp_product,
    p_min,
    p_star,
    psi_series,
    reduce_mod,
    series_mul,
    series_pow,
    substitute_q_power,
    theta_series,
    v_bound,
    verify_instance,
)
from etacert.oracle import naive_expand


def _line(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_mod5_family_direct():
    start = time.perf_counter()
    series = reduce_mod(broken_k_diamond_series(BrokenDiamondSpec(12), 1024), 5)
    residues = [series.coeffs[25 * n + 24] for n in range(41)]
    elapsed = time.perf_counter() - start
    ok = all(v == 0 for v in residues) and elapsed < 10.0
    _line("C1", ok, f"k=12 family zero mod 5 for n<=40 at order 1024 ({elapsed:.2f}s)")
    assert residues == [0] * 41
    assert elapsed < 10.0


def test_criterion_2_elementary_step_suite():
    order = 500
    blocks = build_dissection_blocks(order)
    q = TruncatedSeries.monomial(1, order)
    q3 = TruncatedSeries.monomial(3, order)
    q5 = TruncatedSeries.monomial(5, order)
    dissected = blocks.block_a + series_mul(q, blocks.block_b) + series_mul(q3, blocks.block_c)
    first_identity = dissected == psi_series(1, order)
    second_identity = series_pow(psi_series(5, order), 2) == series_mul(
        blocks.block_a, blocks.block_b
    ) + series_mul(q5, series_pow(blocks.block_c, 2))

    cube1_classes = {n % 5 for n in reduce_mod(jacobi_cube(order), 5).support()}
    cube2 = substitute_q_power(jacobi_cube(order // 2), 2, order)
    cube2_classes = {n % 5 for n in reduce_mod(cube2, 5).support()}

    deep = 2000
    product = series_mul(
        jacobi_cube(deep), substitute_q_power(jacobi_cube(deep // 2), 2, deep)
    )
    absence = all(n % 5 != 4 for n in reduce_mod(product, 5).support())

    ok = (
        first_identity
        and second_identity
        and cube1_classes <= {0, 1}
        and cube2_classes <= {0, 2}
        and absence
    )
    _line("C2", ok, "dissection identities exact at 500; supports and class-4 absence to 2000")
    assert first_identity and second_identity
    assert cube1_classes <= {0, 1}
    assert cube2_classes <= {0, 2}
    assert absence


def test_criterion_3_derived_constants():
    expectations = {
        "mod25": ((99,), 21),
        "mod7_t33": ((19, 33, 40), 6),
        "mod49": ((96, 292, 341), 56),
    }
    results = {}
    cusp_ok = True
    for key, inst in KNOWN_INSTANCES.items():
        for gamma in coset_representatives(inst.N):
            if p_min(inst, gamma) + p_star(inst, gamma) < 0:
                cusp_ok = False
        _, floor = v_bound(inst)
        results[key] = (compute_p_set(inst), floor)
    ok = cusp_ok and all(results[k] == want for k, want in expectations.items())
    ok = ok and results["mod7_t47"][0] == (47,)
    _line(
        "C3 (constants)",
        ok,
        f"P-sets and floors {[results[k][1] for k in ('mod25', 'mod7_t33', 'mod7_t47', 'mod49')]}"
        ", all cusp sums nonnegative",
    )
    assert cusp_ok
    for key, want in expectations.items():
        assert results[key] == want, key
    assert results["mod7_t47"][0] == (47,)


def test_criterion_3_t47_floor():
    """Exact bound for the single-residue (m=49, t=47) instance: v = 71/12, floor 5.

    Radu's bound, evaluated by hand for (m, M, N, t) = (49, 14, 14, 47) with
    r = (1:4, 2:1, 7:-1) and r' = (1:3):

    - [Gamma : Gamma0(14)] = 14 (1 + 1/2)(1 + 1/7) = 24;
    - sum r = 4, sum r' = 3, sum delta r' = 3, sum delta r = -1;
    - 24*47 - 1 = 23*49, so every square unit s fixes 47 and P(47) = {47},
      t_min = 47;
    - v = ((4 + 3)*24 - 3)/24 - (-1)/(24*49) - 47/49 = 6958/1176 = 71/12.

    The cusp sums p + p* at c = 1, 2, 7, 14 are 1/48, 1/12, 289/2352 and
    73/588, all nonnegative, so the bound applies and the check scans
    n = 0..floor(v) = 0..5.

    An earlier target table pinned floor(v) = 6 here.  That value was wrong:
    floor(71/12) = 5, so no bound could give both v = 71/12 and floor 6; the
    table's own check range, "the first 6 terms", is n = 0..5, i.e. floor 5;
    and 6 is the floor of v = 545/84 for the other mod-7 orbit,
    P(33) = {19, 33, 40}, from whose row it was most likely copied.
    """
    m, t = 49, 47
    r = {1: 4, 2: 1, 7: -1}
    r_prime = {1: 3}
    index = Fraction(14) * (1 + Fraction(1, 2)) * (1 + Fraction(1, 7))
    assert (24 * t - 1) % m == 0  # the orbit of t is {t}
    t_min = t
    want_v = (
        Fraction((sum(r.values()) + sum(r_prime.values())) * index
                 - sum(d * e for d, e in r_prime.items()), 24)
        - Fraction(sum(d * e for d, e in r.items()), 24 * m)
        - Fraction(t_min, m)
    )
    want_floor = want_v.numerator // want_v.denominator
    assert (index, want_v, want_floor) == (24, Fraction(71, 12), 5)

    inst = KNOWN_INSTANCES["mod7_t47"]
    v, floor = v_bound(inst)
    cert = verify_instance(inst)
    cusp_sums = {e.delta: e.p_min + e.p_star for e in cert.cusp_table}
    ok = (
        (v, floor) == (want_v, want_floor)
        and cert.verified
        and cert.checked_upto == cert.v_floor == want_floor
        and cert.p_set == (t_min,)
        and cert.residues_ok == ((t_min, (True,) * (want_floor + 1)),)
    )
    _line(
        "C3 (t=47 floor)",
        ok,
        f"exact v = {v} gives floor {floor}, n = 0..{cert.checked_upto} scanned, status {cert.status}",
    )
    assert v == Fraction(71, 12)
    assert floor == want_floor == 5
    assert cusp_sums == {
        1: Fraction(1, 48),
        2: Fraction(1, 12),
        7: Fraction(289, 2352),
        14: Fraction(73, 588),
    }
    assert cert.verified
    assert cert.v_exact == want_v
    assert cert.checked_upto == cert.v_floor == want_floor
    assert cert.p_set == (t_min,)
    assert cert.residues_ok == ((t_min, (True,) * 6),)


def test_criterion_4_certificates_verify(t2_report, t3_report, t4_report):
    (rep2, _), (rep3, _), (rep4, t4_elapsed) = t2_report, t3_report, t4_report
    cert25 = rep2.certificates[0]
    ok25 = cert25.verified and cert25.checked_upto >= 21
    scan25 = rep2.step("b_family_scan_mod25")
    ok25 = ok25 and scan25.passed and (scan25.order - 99) // 125 >= 50

    ok7 = all(c.verified for c in rep3.certificates)
    scan7 = rep3.step("b_family_scan_mod7")
    ok7 = ok7 and scan7.passed and (scan7.order - 47) // 49 >= 30

    cert49 = rep4.certificates[0]
    ok49 = cert49.verified and cert49.checked_upto >= 56
    scan49 = rep4.step("b_family_scan_mod49")
    ok49 = ok49 and scan49.passed and (scan49.order - 341) // 343 >= 56
    runtime_ok = t4_elapsed < 300.0

    ok = ok25 and ok7 and ok49 and runtime_ok
    _line(
        "C4",
        ok,
        f"families certified and over-checked (mod 25 n<=50, mod 7 n<=30, mod 49 n<=56); "
        f"largest run {t4_elapsed:.1f}s",
    )
    assert ok25 and ok7 and ok49
    assert runtime_ok


def test_criterion_5_lifted_theorems(t2_report, t3_report, t4_report):
    (rep2, _), (rep3, _), (rep4, _) = t2_report, t3_report, t4_report
    lift25 = rep2.step("lift_k62_m125_t99_mod25")
    ok25 = lift25.passed and (lift25.order - 99) // 125 >= 10
    ok7 = True
    for s in (19, 33, 40, 47):
        step = rep3.step(f"lift_k24_m49_t{s}_mod7")
        ok7 = ok7 and step.passed and (step.order - s) // 49 >= 30
    ok49 = True
    for t in (96, 292, 341):
        step = rep4.step(f"lift_k171_m343_t{t}_mod49")
        ok49 = ok49 and step.passed and (step.order - t) // 343 >= 10
    ok = ok25 and ok7 and ok49
    _line("C5", ok, "k=62 (mod 25), k=24 (mod 7) and k=171 (mod 49) lifts all scan clean")
    assert ok25
    assert ok7
    assert ok49


def test_criterion_6_regression_congruences(regression_report):
    report, _ = regression_report
    depths = {}
    ok = report.overall
    for k, m, ts, need in ((2, 25, (14, 24), 100), (3, 343, (82, 229, 278, 327), 8)):
        for t in ts:
            step = report.step(f"delta{k}_m{m}_t{t}_mod{5 if k == 2 else 7}")
            reach = (step.order - t) // m
            depths[(k, t)] = reach
            ok = ok and step.passed and reach >= need
    _line("C6", ok, f"six known families re-verified; scan depths {sorted(depths.values())}")
    assert report.overall
    for (k, t), reach in depths.items():
        assert reach >= (100 if k == 2 else 8), (k, t)


def test_criterion_7_property_suites():
    # Jacobi triple product equivalence on the named specs plus 20 random ones
    rng = random.Random(500500)
    specs = [ThetaSpec(1, 3), ThetaSpec(10, 15), ThetaSpec(5, 20)]
    while len(specs) < 23:
        alpha = rng.randint(1, 11)
        specs.append(ThetaSpec(alpha, rng.randint(1, 12 - alpha)))
    jtp_ok = all(theta_series(s, 500) == jtp_product(s, 500) for s in specs)

    binomial_ok = True
    for p, alpha in ((5, 1), (5, 2), (7, 1), (7, 2)):
        lhs = reduce_mod(series_pow(eta_factor(alpha, 300), p), p)
        rhs = reduce_mod(eta_factor(p * alpha, 300), p)
        binomial_ok = binomial_ok and lhs == rhs
        lhs = reduce_mod(series_pow(eta_factor(1, 300), p**alpha), p**alpha)
        rhs = reduce_mod(series_pow(eta_factor(p, 300), p ** (alpha - 1)), p**alpha)
        binomial_ok = binomial_ok and lhs == rhs

    oracle_ok = True
    quotients = [inst.r for inst in KNOWN_INSTANCES.values()]
    quotients += [inst.r_prime for inst in KNOWN_INSTANCES.values()]
    quotients.append(EtaQuotientSpec(2, {1: -3, 2: 1}))
    quotients.append(BrokenDiamondSpec(12).eta_spec())
    for spec in quotients:
        oracle_ok = oracle_ok and expand_eta_quotient(spec, 300) == naive_expand(spec, 300)

    # negative control: perturbing the residue must surface a witness
    base = KNOWN_INSTANCES["mod25"]
    perturbed = verify_instance(
        RSInstance(m=125, M=10, N=10, t=98, r=base.r, r_prime=base.r_prime, u=25)
    )
    control_t_ok = (
        perturbed.status == "counterexample"
        and perturbed.witness is not None
        and perturbed.p_set != (98,)
    )

    # negative control: dropping one factor of f2^3 re-creates class-4 terms
    sabotage = reduce_mod(
        series_mul(jacobi_cube(500), series_pow(eta_factor(2, 500), 2)), 5
    )
    sabotage_witnesses = [n for n in sabotage.support() if n % 5 == 4]
    control_sab_ok = bool(sabotage_witnesses)

    ok = jtp_ok and binomial_ok and oracle_ok and control_t_ok and control_sab_ok
    _line(
        "C7",
        ok,
        "JTP x23 specs at 500; binomial lemma x4 at 300; oracle parity x10 at 300; "
        f"controls witnessed (t=98 at exponent {perturbed.witness['exponent']}, "
        f"sabotage at exponent {sabotage_witnesses[0] if sabotage_witnesses else '-'})",
    )
    assert jtp_ok
    assert binomial_ok
    assert oracle_ok
    assert control_t_ok
    assert control_sab_ok
