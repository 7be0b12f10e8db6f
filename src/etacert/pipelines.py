"""End-to-end reproduction pipelines for the four congruence theorems.

Each pipeline is a sequence of named, independently checkable steps whose
verdicts are collected append-only into a ProofReport: the elementary
5-dissection chain for the mod-5 family, and certificate + lift chains for
the mod-25, mod-7 and mod-49 families, plus a regression suite of the
previously known congruences.
"""

import math
from dataclasses import dataclass, field

from .finite_check import (
    DEFAULT_ORDER_CAP,
    RSCertificate,
    RSInstance,
    _check_order,
    _progression_witness,
    _v_exact,
    _verify_instance,
    compute_p_set,
    divisors,
)
from .series import (
    EtaQuotientSpec,
    TruncatedSeries,
    _expand,
    _reduce_exponents,
    expand_eta_quotient,
    reduce_mod,
    series_mul,
    series_pow,
    substitute_q_power,
)
from .theta import dissect, jacobi_cube, psi_series

__all__ = [
    "BrokenDiamondSpec",
    "StepResult",
    "ProofReport",
    "PreconditionViolated",
    "KNOWN_INSTANCES",
    "THEOREM_IDS",
    "broken_k_diamond_series",
    "b_series",
    "lift_congruence",
    "elementary_mod5_proof",
    "run_theorem",
    "regression_suite",
]


class PreconditionViolated(ValueError):
    """A divisibility hypothesis of the congruence-lifting step fails."""


@dataclass(frozen=True, slots=True)
class BrokenDiamondSpec:
    """Diamond parameter k; the attached eta quotient has level 2(2k+1)."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")

    @property
    def ell(self) -> int:
        return 2 * self.k + 1

    def eta_spec(self) -> EtaQuotientSpec:
        ell = self.ell
        return EtaQuotientSpec(2 * ell, {1: -3, 2: 1, ell: 1, 2 * ell: -1})


@dataclass(frozen=True, slots=True)
class StepResult:
    name: str
    status: str  # "pass" | "fail"
    order: int
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "status": self.status, "order": self.order}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class ProofReport:
    theorem_id: str
    steps: tuple[StepResult, ...]
    certificates: tuple[RSCertificate, ...] = field(default=())

    @property
    def overall(self) -> bool:
        return all(step.passed for step in self.steps)

    def step(self, name: str) -> StepResult:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "steps": [s.to_json_dict() for s in self.steps],
            "certificates": [c.to_json_dict() for c in self.certificates],
            "overall": self.overall,
        }


KNOWN_INSTANCES: dict[str, RSInstance] = {
    "mod25": RSInstance(
        m=125, M=10, N=10, t=99,
        r=EtaQuotientSpec(10, {1: 22, 2: 1, 5: -5}),
        r_prime=EtaQuotientSpec(10, {1: 13}),
        u=25,
    ),
    "mod7_t33": RSInstance(
        m=49, M=14, N=14, t=33,
        r=EtaQuotientSpec(14, {1: 4, 2: 1, 7: -1}),
        r_prime=EtaQuotientSpec(14, {1: 3}),
        u=7,
    ),
    "mod7_t47": RSInstance(
        m=49, M=14, N=14, t=47,
        r=EtaQuotientSpec(14, {1: 4, 2: 1, 7: -1}),
        r_prime=EtaQuotientSpec(14, {1: 3}),
        u=7,
    ),
    "mod49": RSInstance(
        m=343, M=14, N=14, t=96,
        r=EtaQuotientSpec(14, {1: 46, 2: 1, 7: -7}),
        r_prime=EtaQuotientSpec(14, {1: 18}),
        u=49,
    ),
}


_B_SPEC = EtaQuotientSpec(2, {1: -3, 2: 1})


@dataclass(frozen=True, slots=True)
class _Theorem:
    """A theorem id's CLI alias and default order, and for a family its data.

    A row with instances is a certified b-family b(m n + t) == 0 (mod u),
    lifted to Delta_k.  m and u are those of its certificate instances, which
    share them; the lift takes k = (m - 1) / 2, the least k with m | 2k + 1.
    The residues are literal data rather than the certificates' P-sets, so a
    fault in the orbit computation changes a step name or a digest.  Every
    certificate reads f_r mod u off a truncation of b mod u, so a row is
    refused here unless each instance's r is b mod u: r and b must reduce
    mod u to the same quotient, which by the binomial lemma proves
    f_r == f_b (mod u).  For odd u a quotient has one reduced form however
    it is written; forms that differ only refuse, never admit.  b is
    expanded to the b-scan order, so a row is refused too if that is short
    of a certificate's order m max(floor(v), 0) + max(P).
    """

    alias: str
    order: int
    residues: tuple[int, ...] = ()
    instances: tuple[RSInstance, ...] = ()
    b_scan_depth: int = 0  # empirical depth n of the b(m n + t) scan

    def __post_init__(self):
        for instance in self.instances:
            r, b = (_reduce_exponents(s, instance.u, self.b_order) for s in (instance.r, _B_SPEC))
            if r.exponents != b.exponents:
                raise ValueError(f"r = {instance.r.to_spec_string()} is not b mod {instance.u}")
            p_set = compute_p_set(instance)
            upto = max(math.floor(_v_exact(instance, min(p_set))), 0)
            cert_order = instance.m * upto + max(p_set)
            if self.b_order < cert_order:
                raise ValueError(f"b-scan order {self.b_order} is short of the certificate order "
                                 f"{cert_order} of t = {instance.t}")

    @property
    def b_order(self) -> int:
        return self.instances[0].m * self.b_scan_depth + max(self.residues)


_THEOREMS = {  # id: CLI alias, default order[, residues, certificate instances, b-scan depth]
    "T1_mod5": _Theorem("1", 1024),
    "T2_mod25": _Theorem("2", 1349, (99,), (KNOWN_INSTANCES["mod25"],), 50),
    "T3_mod7": _Theorem(
        "3", 1517, (19, 33, 40, 47), (KNOWN_INSTANCES["mod7_t33"], KNOWN_INSTANCES["mod7_t47"]), 30
    ),
    "T4_mod49": _Theorem("4", 3771, (96, 292, 341), (KNOWN_INSTANCES["mod49"],), 56),
    "regression": _Theorem("regressions", 3071),
}
THEOREM_IDS = tuple(_THEOREMS)


def broken_k_diamond_series(
    spec: BrokenDiamondSpec, order: int, modulus: int | None = None
) -> TruncatedSeries:
    """Counting series of broken k-diamond partitions to `order`, exact or mod `modulus`."""
    return expand_eta_quotient(spec.eta_spec(), order, modulus)


def b_series(order: int, modulus: int | None = None) -> TruncatedSeries:
    """The auxiliary series with coefficients b(n): quotient {1: -3, 2: 1}."""
    return expand_eta_quotient(_B_SPEC, order, modulus)


def _verdict(name: str, order: int, witness: dict | None) -> StepResult:
    return StepResult(name, "fail" if witness else "pass", order, witness)


def _series_equal_step(
    name: str, lhs: TruncatedSeries, rhs: TruncatedSeries, order: int
) -> StepResult:
    """Whether lhs and rhs agree to `order`, compared as given: every caller passes residues."""
    pairs = enumerate(zip(lhs.truncate(order).coeffs, rhs.truncate(order).coeffs))
    witness = next(({"exponent": n, "lhs": x, "rhs": y} for n, (x, y) in pairs if x != y), None)
    return _verdict(name, order, witness)


def _progression_steps(
    series: TruncatedSeries, m: int, residues: tuple[int, ...], names: list[str], order: int
) -> list[StepResult]:
    witnesses = (_progression_witness(series, m, t) for t in residues)
    return [_verdict(name, order, witness) for name, witness in zip(names, witnesses)]


def _lift_steps(
    m: int, residues: tuple[int, ...], u: int, spec: BrokenDiamondSpec, order: int,
    b_reduced: TruncatedSeries,
) -> list[StepResult]:
    """`lift_congruence` for every t in `residues`, read off b mod u to at least `order`.

    The caller has checked `order` and the lift's hypotheses.  The support
    factor f_ell / f_2ell is expanded exactly and checked literally; Delta_k
    mod u is then the product of b mod u with it, so no second dense
    expansion of Delta_k is made.
    """
    ell = spec.ell
    names = [f"lift_k{spec.k}_m{m}_t{t}_mod{u}" for t in residues]
    support = expand_eta_quotient(EtaQuotientSpec(2 * ell, {ell: 1, 2 * ell: -1}), order)
    for n in support.support():
        if n % ell != 0:
            return [StepResult(name, "fail", order, {"support_violation": n}) for name in names]
    diamond = series_mul(b_reduced.truncate(order), support, modulus=u)
    return _progression_steps(diamond, m, residues, names, order)


def lift_congruence(
    b_family: tuple[int, int, int],
    ell_multiple: int,
    spec: BrokenDiamondSpec,
    order: int,
) -> StepResult:
    """Transfer b(m n + t) == 0 (mod u) to the diamond counting function.

    The counting series factors as ({1:-3, 2:1}) * ({ell:1, 2*ell:-1}); the
    second factor is supported on exponents divisible by ell, so once ell is
    a multiple of ell_multiple and ell_multiple of m, every coefficient at
    m n + t inherits the b-family congruence.  Both facts are checked here:
    the support claim literally, the congruence by scanning Delta_k mod u
    to `order`, formed as b mod u times the support factor.

    A progression modulus m < 1, a residue t outside 0..m-1 or an
    ell_multiple < 1 is refused, and then the order through `_check_order`
    (it must reach exponent t), all before any series is expanded.
    """
    m, t, u = b_family
    if m < 1:
        raise ValueError(f"progression modulus must be positive, got {m}")
    if not 0 <= t < m:
        raise ValueError(f"residue {t} outside 0..{m - 1}")
    if ell_multiple < 1:
        raise PreconditionViolated(f"ell_multiple must be positive, got {ell_multiple}")
    _check_order(order, least=t)
    if spec.ell % ell_multiple != 0:
        raise PreconditionViolated(f"2k+1 = {spec.ell} is not a multiple of {ell_multiple}")
    if ell_multiple % m != 0:
        raise PreconditionViolated(f"{ell_multiple} is not a multiple of the progression modulus {m}")
    return _lift_steps(m, (t,), u, spec, order, b_series(order, modulus=u))[0]


def elementary_mod5_proof(order: int | None = None, *, j: int = 1) -> ProofReport:
    """The five-step dissection proof of the mod-5 family, checked to `order`.

    `order` defaults to that of run_theorem("T1_mod5").  j parametrizes the
    witness 2k+1 = 25j (j odd); steps 2-4 do not involve j at all, so a
    single witness exercises the whole argument.

    Every step reads residues mod 5 only, so psi^3, the spectator factor
    (expanded as given, with no exponent reduction), their product, the
    collapsed psi(q^25) psi(q^5)^2 and its q^4 shift are all formed in
    (Z/5)[[q]]; reduction mod 5 is a ring homomorphism, so the residues, and
    every witness, are those of the exact series.
    """
    order = _THEOREMS["T1_mod5"].order if order is None else order
    if j < 1 or j % 2 == 0:
        raise ValueError(f"need odd positive j (2k+1 = 25j must be odd), got {j}")
    _check_order(order, least=24)
    k = (25 * j - 1) // 2
    suffix = "" if j == 1 else f"_j{j}"
    steps = []

    # 1. generating function reduces to psi^3(q) / f10 times a spectator factor;
    # its mod-5 expansion is also the series scanned in step 5
    reduced = broken_k_diamond_series(BrokenDiamondSpec(k), order, modulus=5)
    psi_cubed = series_pow(psi_series(1, order), 3, modulus=5)
    spectator = _expand(
        EtaQuotientSpec(50 * j, {10: -1, 25 * j: 1, 50 * j: -1}), order, 5, reduce=False
    )
    steps.append(
        _series_equal_step(
            "reduction" + suffix, reduced, series_mul(psi_cubed, spectator, modulus=5), order
        )
    )

    # 2. class-4 part of psi^3 collapses to q^4 psi(q^25) psi^2(q^5)
    class4 = dissect(psi_cubed, 5)[4]
    psi5 = psi_series(5, order)
    collapsed = series_mul(series_mul(psi_series(25, order), psi5, modulus=5), psi5, modulus=5)
    shifted = TruncatedSeries(order, (0,) * 4 + collapsed.coeffs[: order - 3])
    steps.append(_series_equal_step("dissection" + suffix, class4, shifted, order))

    # 3. cube supports: f1^3 lives on classes {0,1} mod 5, f2^3 on {0,2}
    cube1 = jacobi_cube(order)
    cube2 = substitute_q_power(jacobi_cube(order // 2), 2, order)
    cubes = (("f1^3", reduce_mod(cube1, 5), {0, 1}), ("f2^3", reduce_mod(cube2, 5), {0, 2}))
    support_witness = next(
        (
            {"series": label, "class": i, "exponent": witness["exponent"]}
            for label, cube, allowed in cubes
            for i in range(5)
            if i not in allowed and (witness := _progression_witness(cube, 5, i))
        ),
        None,
    )
    steps.append(_verdict("jacobi_support" + suffix, order, support_witness))

    # 4. the product f1^3 f2^3 has no exponent 4 mod 5 once reduced
    absence = _progression_witness(series_mul(cube1, cube2, modulus=5), 5, 4)
    absence_witness = absence and {"exponent": absence["exponent"], "value": absence["value"]}
    steps.append(_verdict("absence" + suffix, order, absence_witness))

    # 5. the family itself, scanned on the concrete witness k
    steps.append(_verdict("conclusion" + suffix, order, _progression_witness(reduced, 25, 24)))

    return ProofReport("T1_mod5", tuple(steps))


def _family_report(theorem_id: str, family: _Theorem, order: int, order_cap: int) -> ProofReport:
    """Binomial lemma, congruent form, certificates, b-family scan, then one lift per residue.

    An `order` below the largest residue would leave a lift scan empty; it
    is refused before any series is expanded.

    b mod u is expanded once, by the reduced kernel, for every step that
    reads b.  The binomial lemma f_1^u == f_p^(u/p) and the instance's r
    are expanded in (Z/u)[[q]] as given, with no exponent reduction, so the
    two basis steps check the lemma the reduced kernel relies on without
    using it, and check the reduced b against an independent route.
    """
    _check_order(order, least=max(family.residues))
    instances = family.instances
    m, u = instances[0].m, instances[0].u
    p = divisors(u)[1]  # the prime dividing u
    basis_order = min(order, 300)
    b_reduced = b_series(max(order, family.b_order), modulus=u)
    steps = [
        _series_equal_step(
            f"binomial_lemma_mod{u}",
            _expand(EtaQuotientSpec(p, {1: u}), basis_order, u, reduce=False),
            _expand(EtaQuotientSpec(p, {p: u // p}), basis_order, u, reduce=False),
            basis_order,
        ),
        _series_equal_step(
            f"congruent_form_mod{u}",
            b_reduced.truncate(basis_order),
            _expand(instances[0].r, basis_order, u, reduce=False),
            basis_order,
        ),
    ]

    certs = tuple(
        _verify_instance(instance, b_reduced.truncate, order_cap=order_cap)
        for instance in instances
    )
    for instance, cert in zip(instances, certs):
        witness = None if cert.verified else dict(cert.witness or {}, status=cert.status)
        cert_order = instance.m * cert.checked_upto + max(cert.p_set)
        steps.append(_verdict(f"certificate_m{instance.m}_t{instance.t}", cert_order, witness))

    b_scanned = b_reduced.truncate(family.b_order)
    witnesses = (_progression_witness(b_scanned, m, t) for t in family.residues)
    b_witness = next((dict(w, t=t) for t, w in zip(family.residues, witnesses) if w), None)
    steps.append(_verdict(f"b_family_scan_mod{u}", family.b_order, b_witness))

    spec = BrokenDiamondSpec((m - 1) // 2)  # ell = m, so the lift's hypotheses hold
    steps += _lift_steps(m, family.residues, u, spec, order, b_reduced)
    return ProofReport(theorem_id, tuple(steps), certs)


def run_theorem(
    theorem_id: str, order: int | None = None, *, order_cap: int = DEFAULT_ORDER_CAP
) -> ProofReport:
    """Run one theorem pipeline; `order` controls the empirical lift scans.

    Before any series work, `_check_order` refuses max(order, b_order) for a
    family, or the order itself, above min(order_cap, DEFAULT_ORDER_CAP), so
    a family's b-scan order is capped too.  The pipeline's own gate then
    refuses a negative order and one short of its largest scanned residue.
    """
    cap = min(order_cap, DEFAULT_ORDER_CAP)
    row = _THEOREMS.get(theorem_id)
    if row is None:
        raise ValueError(f"unknown theorem id {theorem_id!r}; expected one of {THEOREM_IDS}")
    order = row.order if order is None else order
    if row.instances:
        _check_order(max(order, row.b_order), cap)
        return _family_report(theorem_id, row, order, cap)
    _check_order(order, cap)
    if theorem_id == "T1_mod5":
        return elementary_mod5_proof(order)
    return regression_suite(order)


def regression_suite(order: int | None = None) -> ProofReport:
    """The previously known families: k=2 mod 5 and k=3 mod 7 congruences."""
    order = _THEOREMS["regression"].order if order is None else order
    steps = []
    families = (
        (2, 25, (14, 24), 5),
        (3, 343, (82, 229, 278, 327), 7),
    )
    _check_order(order, least=max(max(ts) for _, _, ts, _ in families))
    for k, m, ts, u in families:
        # Delta_k mod u is expanded once, then one verdict per residue t
        reduced = broken_k_diamond_series(BrokenDiamondSpec(k), order, modulus=u)
        names = [f"delta{k}_m{m}_t{t}_mod{u}" for t in ts]
        steps += _progression_steps(reduced, m, ts, names, order)
    return ProofReport("regression", tuple(steps))
