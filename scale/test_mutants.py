"""A standing mutation gate for the finite check: ROADMAP item 20.

Each mutant replaces one function of `etacert.finite_check` with a faulty
version, through monkeypatch.  The tier-1 checks that should see such a
fault then run in-process against it, as the kill set: the certificates of
`KNOWN_INSTANCES` against their golden digests, the certificates of the
boundary witnesses, the false congruences that one Delta* condition
refuses, and both tier-1 corpus sweeps with their pinned status counts.  At
least one member must fail; each test prints which did.  Run with
`PYTHONPATH=src python -m pytest -q -s scale/`.
"""

import contextlib
import hashlib
import io
from fractions import Fraction

import pytest

import test_finite_check  # as a module, so that its test classes are not collected here
from etacert import KNOWN_INSTANCES, EtaQuotientSpec, RSInstance, finite_check, verify_instance
from test_finite_check import _BOUNDARY_WITNESSES, _FALSE_CONGRUENCES, _check_boundary_certificate
from test_golden import CERTIFICATE_SHA256


def _golden(key: str) -> None:
    name, *extra = key.split()  # "mod7_t33 --check-upto 12"
    check_upto = int(extra[1]) if extra else None
    text = verify_instance(KNOWN_INSTANCES[name], check_upto=check_upto).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_SHA256[key]


def _refused(condition, m, M, N, t, r, r_prime, u, n) -> None:
    # what `certify` exits 2 for in TestDeltaStar, in-process
    cert = verify_instance(
        RSInstance(m, M, N, t, EtaQuotientSpec(M, r), EtaQuotientSpec(N, r_prime), u))
    assert cert.status == "hypothesis_violation"
    assert cert.witness == {"delta_star_conditions": [condition]}
    assert cert.p_set == (t,) and cert.checked_upto < n


def _kill_set() -> dict:
    """Each member's name and a call that raises when the member fails."""
    members = {f"golden {key}": lambda key=key: _golden(key) for key in CERTIFICATE_SHA256}
    members.update((f"boundary m={row[0]} M={row[1]} N={row[2]} t={row[3]}",
                    lambda row=row: _check_boundary_certificate(row))
                   for row in _BOUNDARY_WITNESSES)
    members.update((f"delta_star condition {row[0]}", lambda row=row: _refused(*row))
                   for row in _FALSE_CONGRUENCES)
    corpus = test_finite_check.TestSoundnessCorpus()
    members["corpus filtered seed 1"] = corpus.test_no_false_verified
    members["corpus unfiltered seed 5"] = corpus.test_no_false_verified_unfiltered
    return members


def _failing_members() -> list[str]:
    failed = []
    for name, check in _kill_set().items():
        try:
            with contextlib.redirect_stdout(io.StringIO()):  # the sweeps print summaries
                check()
        except Exception:  # a failed assertion, or any error the mutant causes
            failed.append(name)
    return failed


def _drop_condition(number):
    return "_delta_star_failures", lambda failures: lambda instance: [
        k for k in failures(instance) if k != number]


# name: (function of finite_check, and how the mutant wraps the original)
MUTANTS = {
    "v_exact_minus_one": ("_v_exact", lambda v_exact: lambda instance, t_min:
                          v_exact(instance, t_min) - 1),
    "scan_one_short": ("_first_nonzero", lambda first: lambda values, m, t:
                       first(values[:-1], m, t)),
    "p_min_over_divisor_1": ("p_min", lambda _: lambda instance, c: finite_check._cusp_sum(
        instance.r, (1,), instance.m * c, instance.m)),
    "p_min_plus_1_24": ("p_min", lambda p_min: lambda instance, c:
                        p_min(instance, c) + Fraction(1, 24)),
    **{f"drop_condition_{number}": _drop_condition(number) for number in range(1, 7)},
}

_SURVIVES = pytest.mark.xfail(
    strict=True, reason="no false tuple is known that fails this Delta* condition alone")


def test_kill_set_passes_unmutated():
    assert _failing_members() == []


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=_SURVIVES) if name in ("drop_condition_3", "drop_condition_6")
    else name
    for name in MUTANTS
])
def test_mutant_is_killed(name, monkeypatch):
    attribute, wrap = MUTANTS[name]
    monkeypatch.setattr(finite_check, attribute, wrap(getattr(finite_check, attribute)))
    failed = _failing_members()
    print(f"\n{name}: {len(failed)} failing: {', '.join(failed) or 'none'}")
    assert failed, f"mutant {name} survives the kill set"
