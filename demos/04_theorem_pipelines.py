#!/usr/bin/env python3
# The assembled proof pipelines: elementary chain, certificates, lifts.
# The mod-49 pipeline expands to order ~19,500 in (Z/49)[[q]].
from etacert import regression_suite, run_theorem

for theorem_id in ("T1_mod5", "T2_mod25", "T3_mod7", "T4_mod49"):
    report = run_theorem(theorem_id)
    flag = "ok" if report.overall else "FAILED"
    print(f"{theorem_id}: {flag}")
    for step in report.steps:
        print(f"  {step.status:>4}  {step.name}  (order {step.order})")
    for cert in report.certificates:
        print(
            f"        certificate m={cert.instance.m} t={cert.instance.t}: "
            f"P={list(cert.p_set)} floor(v)={cert.v_floor} status={cert.status}"
        )

report = regression_suite()
print(f"regression: {'ok' if report.overall else 'FAILED'} "
      f"({sum(s.passed for s in report.steps)}/{len(report.steps)} families)")
