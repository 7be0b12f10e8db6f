#!/usr/bin/env python3
# One finite check end to end: constants, cusp sums, bound, certificate.
import json

from etacert import (
    KNOWN_INSTANCES,
    RSInstance,
    compute_p_set,
    coset_representatives,
    p_min,
    p_star,
    v_bound,
    verify_instance,
)

inst = KNOWN_INSTANCES["mod25"]
print(f"instance: m={inst.m} M={inst.M} N={inst.N} t={inst.t} u={inst.u}")
print("r       =", dict(inst.r.exponents))
print("r'      =", dict(inst.r_prime.exponents))

# the orbit of t and the exact check bound
print("P-set   =", compute_p_set(inst))
v, floor = v_bound(inst)
print(f"v       = {v} (floor {floor})")

# nonnegativity of the cusp sums is the hypothesis that makes the check finite
for delta in coset_representatives(inst.N):
    pm, ps = p_min(inst, delta), p_star(inst, delta)
    print(f"  delta={delta:>2}: p_min={str(pm):>8} p_star={str(ps):>6} sum={pm + ps}")

# scanning the 22 coefficients certifies the whole infinite family
cert = verify_instance(inst)
print("status  =", cert.status)
print("hash    =", cert.series_hash)

# a perturbed residue cannot be certified: the scan produces a witness
perturbed = RSInstance(m=125, M=10, N=10, t=98, r=inst.r, r_prime=inst.r_prime, u=25)
bad = verify_instance(perturbed)
print("perturbed t=98:", bad.status, "witness:", bad.witness)

# the full certificate is deterministic JSON, replayable offline
print(json.dumps(cert.to_json_dict(), sort_keys=True, indent=2)[:400], "...")
