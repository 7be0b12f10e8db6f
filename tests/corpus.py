"""A seeded soundness corpus for the finite check: ROADMAP item 15, property B.

Tuples are drawn by item 15's recipe and kept when they pass the six
conditions of item 4 for Radu's admissible set Delta*.  Each kept tuple is
certified, and each `verified` certificate is scanned again to n = 400 by
the unreduced route of the kernel, `_expand(r, order, u, reduce=False)`,
which `verify_instance` does not take.  A nonzero residue there is a false
`verified`.  `tests/test_finite_check.py` sweeps 300 tuples and
`scale/test_scale.py` 3000.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from math import gcd

from etacert import EtaQuotientSpec, RSInstance, divisors, kappa, p_min, verify_instance
from etacert.series import _expand

# N <= 30 where the divisors of N stand for every cusp of Gamma0(N), as RSInstance requires
LEVELS = tuple(N for N in range(1, 31) if all(gcd(d, N // d) <= 2 for d in divisors(N)))
SCAN_UPTO = 400


def delta_star_conditions(m: int, N: int, t: int, r: dict[int, int]) -> list[bool]:
    """Item 4's six conditions for (m, M = N, N, t, r), in order; r maps delta to r_delta.

    Written from Radu (2009) and Smoot (2021) as ROADMAP item 4 states them,
    with kappa = gcd(m^2 - 1, 24) and sigma = sum delta r_delta.
    """
    k = kappa(m)
    nonzero = {delta: e for delta, e in r.items() if e}
    product = math.prod(delta ** abs(e) for delta, e in nonzero.items())
    s = (product & -product).bit_length() - 1  # product = 2^s j, j odd
    j = product >> s
    sigma = sum(delta * e for delta, e in nonzero.items())
    return [
        all(N % p == 0 for p in divisors(m)[1:] if divisors(p) == (1, p)),
        all(m * N % delta == 0 for delta in nonzero),
        k * N * sum(e * m * N // delta for delta, e in nonzero.items()) % 24 == 0,
        k * N * sum(nonzero.values()) % 8 == 0,
        N % (24 * m // gcd(k * (24 * t + sigma), 24 * m)) == 0,
        m % 2 == 1 or (k * N % 4 == 0 and s * N % 8 == 0)
        or (s % 2 == 0 and (1 - j) * N % 8 == 0),
    ]


def draw(rng: random.Random) -> RSInstance | None:
    """Item 15's recipe: N <= 30, m <= 40, |r_delta| <= 4 on the divisors of N = M,
    u in {2, 3, 5, 7}, and r' = {1: x} with the least x >= -30 whose cusp sums
    are nonnegative.  None when the tuple fails one of the six conditions."""
    N = rng.choice(LEVELS)
    r = {delta: rng.randint(-4, 4) for delta in divisors(N)}
    m = rng.randint(1, 40)
    t = rng.randrange(m)
    u = rng.choice((2, 3, 5, 7))
    if not all(delta_star_conditions(m, N, t, r)):
        return None
    spec = EtaQuotientSpec(N, r)
    bare = RSInstance(m, N, N, t, spec, EtaQuotientSpec(N, {}), u)
    # p_star(c) = x / 24 at every c for r' = {1: x}
    x = max(-30, math.ceil(-24 * min(p_min(bare, c) for c in divisors(N))))
    return RSInstance(m, N, N, t, spec, EtaQuotientSpec(N, {1: x}), u)


@dataclass
class Sweep:
    statuses: Counter = field(default_factory=Counter)
    false_verified: list = field(default_factory=list)  # (instance, t', n, residue)
    witness_at_zero: int = 0  # counterexamples first nonzero at n = 0
    witness_at_bound: int = 0  # and at n = checked_upto > 0

    def summary(self) -> str:
        counterexamples = self.statuses["counterexample"]
        return (f"{dict(self.statuses)}; {len(self.false_verified)} false verified; "
                f"witness at n = 0 in {self.witness_at_zero} and at n = checked_upto > 0 in "
                f"{self.witness_at_bound} of {counterexamples} counterexamples")


def sweep(seed: int, size: int) -> Sweep:
    """Certify `size` seeded tuples that pass the six conditions; rescan each `verified`."""
    rng = random.Random(seed)
    out = Sweep()
    kept = 0
    while kept < size:
        instance = draw(rng)
        if instance is None:
            continue
        kept += 1
        cert = verify_instance(instance)
        out.statuses[cert.status] += 1
        if cert.status == "counterexample":
            out.witness_at_zero += cert.witness["n"] == 0
            out.witness_at_bound += cert.witness["n"] == cert.checked_upto > 0
        if not cert.verified:
            continue
        m, u = instance.m, instance.u
        coeffs = _expand(instance.r, m * SCAN_UPTO + max(cert.p_set), u, reduce=False).coeffs
        for t_prime in cert.p_set:
            n = next((n for n, c in enumerate(coeffs[t_prime::m]) if c % u), None)
            if n is not None:
                out.false_verified.append((instance, t_prime, n, coeffs[m * n + t_prime] % u))
    return out
