"""A seeded soundness corpus for the finite check: ROADMAP item 15.

Tuples are drawn by item 15's recipe and certified, and each `verified`
certificate is scanned again to n = 400 by the unreduced route of the
kernel, `_expand(r, order, u, reduce=False)`, which `verify_instance` does
not take.  A nonzero residue there is a false `verified`.

- Property A certifies every drawn tuple, so the certifier's own check of
  the six Delta* conditions (`finite_check._delta_star_failures`) must
  refuse each tuple whose scan is clean but whose congruence is false.
  `tests/test_finite_check.py` sweeps 100 tuples and `scale/test_scale.py`
  1000.
- Property B keeps only the tuples that pass the six conditions, so no
  tuple in it is refused for them.  `tests/test_finite_check.py` sweeps
  300 tuples and `scale/test_scale.py` 3000.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from math import gcd

from etacert import EtaQuotientSpec, RSInstance, divisors, p_min, verify_instance
from etacert.finite_check import _delta_star_failures
from etacert.series import _expand

# N <= 30 where the divisors of N stand for every cusp of Gamma0(N), as RSInstance requires
LEVELS = tuple(N for N in range(1, 31) if all(gcd(d, N // d) <= 2 for d in divisors(N)))
SCAN_UPTO = 400


def draw(rng: random.Random, filtered: bool = True) -> RSInstance | None:
    """Item 15's recipe: N <= 30, m <= 40, |r_delta| <= 4 on the divisors of N = M,
    u in {2, 3, 5, 7}, and r' = {1: x} with the least x >= -30 whose cusp sums
    are nonnegative.  When `filtered`, None for a tuple that fails one of the
    six Delta* conditions."""
    N = rng.choice(LEVELS)
    r = {delta: rng.randint(-4, 4) for delta in divisors(N)}
    m = rng.randint(1, 40)
    t = rng.randrange(m)
    u = rng.choice((2, 3, 5, 7))
    spec = EtaQuotientSpec(N, r)
    bare = RSInstance(m, N, N, t, spec, EtaQuotientSpec(N, {}), u)
    if filtered and _delta_star_failures(bare):
        return None
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


def sweep(seed: int, size: int, filtered: bool = True) -> Sweep:
    """Certify `size` seeded tuples, when `filtered` only those that pass the six
    conditions; rescan each `verified`."""
    rng = random.Random(seed)
    out = Sweep()
    kept = 0
    while kept < size:
        instance = draw(rng, filtered)
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
