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

from etacert import EtaQuotientSpec, RSInstance, divisors, p_min, verify_instance
from etacert.finite_check import _delta_star_failures
from etacert.series import _expand

LEVELS = tuple(range(1, 31))
SCAN_UPTO = 400


def draw(rng: random.Random, filtered: bool = True) -> RSInstance | None:
    """Item 15's recipe with M drawn apart from N: M, N <= 30, m <= 40,
    |r_delta| <= 4 on the divisors of M, u in {2, 3, 5, 7}, and r' = {1: x}
    at level N with the least x >= -30 whose cusp sums, at the divisors of N,
    are nonnegative.  When `filtered`, None for a tuple that fails one of the
    six Delta* conditions; condition 2, delta | mN, can fail only when M != N."""
    N, M = rng.choice(LEVELS), rng.choice(LEVELS)
    r = {delta: rng.randint(-4, 4) for delta in divisors(M)}
    m = rng.randint(1, 40)
    t = rng.randrange(m)
    u = rng.choice((2, 3, 5, 7))
    spec = EtaQuotientSpec(M, r)
    bare = RSInstance(m, M, N, t, spec, EtaQuotientSpec(N, {}), u)
    if filtered and _delta_star_failures(bare):
        return None
    # p_star(c) = x / 24 at every c for r' = {1: x}
    x = max(-30, math.ceil(-24 * min(p_min(bare, c) for c in divisors(N))))
    return RSInstance(m, M, N, t, spec, EtaQuotientSpec(N, {1: x}), u)


@dataclass
class Sweep:
    statuses: Counter = field(default_factory=Counter)
    false_verified: list = field(default_factory=list)  # (instance, t', n, residue)
    failing_at_zero: int = 0  # counterexamples whose least failing n over P is 0
    failing_at_bound: int = 0  # and is checked_upto > 0

    def summary(self) -> str:
        counterexamples = self.statuses["counterexample"]
        return (f"{dict(self.statuses)}; {len(self.false_verified)} false verified; "
                f"least failing n = 0 in {self.failing_at_zero} and n = checked_upto > 0 in "
                f"{self.failing_at_bound} of {counterexamples} counterexamples")


def least_failing_n(cert) -> int:
    """The least n with a nonzero residue at some t' in P.  The witness gives
    the first nonzero of the first failing t' only, which can lie later."""
    return min(flags.index(False) for _, flags in cert.residues_ok if False in flags)


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
            n = least_failing_n(cert)
            out.failing_at_zero += n == 0
            out.failing_at_bound += n == cert.checked_upto > 0
        if not cert.verified:
            continue
        m, u = instance.m, instance.u
        coeffs = _expand(instance.r, m * SCAN_UPTO + max(cert.p_set), u, reduce=False).coeffs
        for t_prime in cert.p_set:
            n = next((n for n, c in enumerate(coeffs[t_prime::m]) if c % u), None)
            if n is not None:
                out.false_verified.append((instance, t_prime, n, coeffs[m * n + t_prime] % u))
    return out
