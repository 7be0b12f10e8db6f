"""Seeded inputs of the etacert benchmark workloads.

A workload is an endless sequence of rounds; a round is a list of operations
and an operation is a plain tuple whose first entry names its kind.  Every
round of a workload has the same composition (kinds, counts, order buckets),
so rounds cost about the same whatever the seed, and only the concrete
inputs vary.  Nothing here imports etacert: the streams can be generated and
compared on their own.
"""

import random

WORKLOADS = ("mod49", "families", "exact_requests")

THEOREMS = ("T1_mod5", "T2_mod25", "T3_mod7", "regression")


def spec_string(spec: tuple[tuple[int, int], ...]) -> str:
    return ",".join(f"{d}:{r}" for d, r in spec)


# Certify sweep over the residues t of the m=49 and m=125 instances of
# etacert.KNOWN_INSTANCES (worker.SWEEP).  Residues t whose instance verifies
# (the congruence families); every other t gives a counterexample.  Each families round certifies the given number of
# distinct t of each kind per modulus, so rounds cost the same for any seed.
VERIFIED_T = {49: (19, 33, 40, 47), 125: (99,)}
SWEEP_PER_ROUND = {49: (2, 6), 125: (1, 2)}


# Negative controls, each run once a families round; worker.CONTROLS gives
# each one's command line and expected exit code.
CONTROLS = ("perturbed_residue", "hypothesis_violation", "strict", "order_cap", "malformed_r")

# exact_requests: per order and round, one expand and one dissect request
# for each f1 exponent (its sign decides a request's cost, through the size
# of the coefficients; the seed picks the rest), and one theta_series /
# jtp_product pair.  The top order has the costly f1**-3 requests twice, so
# that the 90th latency percentile falls inside that group of four.
EXACT_LEVELS = ((300, (4, -3)), (700, (4, -3)), (1500, (4, -3)), (2500, (4, -3, -3)))
SPEC_LEVELS = (2, 3, 4, 5, 6, 7, 8, 10, 12, 14)


def random_spec(rng: random.Random, f1_exponent: int) -> tuple[tuple[int, int], ...]:
    """f1**f1_exponent times a positive power of one more eta factor of a random level.

    The extra factor has small coefficients, so it changes the cost of the
    request little; the f1 exponent decides it.
    """
    level = rng.choice(SPEC_LEVELS)
    delta = rng.choice([d for d in range(2, level + 1) if level % d == 0])
    return ((1, f1_exponent), (delta, rng.randint(1, 2)))


def jitter(rng: random.Random, order: int) -> int:
    return order + rng.randrange(order // 50 + 1)


def mod49_round(rng: random.Random) -> list[tuple]:
    return [("theorem", "T4_mod49")]


def families_round(rng: random.Random) -> list[tuple]:
    ops: list[tuple] = [("theorem", tid) for tid in THEOREMS]
    for _ in range(2):
        ops.append(("mod5_member", 2 * rng.randint(1, 20) + 1))
    for _ in range(2):
        ops.append(("lift", 24 + 49 * rng.randint(1, 20), rng.choice((19, 33, 40, 47))))
    for m, (verified, counterexamples) in SWEEP_PER_ROUND.items():
        others = [t for t in range(m) if t not in VERIFIED_T[m]]
        for t in rng.sample(VERIFIED_T[m], verified) + rng.sample(others, counterexamples):
            ops.append(("certify", m, t))
            ops.append(("replay", m, t))
    ops.extend(("control", name) for name in CONTROLS)
    return ops


def exact_requests_round(rng: random.Random) -> list[tuple]:
    ops: list[tuple] = []
    for (order, f1_exponents), fmt in zip(EXACT_LEVELS, ("text", "json", "text", "json")):
        for e1 in f1_exponents:
            ops.append(("expand", random_spec(rng, e1), jitter(rng, order), fmt))
            ops.append(("dissect", random_spec(rng, e1), rng.randint(2, 7), jitter(rng, order)))
        # the theta pair f(q^alpha, q^beta) with {alpha, beta} = {2, 4}: both
        # orientations give the same series at the same cost
        alpha = rng.choice((2, 4))
        theta_order = jitter(rng, order)
        ops.append(("theta_series", alpha, 6 - alpha, theta_order))
        ops.append(("jtp_product", alpha, 6 - alpha, theta_order))
    return ops


ROUNDS = {
    "mod49": mod49_round,
    "families": families_round,
    "exact_requests": exact_requests_round,
}


def make_round(workload: str, seed: int, index: int) -> list[tuple]:
    """Round `index` of `workload` under `seed`; equal arguments give equal rounds."""
    return ROUNDS[workload](random.Random(f"{workload}:{seed}:{index}"))
