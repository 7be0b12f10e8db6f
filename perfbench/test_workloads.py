"""The benchmark's own checks: seeded inputs repeat exactly and only for equal seeds.

    python3 -m pytest perfbench/test_workloads.py
"""

import workloads


def stream(workload: str, seed: int, rounds: int = 3) -> list[tuple]:
    return [op for i in range(rounds) for op in workloads.make_round(workload, seed, i)]


def test_same_seed_gives_identical_stream():
    for workload in workloads.WORKLOADS:
        assert stream(workload, 7) == stream(workload, 7)


def test_different_seed_gives_different_stream():
    for workload in ("families", "exact_requests"):
        assert stream(workload, 7) != stream(workload, 8)


def test_rounds_differ_within_a_seed():
    for workload in ("families", "exact_requests"):
        assert workloads.make_round(workload, 7, 0) != workloads.make_round(workload, 7, 1)


def test_round_composition_does_not_depend_on_the_seed():
    for workload in workloads.WORKLOADS:
        kinds = {tuple(op[0] for op in workloads.make_round(workload, seed, 0))
                 for seed in range(20)}
        assert len(kinds) == 1


def test_exact_specs_are_well_formed():
    for op in stream("exact_requests", 3):
        if op[0] in ("expand", "dissect"):
            deltas = [d for d, _ in op[1]]
            assert deltas == sorted(set(deltas)) and deltas[0] == 1
            assert all(r != 0 for _, r in op[1])
