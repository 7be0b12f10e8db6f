"""The kernel, the exact path and the certifier at sizes no tier-1 test reaches.

Products of a million slots, exact products by a sparse operand with
hundreds of terms, an orbit of 400,000 residues, and soundness corpora of
1000 and 3000 tuples.  Outside tier-1's testpaths; run with
`PYTHONPATH=src python -m pytest -q -s scale/`.  Each check prints its wall
time and what it observed; no time is gated.
"""

import functools
import hashlib
import json
import resource
import subprocess
import sys
import time

import pytest

from corpus import sweep
from etacert import EtaQuotientSpec, b_series, expand_eta_quotient
from etacert.series import _expand, tracing

# b = f2/f1^3 mod 49 to 378,915 and mod 125 to 921,224 (the X1 and X2
# expansions): the pinned digest of b mod u, and the instance's own r mod u
EXTENSION = {
    (378915, 49): (
        "503b26dd0c7b0a7382a7189b04bb9ac5ae9831dd121d18735dc832bdc461e915",
        EtaQuotientSpec(14, {1: 46, 2: 1, 7: -7}),
    ),
    (921224, 125): (
        "252b65ae1b322d878a37667f3c3edba40820f42029fad83c965ed761e7a66a2e",
        EtaQuotientSpec(10, {1: 122, 2: 1, 5: -25}),
    ),
}
ORDER = 20000  # of the exact-path checks


def _digest(series) -> str:
    return hashlib.sha256(",".join(map(str, series.coeffs)).encode()).hexdigest()


@functools.cache
def _b_digest(order: int, u: int) -> str:
    """Digest of b mod u, expanded once per run for both checks that read it.

    Prints the wall time, the expansions and the products by route, and the
    process's peak RSS so far, so that a product route that turns slow,
    changes, or leaves a window-sized temporary at this scale shows.
    """
    start = time.perf_counter()
    with tracing() as counters:
        digest = _digest(b_series(order, modulus=u))
    seconds = time.perf_counter() - start
    expansions = {kind: orders for kind, orders in counters["expand"].items() if orders}
    routes = {route: {ring: len(products) for ring, products in rings.items()}
              for route, rings in counters["product"].items()}
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"\nb_series({order}, {u}): {digest} in {seconds:.2f} s; expansions {expansions}; "
          f"products {routes}; peak RSS {peak_mib:.1f} MiB")
    return digest


@pytest.mark.parametrize("order, u", EXTENSION)
def test_b_digest_is_pinned(order, u):
    assert _b_digest(order, u) == EXTENSION[order, u][0]


@pytest.mark.parametrize("order, u", EXTENSION)
def test_unreduced_r_agrees_with_b(order, u):
    """r mod u with no exponent reduction: f1^(u-3) from powers of the cube and
    the inverted sparse base of f_p, never a division by f1^3.  It is compared
    with b at run time and has no digest of its own, so a kernel route that
    goes wrong only at this scale cannot have been pinned as the truth."""
    start = time.perf_counter()
    digest = _digest(_expand(EXTENSION[order, u][1], order, u, reduce=False))
    print(f"\nr to {order} mod {u}: {digest} in {time.perf_counter() - start:.2f} s")
    assert digest == _b_digest(order, u)


# Exact references to ORDER, written with no etacert code


def eta(delta):
    """(q^delta; q^delta)_inf, by Euler's pentagonal number theorem."""
    out = [0] * (ORDER + 1)
    out[0] = 1
    k = 1
    while delta * k * (3 * k - 1) // 2 <= ORDER:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if delta * e <= ORDER:
                out[delta * e] += -1 if k % 2 else 1
        k += 1
    return out


def power(f, r):
    """f**r for f(0) = 1 by Miller: n b(n) = sum_k ((r + 1) k - n) f(k) b(n - k)."""
    terms = [(k, c) for k, c in enumerate(f) if c and k]
    b = [1] + [0] * ORDER
    for n in range(1, ORDER + 1):
        acc = sum(((r + 1) * k - n) * c * b[n - k] for k, c in terms if k <= n)
        assert acc % n == 0, n
        b[n] = acc // n
    return b


def times(a, f):
    """a * f, term by term over the nonzero f(k)."""
    out = [0] * (ORDER + 1)
    for k, c in enumerate(f):
        if c:
            for n in range(k, ORDER + 1):
                out[n] += c * a[n - k]
    return out


def divided(a, f):
    """a / f for f(0) = 1: out(n) = a(n) - sum_k f(k) out(n - k)."""
    terms = [(k, c) for k, c in enumerate(f) if c and k]
    out = list(a)
    for n in range(ORDER + 1):
        out[n] -= sum(c * out[n - k] for k, c in terms if k <= n)
    return out


@pytest.mark.parametrize("text, reference", [
    ("1:4,3:1", lambda: times(power(eta(1), 4), eta(3))),
    ("1:-3,2:1,7:1,14:-1",
     lambda: divided(times(times(power(eta(1), -3), eta(2)), eta(7)), eta(14))),
])
def test_exact_path_matches_miller(text, reference):
    """Exact f1^4 f3 and Delta_3 = f2 f7 / (f1^3 f14) to order 20,000.  There the
    exact products by a sparse operand have up to 200 terms and 4-byte lanes."""
    start = time.perf_counter()
    with tracing() as counters:
        got = expand_eta_quotient(EtaQuotientSpec.from_string(text), ORDER)
    seconds = time.perf_counter() - start
    start = time.perf_counter()
    want = reference()
    reference_seconds = time.perf_counter() - start
    routes = {route: [entry[2] for entry in counters["product"][route]["exact"]]
              for route in ("packed", "shift_add")}
    print(f"\n{{{text}}} to {ORDER}: etacert {seconds:.2f} s, reference "
          f"{reference_seconds:.2f} s; exact products by K: {routes}")
    assert list(got.coeffs) == want


def test_certify_at_the_order_cap():
    """m = 10^6, the largest m the cap admits: an orbit of 400,000 residues and a
    cusp sum below zero.  A step linear in m beside the orbit shows in the time."""
    argv = ["certify", "--m", "1000000", "--M", "10", "--N", "10", "--t", "5",
            "--r", "1:22,2:1,5:-5", "--rprime", "1:-40", "--mod", "25"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "etacert.cli", *argv],
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    sys.stderr.write(proc.stderr)
    cert = json.loads(proc.stdout) if proc.stdout else {}
    residues = len(cert.get("p_set", ()))
    print(f"\nexit {proc.returncode}, status {cert.get('status')}, {residues} residues "
          f"in p_set, in {seconds:.2f} s")
    assert (proc.returncode, cert.get("status"), residues) == (2, "hypothesis_violation", 400000)


def test_soundness_corpus():
    """ROADMAP item 15, property B, on 3000 seeded tuples that pass Delta*'s six
    conditions (tests/corpus.py): no `verified` one has a nonzero residue up to
    n = 400.  Tier-1 sweeps 300 tuples of another seed."""
    start = time.perf_counter()
    result = sweep(seed=7, size=3000)
    print(f"\nsoundness corpus, seed 7: {result.summary()} in {time.perf_counter() - start:.2f} s")
    assert result.false_verified == []
    assert dict(result.statuses) == {"counterexample": 2492, "verified": 508}


def test_soundness_corpus_unfiltered():
    """ROADMAP item 15, property A, on 1000 seeded tuples certified whatever their
    Delta* conditions: the certifier's own check of them must refuse every false
    congruence whose scan is clean.  Tier-1 sweeps 100 tuples of another seed."""
    start = time.perf_counter()
    result = sweep(seed=3, size=1000, filtered=False)
    print(f"\nunfiltered soundness corpus, seed 3: {result.summary()} in "
          f"{time.perf_counter() - start:.2f} s")
    assert result.false_verified == []
    assert dict(result.statuses) == {
        "counterexample": 916, "hypothesis_violation": 83, "verified": 1}
