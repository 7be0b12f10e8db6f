"""Finite coefficient checks that certify infinite congruence families.

An RSInstance packages a progression modulus m, an eta quotient r over the
divisors of M, an auxiliary quotient r' over the divisors of N and a
congruence modulus u.  When every cusp sum p_min + p_star is nonnegative,
checking c_r(m*n + t') == 0 (mod u) for all t' in the orbit P and all
n <= floor(v) proves the congruence for every n; the derived constants and
the checked residues are emitted as a machine-readable certificate.
"""

import hashlib
import json
import math
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from functools import partial
from math import gcd, isqrt

from .series import EtaQuotientSpec, TruncatedSeries, _integer, _Value, expand_eta_quotient
from .theta import extract_arithmetic_progression

__all__ = [
    "RSInstance",
    "CuspEntry",
    "RSCertificate",
    "InternalAssertionFailure",
    "OrderCapExceeded",
    "DEFAULT_ORDER_CAP",
    "CERTIFICATE_SCHEMA_VERSION",
    "divisors",
    "kappa",
    "compute_p_set",
    "index_gamma0",
    "coset_representatives",
    "p_min",
    "p_star",
    "v_bound",
    "verify_instance",
    "instance_from_dict",
    "revalidate_certificate",
]

DEFAULT_ORDER_CAP = 10**6
CERTIFICATE_SCHEMA_VERSION = 1

STATUS_VERIFIED = "verified"
STATUS_HYPOTHESIS_VIOLATION = "hypothesis_violation"
STATUS_COUNTEREXAMPLE = "counterexample"
STATUS_DELTA_STAR_UNVERIFIED = "delta_star_unverified"


class InternalAssertionFailure(RuntimeError):
    """The orbit P did not have the n * prod (p - 1) / (2p) residues its closed form counts."""


class OrderCapExceeded(RuntimeError):
    """The required expansion order would exceed the configured cap."""


def _check_order(order: int, cap: int = DEFAULT_ORDER_CAP, least: int = 0) -> None:
    """Refuse a non-integer or negative scan order, one above `cap`, or one short of `least`.

    A scan of no coefficients proves nothing, and one past the cap would
    expand for as long as the series work takes, so every entry point checks
    its order here before any series is expanded.
    """
    order = _integer("order", order, 0)
    if order > cap:
        raise OrderCapExceeded(f"order {order} exceeds cap {cap}")
    if order < least:
        raise ValueError(f"no coefficient at exponent {least} is known (order {order})")


def divisors(n: int) -> tuple[int, ...]:
    n = _integer("n", n, 1)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return tuple(small + large[::-1])


class RSInstance(_Value):
    """One verification problem (m, M, N, t, r, r', u)."""

    __slots__ = ("m", "M", "N", "t", "r", "r_prime", "u")

    def __init__(self, m: int, M: int, N: int, t: int, r: EtaQuotientSpec,
                 r_prime: EtaQuotientSpec, u: int):
        m, u = _integer("m", m, 1), _integer("congruence modulus", u, 2)
        M, N, t = map(_integer, ("M", "N", "t"), (M, N, t))
        if not 0 <= t < m:
            raise ValueError(f"t = {t} outside 0..{m - 1}")
        if r.level != M:
            raise ValueError(f"r has level {r.level}, expected M = {M}")
        if r_prime.level != N:
            raise ValueError(f"r' has level {r_prime.level}, expected N = {N}")
        self._bind(m, M, N, t, r, r_prime, u)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "M": self.M,
            "N": self.N,
            "t": self.t,
            "r": {str(d): r for d, r in self.r.exponents},
            "r_prime": {str(d): r for d, r in self.r_prime.exponents},
            "u": self.u,
        }


def _spec_from_dict(level: int, exponents: Mapping) -> EtaQuotientSpec:
    if not isinstance(exponents, Mapping):
        raise TypeError(f"eta exponents must be a mapping, got {type(exponents).__name__}")
    # JSON writes every key as a string; the values keep their own type
    return EtaQuotientSpec(level, {int(d): r for d, r in exponents.items()})


def instance_from_dict(data: Mapping) -> RSInstance:
    """The instance of a certificate's "instance" dict, every value through the integer gate."""
    return RSInstance(
        m=data["m"],
        M=data["M"],
        N=data["N"],
        t=data["t"],
        r=_spec_from_dict(data["M"], data["r"]),
        r_prime=_spec_from_dict(data["N"], data["r_prime"]),
        u=data["u"],
    )


class CuspEntry(_Value):
    """Exact cusp sums at the representative with lower-left entry `delta`."""

    __slots__ = ("delta", "p_min", "p_star")

    def __init__(self, delta: int, p_min: Fraction, p_star: Fraction):
        self._bind(delta, p_min, p_star)


class RSCertificate(_Value):
    """The derived constants and the scan verdict of one instance.

    p_set is the orbit P, sorted; cusp_table has one CuspEntry per coset
    representative; v_exact is the exact Fraction v and v_floor its floor;
    residues_ok holds, per t' in P, whether each scanned coefficient
    vanishes mod u; witness is a dict, or None when nothing failed.
    """

    __slots__ = ("instance", "kappa", "p_set", "t_min", "index", "cusp_table", "v_exact",
                 "v_floor", "checked_upto", "residues_ok", "status", "witness", "delta_star",
                 "series_hash")

    def __init__(self, instance, kappa, p_set, t_min, index, cusp_table, v_exact, v_floor,
                 checked_upto, residues_ok, status, witness, delta_star, series_hash):
        self._bind(instance, kappa, p_set, t_min, index, cusp_table, v_exact, v_floor,
                   checked_upto, residues_ok, status, witness, delta_star, series_hash)

    @property
    def verified(self) -> bool:
        return self.status == STATUS_VERIFIED

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": CERTIFICATE_SCHEMA_VERSION,
            "instance": self.instance.to_json_dict(),
            "kappa": self.kappa,
            "p_set": list(self.p_set),
            "t_min": self.t_min,
            "index": self.index,
            "cusp_table": [
                {
                    "delta": e.delta,
                    "p_min_num": e.p_min.numerator,
                    "p_min_den": e.p_min.denominator,
                    "p_star_num": e.p_star.numerator,
                    "p_star_den": e.p_star.denominator,
                }
                for e in self.cusp_table
            ],
            "v": {
                "num": self.v_exact.numerator,
                "den": self.v_exact.denominator,
                "floor": self.v_floor,
            },
            "checked_upto": self.checked_upto,
            "status": self.status,
            "delta_star": self.delta_star,
            "series_hash": self.series_hash,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def kappa(m: int) -> int:
    """gcd(m^2 - 1, 24)."""
    m = _integer("m", m, 1)
    return gcd(m * m - 1, 24)


def _primes(n: int) -> list[int]:
    """The primes dividing n, in increasing order."""
    return [p for p in divisors(n)[1:] if divisors(p)[1] == p]


def compute_p_set(instance: RSInstance) -> tuple[int, ...]:
    """Orbit of t under t -> t*s + (s-1)/24 * sigma (mod m), s a square unit mod 24m.

    Here sigma = sum(delta r_delta).  Every square unit is 1 mod 24, so
    s = 1 + 24k with k mod m, and the image is t + k*T (mod m) with
    T = 24t + sigma.  It depends only on k mod n, n = m / gcd(T, m), and
    k -> t + k*T is one-to-one there.  The squares mod 24m reduce onto the
    squares mod 24n, and an s = 1 (mod 24) is one of those exactly when
    s is a nonzero quadratic residue mod every prime p >= 5 dividing n
    (Euler's criterion; mod 8 and mod 3, s = 1 is already a square).  So
    P is {t + k*T : 0 <= k < n, k passing that test}, and it has
    n * prod (p - 1) / (2p) elements, which is asserted rather than trusted.
    """
    m, t = instance.m, instance.t
    step = 24 * t + instance.r.weighted_sum()
    n = m // gcd(step, m)
    primes = [p for p in _primes(n) if p > 3]
    out = {(t + k * step) % m for k in range(n)
           if all(pow(1 + 24 * k, (p - 1) // 2, p) == 1 for p in primes)}
    count = n * math.prod(p - 1 for p in primes) // math.prod(2 * p for p in primes)
    if len(out) != count:
        raise InternalAssertionFailure(f"orbit of {t} mod {m} has {len(out)} residues, "
                                       f"expected {count}")
    return tuple(sorted(out))


def index_gamma0(N: int) -> int:
    """Index of the level-N congruence subgroup: N * prod over p | N of (1 + 1/p)."""
    N = _integer("N", N, 1)
    primes = _primes(N)
    return N * math.prod(p + 1 for p in primes) // math.prod(primes)


def coset_representatives(N: int) -> tuple[int, ...]:
    """The lower-left entries delta of the representatives (1 0; delta 1): the divisors of N.

    They stand for every cusp of Gamma0(N): at a cusp a/c, p_min and p_star
    equal their values at 1/c, since the derivation in `p_min` uses only
    gcd(a, c) = 1, and gcd(delta a, c) = gcd(delta, c).
    """
    return divisors(N)


def _cusp_sum(r: EtaQuotientSpec, xs: Iterable[int], y: int, m: int) -> Fraction:
    """min over x in xs of S(r; x, y, m) = (1/24) sum_delta r_delta gcd^2(delta x, y) / (delta m).

    Summed in integers over the common denominator 24 m L, L = lcm of the
    deltas.
    """
    lcm = math.lcm(*(delta for delta, _ in r.exponents))
    weights = [(delta, r_delta * (lcm // delta)) for delta, r_delta in r.exponents]
    num = min(sum(w * gcd(delta * x, y) ** 2 for delta, w in weights) for x in xs)
    return Fraction(num, 24 * m * lcm)


def p_min(instance: RSInstance, c: int) -> Fraction:
    """Cusp sum of r at (1 0; c 1), c >= 1: the min over lambda in 0..m-1 of
    (1/24) sum_delta r_delta gcd^2(delta x, mc) / (delta m), x = 1 + kappa lambda c.

    x = 1 (mod c), so gcd(x, mc) = gcd(x, m).  kappa = gcd(m^2 - 1, 24) is
    prime to m, so x runs over the residues 1 (mod gcd(c, m)) mod m, and
    gcd(x, m) over exactly the divisors d of m prime to c (by CRT, one
    prime power of m at a time).  gcd(delta x, mc) = gcd(delta gcd(x, mc), mc),
    as the exponents of each prime show, and gcd(d, mc) = d, so those
    divisors stand in for x in the cusp sum.
    """
    c, m = _integer("c", c, 1), instance.m
    xs = [d for d in divisors(m) if gcd(d, c) == 1]
    return _cusp_sum(instance.r, xs, m * c, m)


def p_star(instance: RSInstance, c: int) -> Fraction:
    """Cusp sum of r' at (1 0; c 1), c >= 1: (1/24) sum over delta | N of r'_delta gcd^2(delta, c) / delta."""
    return _cusp_sum(instance.r_prime, (1,), _integer("c", c, 1), 1)


def _delta_star_failures(instance: RSInstance) -> list[int]:
    """The numbers of the conditions for membership in Radu's admissible set
    Delta* that the instance fails, in increasing order; [] when it passes all six.

    With kappa = gcd(m^2 - 1, 24), sigma = sum delta r_delta and
    prod delta^|r_delta| = 2^s j, j odd, over the delta with r_delta != 0:
      1. every prime dividing m divides N;
      2. delta | mN for every such delta;
      3. kappa N sum r_delta mN / delta == 0 (mod 24);
      4. kappa N sum r_delta == 0 (mod 8);
      5. 24m / gcd(kappa (24t + sigma), 24m) divides N;
      6. if 2 | m: 4 | kappa N and 8 | sN, or 2 | s and 8 | (1 - j) N.
    Recalled from Radu (Ramanujan J. 20, 2009) and Smoot (J. Symbolic
    Comput. 104, 2021); not yet checked against the source text.
    """
    m, N, t = instance.m, instance.N, instance.t
    k = kappa(m)
    r = dict(instance.r.exponents)  # EtaQuotientSpec keeps no zero exponent
    product = math.prod(delta ** abs(e) for delta, e in r.items())
    s = (product & -product).bit_length() - 1
    j = product >> s
    holds = [
        all(N % p == 0 for p in _primes(m)),
        all(m * N % delta == 0 for delta in r),
        k * N * sum(e * m * N // delta for delta, e in r.items()) % 24 == 0,
        k * N * sum(r.values()) % 8 == 0,
        N % (24 * m // gcd(k * (24 * t + instance.r.weighted_sum()), 24 * m)) == 0,
        m % 2 == 1 or (k * N % 4 == 0 and s * N % 8 == 0) or (s % 2 == 0 and (1 - j) * N % 8 == 0),
    ]
    return [number for number, ok in enumerate(holds, 1) if not ok]


def _v_exact(instance: RSInstance, t_min: int) -> Fraction:
    idx = index_gamma0(instance.N)
    head = (instance.r.exponent_sum() + instance.r_prime.exponent_sum()) * idx
    return (
        Fraction(head - instance.r_prime.weighted_sum(), 24)
        - Fraction(instance.r.weighted_sum(), 24 * instance.m)
        - Fraction(t_min, instance.m)
    )


def v_bound(instance: RSInstance) -> tuple[Fraction, int]:
    """Exact rational check bound v and its floor; floor is taken only here."""
    t_min = min(compute_p_set(instance))
    v = _v_exact(instance, t_min)
    return v, math.floor(v)


def _first_nonzero(values: tuple[int, ...], m: int, t: int) -> dict | None:
    """The first nonzero values[n], read as the coefficient at m n + t, as a witness."""
    n = next((n for n, value in enumerate(values) if value), None)
    return None if n is None else {"n": n, "exponent": m * n + t, "value": values[n]}


def _progression_witness(reduced: TruncatedSeries, m: int, t: int) -> dict | None:
    """The first nonzero reduced(m n + t) as a witness, or None if all vanish.

    Raises ValueError when `reduced` stops before exponent t: a scan of no
    coefficients proves nothing and must not pass.
    """
    return _first_nonzero(extract_arithmetic_progression(reduced, m, t).coeffs, m, t)


def _series_hash(
    instance: RSInstance, p_set: tuple[int, ...], checked_upto: int, residues: dict[int, tuple]
) -> str:
    block = {
        "m": instance.m,
        "u": instance.u,
        "p_set": list(p_set),
        "checked_upto": checked_upto,
        "residues": {str(t): [str(v) for v in vals] for t, vals in residues.items()},
    }
    payload = json.dumps(block, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def verify_instance(
    instance: RSInstance,
    *,
    assume_delta_star: bool = True,
    check_upto: int | None = None,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> RSCertificate:
    """Run the full finite check for one instance and assemble its certificate.

    Expands f_r mod u (in (Z/u)[[q]], which gives the same residues as an
    exact expansion reduced afterwards) to order m*checked_upto + max(P) and
    scans every progression in the orbit.  The certificate status is
    "verified" only when the cusp-sum hypothesis holds, every scanned residue
    vanishes, and the tuple passes the six conditions for membership in the
    admissible set Delta* that `_delta_star_failures` checks.  A counterexample
    wins over them; a tuple that scans clean but fails a condition is a
    "hypothesis_violation" whose witness lists the failed conditions, as in
    {"delta_star_conditions": [1, 3]}.  With assume_delta_star=False the
    conditions are not consulted, and a clean scan stays
    "delta_star_unverified".

    checked_upto defaults to floor(v), raised to 0 when floor(v) < 0 so that
    n = 0 is always scanned (v itself stays exact).  It may exceed floor(v)
    for empirical over-checking; it may neither undercut it nor be negative,
    and a non-integer check_upto is refused by its name before any other
    check.  Before P and the cusp table are built, f = max(floor(v) at t, 0) (at most
    the default, as t_min <= t) refuses a check_upto below f, then an order
    bound m * (check_upto or f) + t above order_cap, and then an m above
    order_cap, since building P takes m / gcd(24t + sigma, m) steps.  The
    exact checks follow once P is known, so a check_upto in f..floor(v) - 1
    whose order bound exceeds the cap is refused by the cap, not as an
    undercut.

    P is built from its closed form (`compute_p_set`), and each cusp minimum
    from the divisors of m prime to the cusp's c (`p_min`).
    """
    return _verify_instance(
        instance, partial(expand_eta_quotient, instance.r, modulus=instance.u),
        assume_delta_star=assume_delta_star, check_upto=check_upto, order_cap=order_cap,
    )


def _verify_instance(
    instance: RSInstance,
    expand: Callable[[int], TruncatedSeries],
    *,
    assume_delta_star: bool = True,
    check_upto: int | None = None,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> RSCertificate:
    """`verify_instance`, reading f_r mod u to a given order from `expand(order)`.

    `expand` must return the least nonnegative residues mod u of f_r to
    exactly that order; a family pipeline passes the truncation of a series
    it already holds.  It is called at most once, after every refusal: the
    early lower bound, the bound on m and the two undercut checks keep their
    own messages, and the exact order m * checked_upto + max(P) goes through
    `_check_order`.
    Each progression t' in P is read off the expansion once; its values give
    the series hash, the residues_ok flags and the first witness.
    """
    if check_upto is not None:
        check_upto = _integer("check_upto", check_upto, 0)
    least_upto = max(math.floor(_v_exact(instance, instance.t)), 0)
    if check_upto is not None and check_upto < least_upto:
        raise ValueError(f"check_upto = {check_upto} undercuts the bound floor(v) >= {least_upto}")
    # max(P) >= t and checked_upto >= c, so this never exceeds the required order
    least_order = instance.m * (least_upto if check_upto is None else check_upto) + instance.t
    if least_order > order_cap:
        raise OrderCapExceeded(f"required order at least {least_order} exceeds cap {order_cap}")
    # only P still grows with m, as m / gcd(24t + sigma, m), even where
    # least_upto = 0 keeps the order bound small
    if instance.m > order_cap:
        raise OrderCapExceeded(f"m = {instance.m} exceeds cap {order_cap}")
    kap = kappa(instance.m)
    p_set = compute_p_set(instance)
    t_min = min(p_set)
    idx = index_gamma0(instance.N)
    cusp_table = tuple(
        CuspEntry(c, p_min(instance, c), p_star(instance, c))
        for c in coset_representatives(instance.N)
    )
    violation = next((e for e in cusp_table if e.p_min + e.p_star < 0), None)
    v = _v_exact(instance, t_min)
    v_floor = math.floor(v)
    checked_upto = max(v_floor, 0) if check_upto is None else check_upto
    if checked_upto < v_floor:
        raise ValueError(f"check_upto = {check_upto} undercuts the bound floor(v) = {v_floor}")

    required_order = instance.m * checked_upto + max(p_set)
    _check_order(required_order, order_cap)

    delta_star = "assumed" if assume_delta_star else "unverified"
    residues: dict[int, tuple[int, ...]] = {}

    if violation is not None:
        status = STATUS_HYPOTHESIS_VIOLATION
        witness = {
            "delta": violation.delta,
            "p_min": f"{violation.p_min}",
            "p_star": f"{violation.p_star}",
        }
    else:
        reduced = expand(required_order)
        # n = 0..checked_upto: required_order covers exactly these for every t' in P
        residues = {t: extract_arithmetic_progression(reduced, instance.m, t).coeffs for t in p_set}
        found = ((t, _first_nonzero(vals, instance.m, t)) for t, vals in residues.items())
        witness = next((dict(w, t_prime=t) for t, w in found if w), None)
        if witness is not None:
            status = STATUS_COUNTEREXAMPLE
        elif not assume_delta_star:
            status = STATUS_DELTA_STAR_UNVERIFIED
        elif failures := _delta_star_failures(instance):
            status = STATUS_HYPOTHESIS_VIOLATION
            witness = {"delta_star_conditions": failures}
        else:
            status = STATUS_VERIFIED

    return RSCertificate(
        instance=instance,
        kappa=kap,
        p_set=p_set,
        t_min=t_min,
        index=idx,
        cusp_table=cusp_table,
        v_exact=v,
        v_floor=v_floor,
        checked_upto=checked_upto,
        residues_ok=tuple((t, tuple(val == 0 for val in vals)) for t, vals in residues.items()),
        status=status,
        witness=witness,
        delta_star=delta_star,
        series_hash=_series_hash(instance, p_set, checked_upto, residues),
    )


def revalidate_certificate(data: Mapping) -> bool:
    """Replay a certificate dict against a fresh expansion; True iff it reproduces.

    The fresh certificate's canonical (sorted, single-line) JSON text must equal
    that of `data`, so a field rewritten as an equal value of another type,
    such as 49.0 for 49, does not reproduce.  A malformed or inconsistent
    dict, or one that does not serialize, gives False.  A certificate whose
    order bound m * checked_upto + t exceeds DEFAULT_ORDER_CAP is not
    replayed: it raises OrderCapExceeded instead of returning a verdict.
    """
    if not isinstance(data, Mapping) or data.get("schema_version") != CERTIFICATE_SCHEMA_VERSION:
        return False
    try:
        text = json.dumps(dict(data), sort_keys=True)
        instance = instance_from_dict(data["instance"])
        fresh = verify_instance(
            instance,
            assume_delta_star=data.get("delta_star") == "assumed",
            check_upto=data["checked_upto"],
        )
    except (KeyError, TypeError, ValueError):
        # malformed, unserializable or internally inconsistent input cannot
        # reproduce anything
        return False
    return json.dumps(fresh.to_json_dict(), sort_keys=True) == text
