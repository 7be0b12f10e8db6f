"""One measured run of one workload, in a fresh interpreter started by run.py.

Runs whole rounds of the workload until their summed operation time reaches
--seconds (at least one round), timing each operation as timed and, except
on the workloads in TIMED_AS_IS, at reference speed (calibrate.py); checks
every output after its round, outside the timed region; and prints one JSON
object as its last line.  With --trace 1 it runs a single round with the
tracer installed and reports the per-layer numbers instead.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from etacert import KNOWN_INSTANCES, cli, finite_check, pipelines, series, theta
from etacert.oracle import naive_eta, naive_invert, naive_mul

import workloads
from calibrate import ReferenceClock
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

# Workloads whose times are reported as timed, without calibration slices or
# series hooks.  The mode is fixed per workload so that every commit is
# measured in the same unit: T4_mod49 is mostly a few multi-second products,
# around which the measured machine speed does not describe the work.
TIMED_AS_IS = ("mod49",)
# Lift order of the seeded k = 24 (mod 49) members: T3_mod7's default order.
LIFT_ORDER = 1517
# Number of leading coefficients compared against the naive oracle.
ORACLE_PREFIX = 96
# Certificates each theorem's ProofReport embeds, in order.
THEOREM_CERTS = {
    "T1_mod5": (),
    "T2_mod25": ("mod25",),
    "T3_mod7": ("mod7_t33", "mod7_t47"),
    "T4_mod49": ("mod49",),
    "regression": (),
}


# Certify-sweep instances by progression modulus m: KNOWN_INSTANCES entries
# with the residue t left free.
SWEEP = {inst.m: inst for inst in (KNOWN_INSTANCES["mod7_t33"], KNOWN_INSTANCES["mod25"])}


def certify_argv(m: int, t: int) -> list[str]:
    inst = SWEEP[m]
    return ["certify", "--m", str(m), "--M", str(inst.M), "--N", str(inst.N), "--t", str(t),
            "--r", workloads.spec_string(inst.r.exponents),
            "--rprime", workloads.spec_string(inst.r_prime.exponents), "--mod", str(inst.u)]


# Negative controls by name (workloads.CONTROLS): (argv, expected exit code).
# Each must fail in its documented way; a certifier that skips a scan or a
# hypothesis check turns one of them into a mismatch.
CONTROLS = {
    "perturbed_residue": (certify_argv(125, 98), 3),
    "hypothesis_violation": (
        ["certify", "--m", "1", "--M", "1", "--N", "1", "--t", "0",
         "--r", "1:-1", "--rprime", "1:0", "--mod", "2"], 2),
    "strict": (certify_argv(49, 47) + ["--strict"], 4),
    "order_cap": (certify_argv(125, 99) + ["--order-cap", "100"], 65),
    "malformed_r": (
        ["certify", "--m", "125", "--M", "10", "--N", "10", "--t", "99",
         "--r", "1:22,3:1", "--rprime", "1:13", "--mod", "25"], 64),
}


def pentagonal(order: int) -> list[tuple[int, int]]:
    """Nonzero terms (exponent, sign) of prod_n (1 - q^n) in 1..order, by Euler's theorem."""
    terms, k = [], 1
    while k * (3 * k - 1) // 2 <= order:
        sign = -1 if k % 2 else 1
        terms.append((k * (3 * k - 1) // 2, sign))
        if k * (3 * k + 1) // 2 <= order:
            terms.append((k * (3 * k + 1) // 2, sign))
        k += 1
    return terms


def independent_expansion(spec: tuple[tuple[int, int], ...], order: int) -> list[int]:
    """Coefficients 0..order of an eta quotient, sharing no code with etacert.

    The first factor (q^d; q^d)^r comes from J. C. P. Miller's power
    recurrence n f(n) = sum_k ((r+1)k - n) g(k) f(n-k) over the sparse
    pentagonal series g; each further factor is applied as |r| sparse
    multiplications or divisions by its pentagonal series.
    """
    (d0, r0), rest = spec[0], spec[1:]
    n0 = order // d0
    f = [1] + [0] * n0
    g = pentagonal(n0)
    for n in range(1, n0 + 1):
        acc = 0
        for k, sign in g:
            if k > n:
                break
            acc += ((r0 + 1) * k - n) * sign * f[n - k]
        f[n] = acc // n
    coeffs = [0] * (order + 1)
    coeffs[::d0] = f
    for delta, r in rest:
        terms = [(delta * k, sign) for k, sign in pentagonal(order // delta)]
        # multiply in place from the top, or divide in place from the bottom
        positions = range(order, 0, -1) if r > 0 else range(1, order + 1)
        for _ in range(abs(r)):
            for i in positions:
                acc = 0
                for e, sign in terms:
                    if e > i:
                        break
                    acc += sign * coeffs[i - e]
                coeffs[i] += acc if r > 0 else -acc
    return coeffs


def sha256(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def report_json(report) -> str:
    """The bytes `etacert verify-theorem` writes for a report."""
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Call etacert.cli.main in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit through SystemExit
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return code, out.getvalue(), err.getvalue()


def cli_argv(op: tuple) -> list[str]:
    kind = op[0]
    if kind == "expand":
        _, spec, order, fmt = op
        return ["expand", "--spec", workloads.spec_string(spec), "--order", str(order),
                "--format", fmt]
    if kind == "dissect":
        _, spec, m, order = op
        return ["dissect", "--spec", workloads.spec_string(spec), "--m", str(m),
                "--order", str(order), "--format", "json"]
    if kind == "control":
        return CONTROLS[op[1]][0]
    raise ValueError(kind)


class Runner:
    """Executes operations; certify writes its certificate under `tmpdir`."""

    def __init__(self, tmpdir: Path):
        self.tmpdir = tmpdir

    def cert_path(self, m: int, t: int) -> Path:
        return self.tmpdir / f"cert-m{m}-t{t}.json"

    def run(self, op: tuple):
        kind = op[0]
        if kind == "theorem":
            return pipelines.run_theorem(op[1])
        if kind == "mod5_member":
            return pipelines.elementary_mod5_proof(j=op[1])
        if kind == "lift":
            _, k, s = op
            return pipelines.lift_congruence((49, s, 7), 49, pipelines.BrokenDiamondSpec(k),
                                             LIFT_ORDER)
        if kind == "certify":
            _, m, t = op
            return run_cli(certify_argv(m, t) + ["--output", str(self.cert_path(m, t))])
        if kind == "replay":
            _, m, t = op
            data = json.loads(self.cert_path(m, t).read_text())
            return finite_check.revalidate_certificate(data)
        if kind in ("expand", "dissect", "control"):
            return run_cli(cli_argv(op))
        if kind in ("theta_series", "jtp_product"):
            _, alpha, beta, order = op
            return getattr(theta, kind)(theta.ThetaSpec(alpha, beta), order)
        raise ValueError(f"unknown operation {kind!r}")


class ExitMismatch(Exception):
    """A CLI call ended with another exit code than expected."""


class Checker:
    """Compares each output with the golden digests or an independent route."""

    def __init__(self, golden: dict, runner: Runner):
        self.golden = golden
        self.runner = runner
        self._oracle: dict[tuple, tuple[int, ...]] = {}
        self._theta: dict[tuple, series.TruncatedSeries] = {}

    def oracle(self, spec: tuple[tuple[int, int], ...], order: int) -> tuple[int, ...]:
        """Coefficients 0..order of an eta quotient from the naive reference code."""
        key = (spec, order)
        if key not in self._oracle:
            result = series.TruncatedSeries.one(order)
            for delta, r in spec:
                factor = naive_eta(delta, order)
                if r < 0:
                    factor = naive_invert(factor)
                for _ in range(abs(r)):
                    result = naive_mul(result, factor)
            self._oracle[key] = result.coeffs
        return self._oracle[key]

    def check_witness(self, m: int, witness: dict) -> None:
        """Recompute a counterexample witness from the oracle: nonzero and equal mod u."""
        spec, u = SWEEP[m].r.exponents, SWEEP[m].u
        exponent, value = witness["exponent"], witness["value"]
        expected = self.oracle(spec, max(exponent, m - 1))[exponent] % u
        if value % u == 0 or value != expected:
            raise AssertionError(f"witness {witness} but oracle gives {expected} mod {u}")

    def check(self, op: tuple, outcome) -> None:
        """Raise on any difference from the expected output."""
        getattr(self, "check_" + op[0])(op, outcome)

    def check_theorem(self, op, report):
        tid = op[1]
        if not report.overall:
            raise AssertionError(f"{tid} failed")
        if sha256(report_json(report)) != self.golden["reports"][tid]:
            raise AssertionError(f"{tid} report differs from golden digest")
        keys = THEOREM_CERTS[tid]
        if len(report.certificates) != len(keys):
            raise AssertionError(f"{tid} embeds {len(report.certificates)} certificates")
        for key, cert in zip(keys, report.certificates):
            if sha256(cert.to_json()) != self.golden["certificates"][key]:
                raise AssertionError(f"certificate {key} differs from golden digest")

    def check_mod5_member(self, op, report):
        suffix = f"_j{op[1]}"
        if not report.overall or len(report.steps) != 5:
            raise AssertionError(f"mod-5 proof for j={op[1]} failed")
        if not all(s.name.endswith(suffix) for s in report.steps):
            raise AssertionError(f"step names lack {suffix}")

    def check_lift(self, op, step):
        _, k, s = op
        if not step.passed or step.name != f"lift_k{k}_m49_t{s}_mod7":
            raise AssertionError(f"lift {step.name} {step.status}")

    def check_certify(self, op, outcome):
        _, m, t = op
        code, out, err = outcome
        expected_code, digest = self.golden["sweep"][str(m)][str(t)]
        if code != expected_code:
            raise ExitMismatch(f"certify m={m} t={t} exit {code}, expected {expected_code}")
        text = self.runner.cert_path(m, t).read_bytes()
        if out or sha256(text) != digest:
            raise AssertionError(f"certificate m={m} t={t} differs from golden digest")
        if code == 3:
            self.check_witness(m, json.loads(text)["witness"])

    def check_replay(self, op, accepted):
        if accepted is not True:
            raise AssertionError(f"replay of m={op[1]} t={op[2]} rejected")

    def check_control(self, op, outcome):
        name = op[1]
        expected_code = CONTROLS[name][1]
        code, out, err = outcome
        if code != expected_code:
            raise ExitMismatch(f"control {name} exit {code}, expected {expected_code}")
        if expected_code in (64, 65):
            if out or not err.startswith("etacert:"):
                raise AssertionError(f"control {name} printed {out!r} / {err!r}")
            return
        data = json.loads(out)
        status = {2: "hypothesis_violation", 3: "counterexample",
                  4: "delta_star_unverified"}[expected_code]
        if data["status"] != status:
            raise AssertionError(f"control {name} status {data['status']}")
        if expected_code == 3:
            self.check_witness(data["instance"]["m"], data["witness"])
        elif expected_code == 2:
            w = data["witness"]
            if Fraction(w["p_min"]) + Fraction(w["p_star"]) >= 0:
                raise AssertionError(f"control {name} witness {w} is no violation")

    def check_expand(self, op, outcome):
        _, spec, order, fmt = op
        code, out, err = outcome
        if code != 0:
            raise ExitMismatch(f"expand exit {code}: {err.strip()}")
        if fmt == "json":
            data = json.loads(out)
            if (data["spec"], data["order"], data["modulus"]) != (
                    workloads.spec_string(spec), order, None):
                raise AssertionError("expand json header differs")
            coeffs = [int(c) for c in data["coeffs"]]
        else:
            coeffs = [int(c) for c in out.split(",")]
        if len(coeffs) != order + 1:
            raise AssertionError(f"expand gave {len(coeffs)} coefficients for order {order}")
        if tuple(coeffs[:ORACLE_PREFIX]) != self.oracle(spec, ORACLE_PREFIX - 1):
            raise AssertionError(f"expand {spec} differs from the oracle prefix")
        if coeffs != independent_expansion(spec, order):
            raise AssertionError(f"expand {spec} differs from the independent expansion")

    def check_dissect(self, op, outcome):
        _, spec, m, order = op
        code, out, err = outcome
        if code != 0:
            raise ExitMismatch(f"dissect exit {code}: {err.strip()}")
        data = json.loads(out)
        classes = data["classes"]
        if (data["m"], data["order"], data["modulus"], len(classes)) != (m, order, None, m):
            raise AssertionError("dissect json header differs")
        prefix = self.oracle(spec, ORACLE_PREFIX - 1)
        coeffs = independent_expansion(spec, order)
        if tuple(coeffs[:ORACLE_PREFIX]) != prefix:
            raise AssertionError(f"independent expansion of {spec} differs from the oracle")
        for i, entry in enumerate(classes):
            support = [n for n in range(i, order + 1, m) if coeffs[n]]
            expected = {"residue": i, "nonzero_terms": len(support),
                        "first_exponent": support[0] if support else None}
            if entry != expected:
                raise AssertionError(f"dissect {spec} class {i}: {entry}, expected {expected}")

    def check_theta_series(self, op, result):
        _, alpha, beta, order = op
        if result.order != order:
            raise AssertionError("theta_series order differs")
        self._theta[(alpha, beta, order)] = result

    def check_jtp_product(self, op, result):
        if self._theta.pop(op[1:], None) != result:
            raise AssertionError(f"jtp_product {op[1:]} differs from theta_series")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the sample at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_round(ops: list[tuple], runner: Runner, tracer: Tracer | None = None,
              clock: ReferenceClock | None = None):
    """Execute a round; return (op, outcome, seconds, reference seconds) per operation.

    With a clock, calibration slices run before the round and along each
    operation, outside its timing, and give its time at reference speed;
    without one, the reference seconds are the seconds as timed.
    """
    if clock is not None:
        clock.refresh()
    results = []
    for op in ops:
        start = time.perf_counter()
        if clock is not None:
            clock.start()
        try:
            if tracer is None:
                outcome = runner.run(op)
            else:
                with tracer.span("op." + op[0]):
                    outcome = runner.run(op)
        except Exception as exc:  # a failing operation is counted, the run goes on
            outcome = exc
        if clock is not None:
            results.append((op, outcome, *clock.stop()))
        else:
            seconds = time.perf_counter() - start
            results.append((op, outcome, seconds, seconds))
    return results


def check_round(results, checker: Checker, failures: list[str]) -> int:
    """Check every outcome; append failure reasons; return the exit-code mismatches."""
    mismatches = 0
    for op, outcome, _, _ in results:
        try:
            if isinstance(outcome, Exception):
                raise outcome
            checker.check(op, outcome)
        except ExitMismatch as exc:
            mismatches += 1
            failures.append(str(exc))
        except Exception as exc:
            failures.append(f"{op[0]}: {''.join(traceback.format_exception_only(exc)).strip()}")
    return mismatches


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--outdir", required=True, type=Path)
    args = parser.parse_args()

    golden = json.loads(GOLDEN.read_text())
    tmpdir = args.outdir / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True)
    runner = Runner(tmpdir)
    checker = Checker(golden, runner)
    failures: list[str] = []
    raw, clock = {}, None
    try:
        # warm-up outside the timed region, as setup_s measures it
        series.expand_eta_quotient(series.EtaQuotientSpec(2, {1: -3, 2: 1}), 64)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                results = run_round(workloads.make_round(args.workload, args.seed, 0),
                                    runner, tracer)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer.spans, tracer.overhead_s)
            metrics["cli.exit_mismatch"] = check_round(results, checker, failures)
            spans_file = args.outdir / f"spans-{args.workload}-seed{args.seed}.json"
            spans_file.write_text(json.dumps(tracer.dump()))
            attempted, rounds, latencies = len(results), 1, []
        else:
            if args.workload not in TIMED_AS_IS:
                clock = ReferenceClock()
                clock.install()
            walls, latencies, raw_walls, raw_latencies = [], [], [], []
            while not raw_walls or sum(raw_walls) < args.seconds:
                results = run_round(workloads.make_round(args.workload, args.seed, len(walls)),
                                    runner, None, clock)
                raw_latencies.extend(seconds for _, _, seconds, _ in results)
                latencies.extend(reference for _, _, _, reference in results)
                raw_walls.append(sum(raw_latencies[-len(results):]))
                walls.append(sum(latencies[-len(results):]))
                check_round(results, checker, failures)
                del results
            if clock is not None:
                clock.uninstall()
            attempted, rounds = len(latencies), len(walls)
            metrics, raw = ({
                "wall_s": statistics.median(w),
                "req_p50_ms": 1000 * percentile(lat, 0.5),
                "req_p90_ms": 1000 * percentile(lat, 0.9),
                "req_per_s": len(lat) / sum(w),
            } for w, lat in ((walls, latencies), (raw_walls, raw_latencies)))
            if clock is None:
                raw = {}  # the metrics are as timed
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps({
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "rounds": rounds,
        "latency_samples": len(latencies),
        "metrics": metrics,
        "raw": raw,
        "speed_factor": clock.factor() if clock else None,
        "calibration_samples": len(clock.samples) if clock else 0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
