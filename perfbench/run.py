#!/usr/bin/env python3
"""The etacert benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/,
nothing is installed.  Workloads and the reason for each are listed in
BENCHMARK.json; perfbench/METRICS.md maps each per-layer metric to the
end-to-end metric and workload it should move.

With --trace 0 the run measures set-up time in a few fresh interpreters,
then runs the workload in one more fresh interpreter (worker.py) and reports
every end-to-end metric.  With --trace 1 the worker installs the tracer and
reports every per-layer metric.  Every output is checked; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`, and the lines before it give the same numbers by name with their
units, the failure ratio, sample counts and provenance.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import ReferenceClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTDIR = ROOT / ".perfbench_out"

SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170
# Set-up as a user pays it: import the package and run one tiny expansion.
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import etacert\n"
    "etacert.expand_eta_quotient(etacert.EtaQuotientSpec(2, {1: -3, 2: 1}), 64)\n"
    "print(time.perf_counter() - start)\n"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("ETA_CERT_ORDER_CAP", None)  # the workloads rely on the default order cap
    return env


def measure_setup(env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_PROBES fresh interpreters: as timed and at reference speed."""
    clock = ReferenceClock()
    timed, reference = [], []
    for _ in range(SETUP_PROBES):
        proc, wall, wall_reference = clock.time(
            subprocess.run, [sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True)
        timed.append(float(proc.stdout.strip().splitlines()[-1]))
        reference.append(timed[-1] * wall_reference / wall)
    return timed, reference


def git_commit() -> str | None:
    """HEAD of a git checkout at ROOT, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "etacert" / "__init__.py").is_file():
        print(f"perfbench: no etacert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    setup, setup_reference = ([], []) if args.trace else measure_setup(env)
    OUTDIR.mkdir(exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--outdir", str(OUTDIR)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    measured = dict(result["metrics"])
    if setup:
        result["raw"]["setup_s"] = statistics.median(setup)
        measured["setup_s"] = statistics.median(setup_reference)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    raw = result["raw"]
    for name, entry in metrics.items():
        note = f"  (as timed: {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<36} {entry['value']:>16.6g} {entry['unit']}{note}")
    if result["speed_factor"] is not None:
        print(f"  speed factor {result['speed_factor']:.4f} (median over the run)")
    elif not args.trace:
        print("  workload times as timed, without calibration")
    print(f"  {'fail_ratio':<36} {failed / attempted:>16.6g} ({failed} of {attempted} operations)")
    for reason in result["failures"]:
        print(f"  FAILED {reason}")
    provenance = {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "samples": {
            "rounds": result["rounds"],
            "operations": attempted,
            "latency": result["latency_samples"],
            "setup": len(setup),
            "calibration": result["calibration_samples"],
        },
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
