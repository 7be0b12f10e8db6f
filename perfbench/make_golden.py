"""Regenerate perfbench/golden.json from the current source tree.

The golden file pins the bytes of every fixed-input output: the ProofReport
JSON of each theorem id, the certificate of each KNOWN_INSTANCES entry, and
the exit code and certificate of `etacert certify` for every residue t of
the two sweep instances.  Regenerate it only for a change that is meant to
alter those bytes.  Takes about two minutes (T4_mod49 dominates):

    PYTHONPATH=src python3 perfbench/make_golden.py
"""

import json
from pathlib import Path

from etacert import KNOWN_INSTANCES, THEOREM_IDS, run_theorem, verify_instance

from worker import GOLDEN, SWEEP, certify_argv, report_json, run_cli, sha256


def main() -> None:
    golden = {
        "reports": {tid: sha256(report_json(run_theorem(tid))) for tid in THEOREM_IDS},
        "certificates": {key: sha256(verify_instance(instance).to_json())
                         for key, instance in KNOWN_INSTANCES.items()},
        "sweep": {},
    }
    for m in SWEEP:
        table = golden["sweep"][str(m)] = {}
        for t in range(m):
            code, out, _ = run_cli(certify_argv(m, t))
            table[str(t)] = [code, sha256(out)]
    Path(GOLDEN).write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
