"""Output bytes pinned: sha256 of every ProofReport and known certificate.

The digests are of the exact bytes `etacert verify-theorem` and
`etacert certify` write, so any change to a step, a witness, a residue or
the JSON layout shows up here.  Each test runs `cli.main` in-process (the
`run_cli` fixture) with `--output` and hashes the file it writes.  CI runs
this module under two fixed hash seeds, PYTHONHASHSEED=0 and 1, so the
bytes cannot depend on set or dict iteration order.  Regenerate the
digests only for a change that is meant to alter those bytes.
"""

import hashlib

import pytest

from etacert import KNOWN_INSTANCES, pipelines

REPORT_SHA256 = {
    "T1_mod5": "5c06e0ee88c6675a40473f5114490306d51a2d8f28598f6a25dd3c00b5519788",
    "T2_mod25": "1f8c2633ece9d2af75af988119bb98e9c69a033839ecc4609f2ad6ac7959b04e",
    "T3_mod7": "58ffe3dd4d46a089fb7d47d148d28351ecb3e2f605ed6d0190162466a41f143e",
    "T4_mod49": "a281c31216fe13c1c3c75b6c626286d26c074d8d4960c0f015c6e1b8581ebd5c",
    "regression": "d2a9b26d26aa24062cc9baef49a07db0128c26ac78ed8c1e77b29e12a66dfa2d",
}

# a known instance, then any further `certify` arguments
CERTIFICATE_SHA256 = {
    "mod25": "26d2f8d2ae62c046705b9f83e4bb56bab18fbe81b20b4c9616d8c02ad7e67594",
    "mod49": "8e3ea02897dca41496f7b8e0c014d084d05c47abb6af1138125e1a06cc7a23c8",
    "mod7_t33": "ab28e2d8524948fe54afcda2fcd96b5bf07246c1769f124c213fede57fcf8bf8",
    "mod7_t47": "7aa870be5a216bb0863019d4f34dc01f43d253aab7333256197dd63aa8d91a43",
    "mod7_t33 --check-upto 12": "850b2c5b36788f4b253a6d5db3d409d0b98d0c052fea540cce1c271914090893",
}


def _written_sha256(run_cli, argv, path) -> str:
    """sha256 of the file `etacert <argv> --output path` writes, at the default order cap."""
    assert run_cli(*argv, "--output", path) == (0, "", "")
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("theorem_id,output", [
    ("T1_mod5", "t1_report"), ("T2_mod25", "t2_report"), ("T3_mod7", "t3_report"),
    ("T4_mod49", "t4_report"), ("regression", "regression_report"),
])
def test_report_bytes(theorem_id, output, tmp_path, run_cli):
    argv = ["verify-theorem", pipelines._THEOREMS[theorem_id].alias]  # 1, 2, 3, 4, regressions
    digest = _written_sha256(run_cli, argv, tmp_path / f"{output}.json")
    assert digest == REPORT_SHA256[theorem_id]


@pytest.mark.parametrize("key", sorted(CERTIFICATE_SHA256), ids=lambda key: key.replace(" ", ""))
def test_certificate_bytes(key, tmp_path, run_cli):
    name, *extra = key.split()
    instance = KNOWN_INSTANCES[name]
    argv = [
        "certify", "--m", str(instance.m), "--M", str(instance.M), "--N", str(instance.N),
        "--t", str(instance.t), "--r", instance.r.to_spec_string(),
        "--rprime", instance.r_prime.to_spec_string(), "--mod", str(instance.u), *extra,
    ]
    digest = _written_sha256(run_cli, argv, tmp_path / "certificate.json")
    assert digest == CERTIFICATE_SHA256[key]
