"""Output bytes pinned: sha256 of every ProofReport and known certificate.

The digests are of the exact bytes `etacert verify-theorem` and
`etacert certify` write, so any change to a step, a witness, a residue or
the JSON layout shows up here.  Regenerate them only for a change that is
meant to alter those bytes.
"""

import hashlib
import json

import pytest

from etacert import KNOWN_INSTANCES, verify_instance

REPORT_SHA256 = {
    "T1_mod5": "5c06e0ee88c6675a40473f5114490306d51a2d8f28598f6a25dd3c00b5519788",
    "T2_mod25": "1f8c2633ece9d2af75af988119bb98e9c69a033839ecc4609f2ad6ac7959b04e",
    "T3_mod7": "58ffe3dd4d46a089fb7d47d148d28351ecb3e2f605ed6d0190162466a41f143e",
    "T4_mod49": "a281c31216fe13c1c3c75b6c626286d26c074d8d4960c0f015c6e1b8581ebd5c",
    "regression": "d2a9b26d26aa24062cc9baef49a07db0128c26ac78ed8c1e77b29e12a66dfa2d",
}

CERTIFICATE_SHA256 = {
    "mod25": "26d2f8d2ae62c046705b9f83e4bb56bab18fbe81b20b4c9616d8c02ad7e67594",
    "mod49": "8e3ea02897dca41496f7b8e0c014d084d05c47abb6af1138125e1a06cc7a23c8",
    "mod7_t33": "ab28e2d8524948fe54afcda2fcd96b5bf07246c1769f124c213fede57fcf8bf8",
    "mod7_t47": "7aa870be5a216bb0863019d4f34dc01f43d253aab7333256197dd63aa8d91a43",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "theorem_id,fixture",
    [
        ("T1_mod5", "t1_report"),
        ("T2_mod25", "t2_report"),
        ("T3_mod7", "t3_report"),
        ("T4_mod49", "t4_report"),
        ("regression", "regression_report"),
    ],
)
def test_report_bytes(theorem_id, fixture, request):
    report, _ = request.getfixturevalue(fixture)
    assert report.theorem_id == theorem_id
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert _sha256(text) == REPORT_SHA256[theorem_id]


@pytest.mark.parametrize("key", sorted(KNOWN_INSTANCES))
def test_certificate_bytes(key):
    assert _sha256(verify_instance(KNOWN_INSTANCES[key]).to_json()) == CERTIFICATE_SHA256[key]
