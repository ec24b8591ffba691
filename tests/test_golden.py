"""Golden CLI outputs and demo runs: refactors must not change what users see.

Core claims:
    - each subcommand below prints exactly the bytes stored in tests/golden/
    - ``verify all --json`` on D4 (mass cap 3) and E6 (mass caps 1 and 4),
      alternating, prints output with the SHA-256 digests pinned below (the
      outputs are 141 KB and 361 KB, so only their digests are kept)
    - every script under demos/ runs to completion with exit code 0

To refresh a golden file after an intended output change, run the case's argv
through ``cyclotome`` and overwrite ``tests/golden/<name>.txt``; to refresh a
digest, pipe the same argv's output through ``sha256sum``.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from cyclotome.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parent.parent / "demos"

CASES = {
    "verify_all_a3_alternating_json": [
        "verify", "all", "--type", "A3", "--orientation", "alternating", "--json",
    ],
    "describe_d4_json": ["describe", "--type", "D4", "--json"],
    "enumerate_a3": [
        "enumerate", "--type", "A3",
        "--w", "sigma(S1)=1,sigma(S2)=1,sigma(SigmaS2)=1,sigma(SigmaS3)=1",
    ],
    "enumerate_a3_json_verify": [
        "enumerate", "--type", "A3", "--w", "sigma(S1)=1,sigma(S2)=1,sigma(S3)=1",
        "--json", "--verify",
    ],
    "lift_a3": ["lift", "--type", "A3", "--wtilde", "sigma(P1)=1,sigma(P2)=2,sigma(S3)=1"],
    "forms_a2": [
        "forms", "--type", "A2",
        "--pair", "v=0;w=sigma(S1)=1",
        "--pair", "v=S1=1,P2=1;w=sigma(S1)=1,sigma(SigmaS1)=1",
    ],
    "serre_dims_a3_json": ["serre-dims", "--type", "A3", "--maxdeg", "4", "--json"],
    "ar_quiver_e6_dot": ["ar-quiver", "--type", "E6", "--dot"],
    "rep_space_d4": ["rep-space", "--type", "D4"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name, capsys):
    code = main(list(CASES[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


DIGESTS = {
    ("D4", "3"): "8e194bc0f8d70b5efcf29d8b39329b13ad1df324fb36c40309ca3e642422cd31",
    ("E6", "1"): "e72af0231a239ddbfb265fdc20f31bfd86cbce200c0a8970407f1a0f16dda922",
    ("E6", "4"): "826e376045e1804f477b871e9d0335d3eb3650f8bca3015c11fa1c75ed67e2b9",
}


@pytest.mark.parametrize("dynkin_type,mass_cap", sorted(DIGESTS))
def test_verify_all_json_digest(dynkin_type, mass_cap, capsys):
    code = main([
        "verify", "all", "--type", dynkin_type, "--orientation", "alternating",
        "--json", "--mass-cap", mass_cap,
    ])
    out = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == DIGESTS[dynkin_type, mass_cap]


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_exits_zero(demo):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
