"""Golden CLI outputs and demo runs: refactors must not change what users see.

Core claims:
    - each subcommand below prints exactly the bytes stored in tests/golden/
    - ``verify all --json`` on D4 (mass cap 3), E6 (mass caps 1, 4 and 8),
      E7 (mass caps 1 and 6) and E8 (mass cap 1), alternating, prints output with
      the SHA-256 digests pinned below (the outputs run from 142 KB to
      994 KB, so only their digests are kept); the high caps hold the same-n
      pair count N, counted from the modules' root heights, to the bytes of
      the enumerated pool, and E8 holds the pair form d on the largest lifts
    - ``describe --type E8 --orientation alternating --json`` (154 KB) and
      ``ar-quiver --type E7`` print output with the digests pinned below; both
      were taken from the window built by powering the Coxeter matrix, before
      the window was knitted along its meshes, so they hold the two builds to
      the same bytes
    - every script under demos/ runs to completion with exit code 0 under
      ``python -X dev -W error``, so a warning fails it

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
    ("E6", "8"): "f89212a858087111b5d8a4903b9d42c319638c2e133aeb74f8882eec3dce8fd8",
    ("E7", "1"): "4e010ba7afd05302687343c2d13ab894d4ac6949a5259e69450212952562873b",
    ("E7", "6"): "53b048771197eda19e77cd903e9bf4ac277bd9fb980ada18b65443b1e9160a71",
    ("E8", "1"): "16bacc2f76bd860499f08c013beeb546301ec8d4195a3c838094d2b8747e6def",
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


WINDOW_DIGESTS = {
    "describe_e8_alternating_json": (
        ["describe", "--type", "E8", "--orientation", "alternating", "--json"],
        "4b4280ccd569f4db9fd508c6afe7f7115fc5d433e006e3c9b2b068315086f50a",
    ),
    "ar_quiver_e7": (
        ["ar-quiver", "--type", "E7"],
        "4a5afe06e8a71945c70641ca33bdee77943077e9a615b23a1a390bc841c51a02",
    ),
}


@pytest.mark.parametrize("name", sorted(WINDOW_DIGESTS))
def test_window_output_digest(name, capsys):
    argv, expected = WINDOW_DIGESTS[name]
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_exits_zero(demo):
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(DEMOS / demo)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
