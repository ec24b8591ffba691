"""The benchmark's tracer still finds every function it wraps.

Core claims:
    - installed() from bench/tracer.py resolves each of its targets in the
      package, so renaming or deleting a traced function (serre.pmul, say)
      fails here and not only in a traced benchmark run
    - leaving the block puts the original functions back
    - a verifier that the command line reaches through relations.verify is the
      wrapped one, so its checks are counted
"""

import importlib.util
from pathlib import Path

from cyclotome import build_index, cli, orient, serre, verify

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_installs_and_restores():
    tracer = load_tracer()
    originals = (serre.pmul, serre.bareiss_rank)
    with tracer.installed(tracer.Recorder()) as rec:
        assert serre.pmul is not originals[0]
        serre.serre_quotient_dims(orient("A2", "linear"), 4)
    assert (serre.pmul, serre.bareiss_rank) == originals
    assert tracer.per_name(rec)[0]["serre.bareiss_rank"] == 8
    assert rec.counts["serre.pmul.calls"] > 0
    # the bench counts cells and nonzeros from the dense rows bareiss_rank takes
    assert rec.counts["serre.bareiss_rank.cells"] == 35
    assert rec.counts["serre.bareiss_rank.nonzero"] == 21


def test_tracer_counts_checks_of_the_shared_relation_driver(capsys):
    tracer = load_tracer()
    expected = sum(len(r.checks) for r in verify(build_index(orient("A2")), "ek"))
    with tracer.installed(tracer.Recorder()) as rec:
        assert cli.main(["verify", "ek", "--type", "A2"]) == 0
    capsys.readouterr()
    assert expected > 0
    assert rec.counts.get("relations.verify_ek.checks", 0) == expected
