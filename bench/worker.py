"""One pass of one workload, in a fresh interpreter.

    worker.py --workload NAME --seed N --trace 0|1 --spawned-at T --out-dir DIR [--setup-only]

``run.py`` starts this script once per pass (and a few times with
``--setup-only`` to sample set-up time).  It sets up, runs the measured pass,
checks the outputs, and prints one JSON line on stdout.  ``--spawned-at`` is
the parent's ``time.monotonic()`` just before it started this process; the
clock is system-wide, so set-up time includes interpreter start.
"""

import argparse
import json
import os
import resource
import sys
import time
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = perf_counter()
    import cyclotome.cli  # noqa: F401  (timed: the import every workload pays)
    import_span = (t0, perf_counter())

    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    state = workload.setup(args.seed, args.out_dir)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Recorder()
        if not workload.runs_in_children:
            recorder.add_span(tracer.IMPORT_SPAN, *import_span)
        state["trace"] = True
        with tracer.installed(recorder):
            t1 = perf_counter()
            cases = workload.run(state)
            pass_s = perf_counter() - t1
    else:
        t1 = perf_counter()
        cases = workload.run(state)
        pass_s = perf_counter() - t1
    usage = resource.RUSAGE_CHILDREN if workload.runs_in_children else resource.RUSAGE_SELF
    peak_rss_kb = resource.getrusage(usage).ru_maxrss

    workload.check(state, cases)
    result = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "peak_rss_kb": peak_rss_kb,
        "case_ms": [c.seconds * 1000 for c in cases],
        "attempted": len(cases),
        "weight_mass": state.get("weight_mass", 0),
        "failed": sum(not c.ok for c in cases),
        "failures": [f"{c.label}: {c.why}" for c in cases if not c.ok][:10],
    }
    if recorder is not None:
        if workload.runs_in_children:
            for k in range(len(cases)):
                path = os.path.join(args.out_dir, f"session-child-{k}.spans")
                if os.path.exists(path):
                    recorder.merge_file(path)
                    os.remove(path)
        recorder.write(os.path.join(args.out_dir, f"{args.workload}.spans"))
        result["layers"] = tracer.layer_metrics(recorder, pass_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
