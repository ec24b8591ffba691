"""The cyclotome benchmark.  See README.md in this directory.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

With a workload name it runs that workload for about S seconds: a few
set-up-only interpreters (to sample set-up time), then measured passes, each
in a fresh interpreter started by ``worker.py``, one at a time, until another
pass would overrun S (at least one pass).  It prints every metric by name and
unit, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  The exit code is 0
when every case passed its correctness check and 1 otherwise.

``--workload all`` runs every workload untraced and then traced, prints the
end-to-end table with the tracing overhead, and writes
``bench/out/summary.json`` with the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import tracer
from workloads import child_env

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("relations", "enumerate", "session", "serre_rank")
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("case_p50_ms", "ms"),
    ("case_p90_ms", "ms"),
)
SETUP_PROBES = 3
RUN_DEADLINE_S = 170  # every run must end within 180 s
MAX_PASSES = 50


def percentile(values, p: float) -> float:
    """The p-th percentile, interpolating linearly between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the p-th percentile."""
    return n - math.ceil(n * p / 100)


def run_metadata(seed: int) -> dict:
    sha = "unknown"
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        parts = git.stdout.split()
        if git.returncode == 0 and len(parts) == 2 and os.path.samefile(parts[0], ROOT):
            sha = parts[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    src_lines = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "src_lines": src_lines,
    }


class WorkerFailed(RuntimeError):
    pass


def _spawn(workload, seed, trace, timeout, setup_only=False) -> dict:
    """Start one worker, wait for it (killing its process group on timeout)."""
    cmd = [sys.executable, "-S", os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out-dir", OUT_DIR]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"{workload} worker ran past the {RUN_DEADLINE_S} s deadline")
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}: "
                           f"{err.decode().strip()[-2000:]}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Set-up probes, then measured passes for about ``seconds``; aggregated."""
    start = time.monotonic()

    def remaining():
        return RUN_DEADLINE_S - (time.monotonic() - start)

    setups, passes, errors = [], [], []
    try:
        for _ in range(SETUP_PROBES):
            setups.append(_spawn(workload, seed, trace, remaining(), setup_only=True)["setup_s"])
        while len(passes) < MAX_PASSES:
            t0 = time.monotonic()
            passes.append(_spawn(workload, seed, trace, remaining()))
            setups.append(passes[-1]["setup_s"])
            took = time.monotonic() - t0
            if time.monotonic() - start + took > seconds:
                break
    except WorkerFailed as exc:
        errors.append(str(exc))

    attempted = sum(p["attempted"] for p in passes) + len(errors)
    failed = sum(p["failed"] for p in passes) + len(errors)
    result = {
        "workload": workload,
        "trace": trace,
        "meta": run_metadata(seed),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "failures": errors + [f for p in passes for f in p["failures"]][:20],
        "run_s": time.monotonic() - start,
    }
    if not passes:
        result["metrics"] = {}
        return result

    result["cases_per_pass"] = passes[0]["attempted"]
    result["weight_mass"] = passes[0]["weight_mass"]
    result["case_samples_beyond_p90"] = samples_beyond(len(passes[0]["case_ms"]), 90)
    if trace:
        units = {f"{layer}.{stat}": unit for layer, stat, unit, _ in tracer.PER_LAYER}
        layers = [p["layers"] for p in passes]
        result["counts_repeat"] = all(
            p[k] == layers[0][k] for p in layers for k in units if units[k] != "s")
        values = {
            k: statistics.median(p[k] for p in layers) if units[k] == "s" else layers[0][k]
            for k in units
        }
    else:
        units = dict(END_TO_END)
        values = {
            "wall_s": statistics.median(p["pass_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
            # Per pass, then the median: pooling would shift a percentile
            # with the number of passes, which depends on machine speed.
            "case_p50_ms": statistics.median(percentile(p["case_ms"], 50) for p in passes),
            "case_p90_ms": statistics.median(percentile(p["case_ms"], 90) for p in passes),
        }
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result["pass_s"] = [p["pass_s"] for p in passes]
    result["setup_samples_s"] = setups
    return result


def _print_result(result: dict) -> None:
    w = result["workload"]
    print(f"# {w} (trace {result['trace']}): {result['passes']} passes, "
          f"{result['attempted']} cases, {result['failed']} failed, "
          f"fail_ratio {result['fail_ratio']:.4g}, {result['run_s']:.1f} s")
    if "cases_per_pass" in result:
        print(f"#   inputs from seed {result['meta']['seed']}: {result['cases_per_pass']} cases "
              f"per pass, total weight mass {result['weight_mass']}; "
              f"{result['case_samples_beyond_p90']} latency samples per pass beyond p90")
    for name, m in result["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"#   FAILED {failure}")
    print(f"# meta {json.dumps(result['meta'], sort_keys=True)}")


def _prepare() -> bool:
    if not os.path.isfile(os.path.join(SRC, "cyclotome", "__init__.py")):
        print(f"bench: no cyclotome sources under {SRC}; run from a checkout", file=sys.stderr)
        return False
    os.makedirs(OUT_DIR, exist_ok=True)
    # Byte-compile the library first, as an installed package is, so that no
    # timed interpreter pays for compiling it.
    subprocess.run([sys.executable, "-S", "-m", "compileall", "-q", SRC],
                   env=child_env(), check=True, stdout=subprocess.DEVNULL, timeout=120)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _prepare():
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        with open(os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json"), "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        _print_result(result)
        correct = result["failed"] == 0 and bool(result["metrics"])
        print(json.dumps({"correct": correct, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": result["metrics"]}))
        return 0 if correct else 1

    summary = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            result = run_workload(workload, args.seed, args.seconds, trace)
            _print_result(result)
            summary[f"{workload}-trace{trace}"] = result
    print(f"\n{'workload':<11} {'metric':<12} {'value':>12} unit")
    ok = True
    for workload in WORKLOAD_NAMES:
        plain, traced = summary[f"{workload}-trace0"], summary[f"{workload}-trace1"]
        ok = ok and plain["failed"] == 0 and traced["failed"] == 0
        for name, m in plain["metrics"].items():
            print(f"{workload:<11} {name:<12} {m['value']:>12.6g} {m['unit']}")
        print(f"{workload:<11} {'fail_ratio':<12} {plain['fail_ratio']:>12.6g} -")
        if plain["metrics"] and traced["metrics"]:
            overhead = traced["metrics"]["trace.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
            summary[f"{workload}-trace1"]["trace_overhead_s"] = overhead
            print(f"{workload:<11} {'trace_overhead_s':<12} {overhead:>12.6g} s")
    with open(os.path.join(OUT_DIR, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"per-layer numbers: {os.path.relpath(os.path.join(OUT_DIR, 'summary.json'), ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
