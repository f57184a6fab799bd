#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. The build goes to .bench_build
with dune's shared cache off, so the run reads and writes only inside the
checkout. The last line of standard output is the result object; the
exit code is non-zero, with no result printed, when the build fails, a
check fails, the run overruns its time limit, or the result does not
hold exactly the metrics BENCHMARK.json lists for the run (its
end_to_end metrics with --trace 0, its per_layer ones with --trace 1),
each in its unit and as a finite number.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("verify_corpus", "big_functions", "serve_mixed")
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
BUILD_TIMEOUT_S = 850
RUN_MARGIN_S = 150


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout, kill the group."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def manifest_errors(metrics, trace):
    """What keeps metrics from matching the manifest's list for the run."""
    with open("BENCHMARK.json") as f:
        want = {m["name"]: m["unit"] for m in json.load(f)["per_layer" if trace else "end_to_end"]}
    errors = [f"missing {n}" for n in want if n not in metrics]
    errors += [f"not in the manifest: {n}" for n in metrics if n not in want]
    for name, m in metrics.items():
        if name in want and m.get("unit") != want[name]:
            errors.append(f"{name}: unit {m.get('unit')}, the manifest says {want[name]}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            errors.append(f"{name}: value {v!r} is not a finite number")
    return errors


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.exists("dune-project") and os.path.exists("BENCHMARK.json")):
        sys.exit("run.py: run from the root of the repository (no dune-project or BENCHMARK.json here)")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = dune + ["build", "--root", ".", "--build-dir", BUILD_DIR,
             "--cache", "disabled", "--display", "quiet", "./perfbench/bench.exe"]
    try:
        code, _ = run_group(build, BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")
    if code != 0:
        sys.exit(f"run.py: build failed with exit code {code}")

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    try:
        code, out = run_group(cmd, args.seconds + RUN_MARGIN_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: the benchmark overran its time limit")
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        sys.exit(f"run.py: the benchmark failed with exit code {code}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.exit("run.py: the result line is not JSON")
    if not isinstance(result, dict) or sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("run.py: malformed result line")
    errors = manifest_errors(result["metrics"], args.trace == 1)
    if errors:
        sys.exit("run.py: the result does not match BENCHMARK.json: " + "; ".join(errors))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
