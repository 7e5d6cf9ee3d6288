#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <allnn|serve-point|routed-batch|all>
                             --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the repository root. Builds the two binaries of the benchmark
package (untraced: every library at its default features; traced: kernel
and serve probes on) into $CARGO_TARGET_DIR, default `.bench_build`, then
runs the workload. `--trace 0` prints the end-to-end metrics. `--trace 1`
first runs the untraced build for half the time, then the traced build for
the other half, and prints the per-layer metrics, whose
`trace.overhead_pct` compares the two. The last line printed is the result:
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
WORKLOADS = ["allnn", "serve-point", "routed-batch"]
# one binary run must end well inside the 180 s a benchmark run may take
RUN_TIMEOUT_S = 170


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Build both binaries; separate invocations keep their features apart."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for package in ["perfbench", "perfbench-traced"]:
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST, "-p", package]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"run.py: building {package} failed")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "perfbench-traced")


def run_binary(binary, workload, seed, seconds, trace, smoke, baseline_ms=None):
    """Run one binary; echo its report lines and return its result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if baseline_ms is not None:
        cmd += ["--baseline-ms", repr(baseline_ms)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run.py: {workload} failed with exit code {proc.returncode}")
    for line in lines[:-1]:
        print(f"[{workload}{' traced' if trace else ''}] {line}")
    return json.loads(lines[-1])


def run_workload(binaries, workload, args):
    untraced, traced = binaries
    if not args.trace:
        return run_binary(untraced, workload, args.seed, args.seconds, 0, args.smoke)
    half = args.seconds / 2
    base = run_binary(untraced, workload, args.seed, half, 0, args.smoke)
    baseline_ms = base["metrics"]["latency_p50_ms"]["value"]
    result = run_binary(traced, workload, args.seed, half, 1, args.smoke, baseline_ms)
    result["correct"] = result["correct"] and base["correct"]
    result["attempted"] += base["attempted"]
    result["failed"] += base["failed"]
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="shrink every workload to seconds")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    binaries = build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {name: run_workload(binaries, name, args) for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        # one result line for the set: metrics keyed `<workload>:<metric>`
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}:{metric}": value
                        for name, r in results.items() for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
