#!/usr/bin/env python3
"""Build local-auth-fd and run one workload of its benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload chain-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --selftest

The first form builds the `lafd` binary and the benchmark (release
profile, offline, into $CARGO_TARGET_DIR, default `.bench_build`), runs
the workload in a process of its own, and prints the benchmark's JSON
result as the last line of standard output: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1` (whose spans are also
written to `<target>/perfbench/<workload>-seed<seed>.json`). Progress and
human-readable lines go to standard error. `--workload all` runs every
workload untraced, one process each, and prints a table. `--selftest`
runs the benchmark's own tests at toy sizes. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The benchmark binary itself must finish well inside a run's limit.
RUN_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def repo_root():
    root = os.getcwd()
    for need in ("Cargo.toml", os.path.join("src", "bin", "lafd.rs"), "BENCHMARK.json",
                 os.path.join("perfbench", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"{need} not found: run from the root of a local-auth-fd checkout")
    return root


def target_dir(root):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(root, target)


def cargo(root, target, args, what):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(["cargo", *args], cwd=root, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{what}: {e}")
    return done.returncode


def build(root, target):
    for args, what in (
        (["build", "--release", "--offline", "--manifest-path", "Cargo.toml", "--bin", "lafd"],
         "build lafd"),
        (["build", "--release", "--offline", "--manifest-path",
          os.path.join("perfbench", "Cargo.toml")], "build the benchmark"),
    ):
        if cargo(root, target, args, what) != 0:
            fail(f"{what} failed")


def expected_metrics(root, traced):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    listed = bench["per_layer"] if traced else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def run_workload(root, target, workload, seed, seconds, traced):
    """Run one workload; return its parsed result and the raw last line."""
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "lafd-perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0",
           "--lafd", os.path.join(release, "lafd")]
    if traced:
        traces = os.path.join(target, "perfbench")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload}: {e}")
    if done.returncode != 0:
        fail(f"{workload}: the benchmark exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: the benchmark printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"{workload}: result is not JSON: {e}")
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    want = expected_metrics(root, traced)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload}: metrics {got} differ from BENCHMARK.json {want}")
    return result, lines[-1]


def selftest(root, target):
    build(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target,
               PERFBENCH_LAFD=os.path.join(target, "release", "lafd"))
    done = subprocess.run(["cargo", "test", "--release", "--offline", "--manifest-path",
                           os.path.join("perfbench", "Cargo.toml")], cwd=root, env=env,
                          timeout=BUILD_TIMEOUT_S)
    sys.exit(done.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    root = repo_root()
    target = target_dir(root)
    if args.selftest:
        selftest(root, target)
    if not args.workload:
        fail("--workload is required")
    build(root, target)
    if args.workload != "all":
        _, line = run_workload(root, target, args.workload, args.seed, args.seconds,
                               args.trace == "1")
        print(line)
        return
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    rows = []
    for workload in names:
        started = time.time()
        result, _ = run_workload(root, target, workload, args.seed, args.seconds, False)
        ratio = result["failed"] / result["attempted"]
        rows.append((workload, "fail_ratio", ratio, "ratio"))
        rows += [(workload, name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
        print(f"{workload}: done in {time.time() - started:.1f} s", file=sys.stderr)
    for workload, name, value, unit in rows:
        print(f"{workload:14} {name:12} {value:14.4f} {unit}")


if __name__ == "__main__":
    main()
