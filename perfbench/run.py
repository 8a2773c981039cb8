#!/usr/bin/env python3
"""Build and run the HTA platform benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it, adds the peak resident memory of the
benchmark process, checks that every metric `BENCHMARK.json` lists for the
mode is present with its unit, and prints the result as the last line of
standard output. Build output goes to standard error. Exits non-zero,
without a result line, if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def commit_hash():
    """The checked-out commit, read from `.git` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "perfbench")


def run(binary, args):
    """Run the benchmark binary; return (stdout lines, peak RSS in MiB)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        # wait4 reports the resource usage of this one child, not of the
        # build processes that ran before it.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"benchmark exited with status {proc.returncode}")
    return out.splitlines(), usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    lines, peak_rss_mb = run(build(target), args)
    if not lines:
        fail("benchmark printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not a result: {lines[-1]!r}")

    for line in lines[:-1]:
        if line.startswith("machine "):
            machine = json.loads(line[len("machine "):])
            machine["commit"] = commit_hash()
            line = "machine " + json.dumps(machine)
        print(line)

    metrics = result["metrics"]
    if args.trace == 0:
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
        print(f"metric peak_rss_mb = {peak_rss_mb} MiB")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(expected) - set(got))}, "
             f"extra {sorted(set(got) - set(expected))}, units {sorted(k for k in got if got[k] != expected.get(k, got[k]))}")
    ordered = {m["name"]: metrics[m["name"]] for m in listed}
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": ordered,
    }))


if __name__ == "__main__":
    main()
