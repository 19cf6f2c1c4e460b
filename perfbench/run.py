#!/usr/bin/env python3
"""Build and run the layered S2TA benchmark.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The benchmark binary (the `perfbench`
Cargo package, which builds the workspace crates from source as path
dependencies) is built in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the one workload in its own
process; its last stdout line is the JSON result. `--workload all`
runs every workload, each in its own process, one after another.

Exits non-zero when the build fails, an output check fails, or the
workload does not finish.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["paper-zoo", "day-cold-random", "day-warm-p2c", "fleet-warm"]


def run_timeout(seconds):
    """Seconds after which a hung workload is stopped and counted as a
    failure: twice the timed phase (a traced run repeats it) plus room
    for set-up, the last timed unit and the traced pass, which take up
    to about a minute together."""
    return max(150.0, 2 * seconds + 100)


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml"),
    ]
    # Cargo's progress goes to stderr; stdout stays the result channel.
    if subprocess.run(cmd, env=env, cwd=root, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target, "release", "s2ta-perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    timeout = run_timeout(args.seconds)
    status = 0
    for workload in workloads:
        cmd = [
            binary, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        try:
            code = subprocess.run(cmd, cwd=root, timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            print(f"perfbench: {workload} exceeded {timeout:.0f} s", file=sys.stderr)
            code = 1
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
