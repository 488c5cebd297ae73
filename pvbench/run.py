#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 pvbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `pvx` server binary from the
workspace and the `pvbench` package (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs one workload. The last line of standard
output is the result as one JSON object; see BENCHMARK.json for the
workloads and metrics.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "Cargo.toml")) and os.path.isdir(os.path.join(root, "crates"))):
        print("pvbench: the workspace (Cargo.toml, crates/) is not here; nothing to build", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "pv-cli", "--bin", "pvx"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"pvbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    target_abs = os.path.join(root, target)
    bin_dir = os.path.join(target_abs, "release")
    # A relative work directory keeps the server's unix socket path short.
    work_dir = os.path.relpath(os.path.join(target_abs, "pvbench"), root)
    cmd = [
        os.path.join(bin_dir, "pvbench"),
        *sys.argv[1:],
        "--pvx", os.path.join(bin_dir, "pvx"),
        "--work-dir", work_dir,
    ]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
