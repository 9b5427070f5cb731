#!/usr/bin/env python3
"""Builds and runs the BonXai benchmark described in BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/run.py --workload docs-bulk --seed 1 --seconds 20 --trace 0

It builds the release `bonxai` CLI and the benchmark binary into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark. The
last line of standard output is the JSON result; build output goes to
standard error. Exits non-zero without a result if either build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join("perfbench", "Cargo.toml")
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "bonxai-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
    ]
    for cmd in builds:
        try:
            code = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
        except OSError as err:
            print(f"perfbench: cannot run cargo: {err}", file=sys.stderr)
            return 2
        if code != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--cli",
        os.path.join(release, "bonxai"),
        "--work-dir",
        os.path.join(target, "perfbench-work"),
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
