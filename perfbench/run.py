#!/usr/bin/env python3
"""Builds the rprism benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload analyze_cold --seed 1 --seconds 10 --trace 0

The benchmark binary is built in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build` under the current directory), then run with the same
arguments. Its standard output passes through unchanged; the last line is the
JSON result. A failed build exits with code 2 and prints no result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "rprism-perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
