#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 dtbench/run.py --workload rank|spec|campaign --seed N \
        --seconds S --trace 0|1

The build (release, offline) goes to CARGO_TARGET_DIR, default
`.bench_build` in the working directory; its output goes to standard
error, so the last line of standard output is the benchmark's JSON
result. Exits non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("dtbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(os.path.abspath(target), "release", "dtbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
