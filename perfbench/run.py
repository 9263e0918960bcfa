#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload exact-matrix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --bless        # rewrite perfbench/reference/exact_digests.txt

Every argument is passed on to the `perfbench` binary (see src/main.rs).
The build goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root); its output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Exits non-zero, printing no result, when
the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
