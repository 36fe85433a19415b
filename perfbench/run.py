#!/usr/bin/env python3
"""Builds and runs the ESDS wall-clock benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tcp-shard-mix --seed 1 --seconds 30 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds the repository's library crates from source. It is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build at the root)
and then run with the same arguments from the root. The last line of
its standard output is the JSON result. A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "esds-perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
