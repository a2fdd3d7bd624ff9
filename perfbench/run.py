#!/usr/bin/env python3
"""Builds and runs the PDQ serving benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload hot-keys|spread-keys|durable \
        --seed N --seconds S --trace 0|1

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path, so it is built from source
first; CARGO_TARGET_DIR is honoured, and perfbench/target is used without
it. The build's output goes to stderr. The program's report goes to stdout;
its last line is the JSON result. WAL files are written under
perfbench/work (removed afterwards) and the traced run's span file under
perfbench/out.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run measures for --seconds and spends a few more on set-up, checks and
# recovery; past this the run is abandoned.
RUN_TIMEOUT_S = 170


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(target, "release", "perfbench")
    cmd = [
        binary,
        *sys.argv[1:],
        "--work-dir",
        os.path.join(HERE, "work"),
        "--out-dir",
        os.path.join(HERE, "out"),
    ]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        sys.stderr.write(run.stdout)
        print("perfbench: the program printed no result", file=sys.stderr)
        return run.returncode or 5
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
