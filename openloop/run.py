#!/usr/bin/env python3
"""Builds the open-loop Fabric++ benchmark from source and runs it.

Run from the repository root:

    python3 openloop/run.py --workload zipf-hot --seed 1 --seconds 15 --trace 0

Arguments are passed through to the benchmark binary (see
openloop/src/main.rs). The build goes to $CARGO_TARGET_DIR, or to
.bench_build at the repository root when it is unset. Build output goes to
standard error; standard output carries only the benchmark's own lines, the
last of which is its JSON result. The exit code is the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def stamp(cmd):
    """First line of a command's output, or 'unknown' if it fails."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("openloop: build failed", file=sys.stderr)
        return build.returncode or 1

    env["OPENLOOP_GIT_COMMIT"] = stamp(["git", "rev-parse", "HEAD"])
    env["OPENLOOP_RUSTC"] = stamp(["rustc", "--version"])
    binary = os.path.join(target, "release", "openloop")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
