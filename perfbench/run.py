#!/usr/bin/env python3
"""Build and run the spindle benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `spindle` binary of the root workspace and the benchmark
package in `perfbench/` (release profile, offline), then runs the
benchmark binary. Build output goes to `$CARGO_TARGET_DIR`, or to
`.bench_build` when that is unset; inputs and outputs of a run go to
`.bench_out`. The last line of standard output is the JSON result.
"""

import os
import subprocess
import sys

USAGE = "usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1"


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def main(argv):
    if len(argv) % 2 != 0:
        fail(USAGE)
    flags = dict(zip(argv[0::2], argv[1::2]))
    required = ["--workload", "--seed", "--seconds", "--trace"]
    if sorted(flags) != sorted(required):
        fail(USAGE)

    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    for needed in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml"), manifest):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a spindle checkout")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "spindle-cli", "--bin", "spindle"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
    ]
    for cmd in builds:
        # Build chatter goes to stderr so stdout ends with the result.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 1)

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "spindle-perfbench")] + argv + [
        "--spindle-bin", os.path.join(release, "spindle"),
        "--out-dir", os.path.join(root, ".bench_out"),
    ]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
