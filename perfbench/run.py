#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode,
offline, into $CARGO_TARGET_DIR (default: .bench_build at the repository
root); cargo picks up the repository's .cargo/config.toml, so the build
targets the host CPU like the repository's own. The workload process gets a
rayon-shim pool of one thread per CPU this process may run on. Build output
goes to standard error; the workload's report, ending in its JSON result
line, goes to standard output.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The build may take this long on a cold cache; a workload run, this long.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    env["RAYON_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))

    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(ROOT, target, "release", "perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
