#!/usr/bin/env python3
"""Build and run the jcc benchmark from the root of a checkout.

    python3 jccbench/run.py --workload <lint|confirm|mutants|net_reach> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `jccbench` (a package of its own that uses the repository's crates
by path) in release mode, then runs it with the same arguments. The build
goes to $CARGO_TARGET_DIR, or `.bench_build` at the checkout root; trace
output goes to `jccbench/out`. Cargo's output is sent to stderr, so the
last line of standard output is the benchmark's JSON result. Exits
nonzero, printing no result, when the repository's crates are missing or
the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("jccbench: no jcc workspace next to the benchmark (crates/core missing)",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("jccbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "jccbench")
    run = subprocess.run(
        [binary, *sys.argv[1:], "--out", os.path.join(HERE, "out")], cwd=ROOT, env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
