#!/usr/bin/env python3
"""Build and run the tofumd host-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload lj-65k-12n --seed 1 --seconds 20 --trace 0

The script compiles the Go benchmark in perfbench/ (its own module, which
builds tofumd from the checkout's sources) into .bench_build/perfbench/,
keeping every Go cache inside .bench_build, and then runs it with the given
arguments from the repository root. The benchmark's standard output is passed
through unchanged; its last line is the JSON result. The exit code is the
benchmark's, or the build's when the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build")
    out = os.path.join(build, "perfbench")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
    )
    binary = os.path.join(out, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
        timeout=840,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=900)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
