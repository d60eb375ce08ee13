#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout, with the arguments of BENCHMARK.json's
command followed by the workload's:

    python3 perfbench/run.py <pinned arguments> --workload embedded_analytic --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark program (see README.md). The Go
build cache, the binary and the benchmark's scratch files all live under
.bench_build/ in the checkout, so nothing is read or written outside it
apart from the Go toolchain itself. The last line of standard output is
the benchmark's JSON result; the exit code is the program's.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench")
    os.makedirs(build, exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        # The go command keeps its settings and telemetry counters under
        # the user config directory; point that into the build directory.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        TMPDIR=os.path.join(build, "tmp"),
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)

    # The benchmark is its own module that imports the repository's
    # packages from the parent directory; without them the build fails
    # and so does the run.
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=bench_dir,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
