#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload pinned-resident --seed 1 --seconds 20 --trace 0

Every argument goes to the benchmark binary (see perfbench/README.md). The Go
build cache, the binary and the temporary trace files all live under
.bench_build/ in the working directory, so nothing is written outside it.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    gotmp = os.path.join(build, "go-tmp")
    os.makedirs(gotmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "go-path"),
        GOTMPDIR=gotmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=here,
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        sys.stderr.write("run.py: building the benchmark failed\n")
        return 1
    args = [
        binary,
        "-root", root,
        "-scratch", os.path.join(build, "tmp"),
    ] + sys.argv[1:]
    # Replace this process, so the caller's signals and exit status reach the
    # benchmark directly and no child outlives it.
    sys.stderr.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
