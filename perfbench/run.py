#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload sweep-standard --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The Go build cache, temporary files and the
binary all live in .bench_build/ under the checkout, so nothing outside it is
read or written besides the Go toolchain itself. Every argument is passed to
the benchmark binary (see perfbench/main.go and perfbench/README.md).
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod at %s: the benchmark builds the program "
              "from the checkout it sits in" % root, file=sys.stderr)
        return 2

    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOFLAGS="",
        GOWORK="off",
    )
    for d in ("gocache", "gopath", "tmp", "config", "cache"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-buildvcs=false", "-o", exe, "."],
                           cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
