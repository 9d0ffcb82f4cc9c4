#!/usr/bin/env python3
"""Build and run the host wall-clock benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload legal-taat --seed 1 --seconds 10 --trace 0

The benchmark is a Go program in this directory (its own module, which
imports the engine from the parent module). This script compiles it
into .bench_build/ with a build cache kept there too, so nothing is
written outside the checkout, then runs it with the given arguments
and passes its exit code through. The program prints the result as
the last line of its standard output.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")


def main():
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOPATH": os.path.join(OUT, "gopath"),
        "GOTMPDIR": os.path.join(OUT, "tmp"),
        "GOENV": "off",
        # The go command keeps telemetry counters under the user config
        # directory; point it inside the checkout too.
        "XDG_CONFIG_HOME": os.path.join(OUT, "config"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(OUT, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
