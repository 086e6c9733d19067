#!/usr/bin/env python3
"""Build the job benchmark from source and run it.

Run from the repository root:

    python3 jobbench/run.py --workload cold --seed 1 --seconds 10 --trace 0

Every argument is passed to the jobbench binary. The Go build cache, the
binary and the benchmark's scratch files all live under .bench_build/ in the
repository root, so a run reads and writes nothing outside the checkout.
The exit code is the benchmark's: 0 when every job's result was correct,
1 when one was wrong, 2 (or the build's code) when no result was made.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# A run must end well within 180 s; the first one also builds.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "gotmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        # The go command keeps its settings and telemetry counters in the
        # user config directory; this one stays inside the checkout.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOWORK="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    for d in (env["GOCACHE"], env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(BUILD, "jobbench-bin")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=HERE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("jobbench: build timed out", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("jobbench: build failed", file=sys.stderr)
        return built.returncode
    work = os.path.join(BUILD, "jobbench-work")
    try:
        ran = subprocess.run([binary, "--work-dir", work] + sys.argv[1:],
                             cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("jobbench: run timed out", file=sys.stderr)
        return 2
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
