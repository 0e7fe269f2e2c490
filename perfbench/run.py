#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --gomaxprocs 1 --workload tp1-local \
        --seed 1 --seconds 10 --trace 0

Every argument other than --gomaxprocs passes to the benchmark binary
(see main.go), which runs with GOMAXPROCS set to --gomaxprocs.  The Go
build cache, temporary files and the binary stay in .bench_build/ at the
repository root.  The binary's standard output, whose last line is the
JSON result, passes through unchanged; a failed build exits non-zero
without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# A run measures for --seconds and then finishes the round in progress;
# a run anywhere near this long has hung.
RUN_TIMEOUT_S = 170


def go_env():
    """The environment for the go tool: offline, writing only under BUILD."""
    env = dict(os.environ)
    dirs = {
        # The go tool keeps its telemetry under the user's config
        # directory; these keep it in BUILD too.
        "HOME": "home",
        "XDG_CONFIG_HOME": "home/.config",
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOMODCACHE": "gopath/pkg/mod",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
    }
    for var, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env.update(
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--gomaxprocs", type=int, default=1)
    args, rest = parser.parse_known_args()

    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", BINARY, "."],
        cwd=HERE, env=go_env(), stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env = dict(os.environ, GOMAXPROCS=str(args.gomaxprocs),
               TMPDIR=os.path.join(BUILD, "tmp"))
    try:
        run = subprocess.run([BINARY] + rest, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
