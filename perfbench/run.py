#!/usr/bin/env python3
"""Build the kylix end-to-end benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload reduce-tcp --seed 1 --seconds 30 --trace 0

Every argument is passed to the benchmark binary (see README.md). The
Go toolchain's cache, temporary files and the binary all go under
.bench_build/ at the repository root, so nothing is written outside the
checkout. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# The benchmark stops itself well inside this limit; the timeout only
# guards against a hung cluster.
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOMODCACHE": "gomodcache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",
    }
    for var, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env.update(GOWORK="off", GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=readonly")
    return env


def main():
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + build.stdout)
        return 1
    args = [binary] + sys.argv[1:]
    try:
        return subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
