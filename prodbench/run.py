#!/usr/bin/env python3
"""Build the production-path benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 prodbench/run.py --workload paper-sweep|figures-cold|serve-mixed \
        [--seed N] [--seconds S] [--trace 0|1]

The Go build cache, module cache and binary go to .bench_build/ and the
benchmark's work directories and span files to .bench_out/, both inside the
repository. The workload runs in its own process with GOMAXPROCS set to the
number of CPUs this process may use. Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    build = os.path.join(root, ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTOOLCHAIN="local",
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTELEMETRY="off",
    )
    binary = os.path.join(build, "prodbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, check=False)
    if built.returncode != 0:
        print("prodbench: build failed", file=sys.stderr)
        return built.returncode or 1

    run_env = dict(os.environ, GOMAXPROCS=str(len(os.sched_getaffinity(0))))
    try:
        ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=run_env,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("prodbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
