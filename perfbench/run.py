#!/usr/bin/env python3
"""Runs one workload of the treediff wire benchmark.

Builds the deployed server (tools/treediff_serve) and the benchmark driver
from the sources of this checkout, then runs the driver:

    python3 perfbench/run.py --workload unique|hot-pairs|chain \
        --seed N --seconds S --trace 0|1

The last line of standard output is the JSON result. Build output goes to
standard error. The build tree lives under $CARGO_TARGET_DIR (default
.bench_build) in the checkout. See perfbench/NOTES.md.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("unique", "hot-pairs", "chain")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; returns the build dir."""
    for needed in ("CMakeLists.txt", "src", os.path.join("tools", "treediff_serve.cc")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("the checkout has no %s: the server cannot be built" % needed)
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver",
                  "treediff_serve", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build_dir = build()
    command = [
        os.path.join(build_dir, "perfbench_driver"),
        "--server", os.path.join(build_dir, "treediff", "tools", "treediff_serve"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    sys.stdout.flush()
    # Own process group: on a timeout the driver and the server it spawned
    # are stopped together.
    driver = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return driver.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.wait()
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
