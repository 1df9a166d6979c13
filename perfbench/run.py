#!/usr/bin/env python3
"""Build and run the nestflow benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload figure-cold --seed 1 --seconds 10 --trace 0

Builds perfbench/driver.cpp together with the library in src/ into
.bench_build/perfbench (configured once, rebuilt incrementally), runs the
driver for one workload, and prints its result as the last line of
standard output: a JSON object with the keys correct, attempted, failed and
metrics. Build and driver diagnostics go to standard error. Exits non-zero,
without printing a result, when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("figure-cold", "warm-replay")
# A first run (configure + clean build + run) must end within 900 s and any
# later one within 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and returns (returncode, stdout).

    On timeout the whole group (make and compiler children included) is
    killed and reaped before failing.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    return proc.returncode, out


def run_logged(cmd, timeout, env):
    """Runs a build step, echoing its output to stderr only on failure."""
    code, out = run_child(cmd, timeout, stderr=subprocess.STDOUT, env=env)
    if code != 0:
        sys.stderr.write(out)
        fail(f"failed ({code}): {' '.join(cmd)}")


def build(deadline):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no nestflow sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    # Keep compiler temporaries inside the checkout.
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   deadline - time.monotonic(), env)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
                "-j", jobs], deadline - time.monotonic(), env)
    return BUILD / "perfbench_driver"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    driver = build(time.monotonic() + BUILD_TIMEOUT_S)
    code, out = run_child([str(driver), args.workload, str(args.seed),
                           str(args.seconds), str(args.trace)], RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"driver exited with {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"driver printed no result: {lines[-1]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result: {lines[-1]}")
    sys.stderr.write("".join(line + "\n" for line in lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
