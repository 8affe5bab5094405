#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds N
                                [--trace 0|1]

Run it from the repository root. It configures and builds the benchmark
binary from source (CMake, Release) into the directory named by
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
workload. Build output goes to stderr. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list; a traced run also writes its spans to
<build dir>/spans/<workload>-<seed>.json.

Exit codes: 0 with a result line; 2 for bad arguments or a checkout without
the library's sources; otherwise the build's or the workload's failure code.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rewrite", "serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def usage_epilog():
    """Workloads and metrics, read from BENCHMARK.json when it is present."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return "workloads: " + ", ".join(WORKLOADS)
    lines = ["workloads:"]
    lines += ["  %-12s %s" % (w["name"], w["why"]) for w in spec["workloads"]]
    for key, title in (("end_to_end", "end-to-end metrics (--trace 0)"),
                       ("per_layer", "per-layer metrics (--trace 1)")):
        lines.append(title + ":")
        lines += ["  %-34s %s" % (m["name"], m["unit"]) for m in spec[key]]
    return "\n".join(lines)


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("run.py: error: %s\n" % message)
        sys.exit(2)


def seed_arg(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(
            "malformed seed %r: expected a non-negative integer" % text)
    return int(text)


def seconds_arg(text):
    if not text.isdigit() or not 1 <= int(text) <= 60:
        raise argparse.ArgumentTypeError(
            "malformed --seconds %r: expected an integer from 1 to 60" % text)
    return int(text)


def run(cmd, timeout):
    """Runs cmd with stdout sent to stderr; returns its exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("run.py: %s timed out\n" % cmd[0])
        return 124


def main():
    parser = Parser(
        description="Run one workload of the bddfc benchmark.",
        epilog=usage_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=seed_arg)
    parser.add_argument("--seconds", required=True, type=seconds_arg)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("run.py: no library sources next to perfbench/ "
                         "(expected CMakeLists.txt and src/ in %s)\n" % ROOT)
        return 2

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build)
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        rc = run(["cmake", "-S", HERE, "-B", build,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if rc != 0:
            return rc
    rc = run(["cmake", "--build", build, "--target", "bddfc_perfbench",
              "-j", BUILD_JOBS], BUILD_TIMEOUT_S)
    if rc != 0:
        return rc

    cmd = [os.path.join(build, "bddfc_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(build, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, "%s-%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("run.py: the workload timed out\n")
        return 124


if __name__ == "__main__":
    sys.exit(main())
