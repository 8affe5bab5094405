#!/usr/bin/env python3
"""Steadiness report: runs one workload repeatedly, one seed per run.

usage: python3 perfbench/steadiness.py --workload NAME [--runs 10]
                                       [--first-seed 1] [--seconds N]
                                       [--against FILE]

Run it from the repository root. Each run is `perfbench/run.py` with seed
first-seed + i. For every end-to-end metric the report prints the median,
the quartiles (statistics.quantiles(values, n=4)), the spread (third minus
first quartile, as a share of the median), the min-max range, the drift
(median of the second half of the runs against the first half), and the
bound BENCHMARK.json gives the metric. A metric is flagged when its spread
exceeds a third of its bound ("tight") or the bound itself ("OVER").

With --against, naming the raw runs of an earlier set, it also prints how
far each median moved from that set's, in the metric's worse direction,
and flags a move beyond the bound ("WORSE").

Before each run it times a fixed pure-Python loop; the "machine" row shows
how much the machine's own speed moved across the runs, which every timed
metric shares.

It also checks that every run was correct, failed nothing and printed
exactly BENCHMARK.json's end-to-end names and units. The raw runs are
written to <build dir>/steadiness/<workload>-from<first-seed>.json and
each run's stderr to <build dir>/steadiness/<workload>-<seed>.log. It exits
1 when a run failed or a metric is flagged OVER or WORSE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine_ms():
    """Median time of a fixed CPU loop: the machine's speed right now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--against",
                        help="raw runs of an earlier set, to compare medians")
    args = parser.parse_args()
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                           ".bench_build", "steadiness")
    os.makedirs(out_dir, exist_ok=True)
    runs = []
    problems = []
    for i in range(args.runs):
        seed = args.first_seed + i
        machine = machine_ms()
        log = os.path.join(out_dir, "%s-%d.log" % (args.workload, seed))
        with open(log, "w") as err:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            problems.append("seed %d: exit code %d" % (seed, proc.returncode))
            continue
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "machine_ms": machine, "result": result})
        if not result["correct"] or result["failed"] != 0:
            problems.append("seed %d: correct=%s failed=%d" %
                            (seed, result["correct"], result["failed"]))
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {k: m["unit"] for k, m in metrics.items()}
        if got != want:
            problems.append("seed %d: metrics %s, BENCHMARK.json %s" %
                            (seed, sorted(got.items()), sorted(want.items())))
        print("seed %-4d machine=%.4g  %s" % (seed, machine, "  ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
              flush=True)

    with open(os.path.join(out_dir, "%s-from%d.json" %
                           (args.workload, args.first_seed)), "w") as f:
        json.dump(runs, f, indent=1)

    def values_of(name, raw):
        if name == "machine":
            return [r["machine_ms"] for r in raw]
        return [r["result"]["metrics"][name]["value"] for r in raw
                if name in r["result"]["metrics"]]

    print("\n%-14s %10s %10s %10s %7s %7s %7s %6s %7s" %
          ("metric", "median", "q1", "q3", "spread", "range", "drift",
           "bound", "worse"))
    for name in ["machine"] + list(metrics):
        values = values_of(name, runs)
        if len(values) < 4:
            continue
        bound = metrics[name]["bound"] if name in metrics else None
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        half = len(values) // 2
        drift = (statistics.median(values[half:]) -
                 statistics.median(values[:half])) / median
        flags = []
        if bound is not None:
            if spread > bound:
                flags.append("OVER")
                problems.append("%s spreads %.1f%%, over its bound" %
                                (name, 100 * spread))
            elif spread > bound / 3:
                flags.append("tight")
        worse = ""
        before = values_of(name, earlier) if earlier else []
        if before:
            base = statistics.median(before)
            lower_is_better = (name == "machine" or
                               metrics[name]["better"] == "lower")
            moved = (median - base) / base * (1 if lower_is_better else -1)
            worse = "%+6.1f%%" % (100 * moved)
            if bound is not None and moved > bound:
                flags.append("WORSE")
                problems.append("%s median is %.1f%% worse than the earlier "
                                "set's" % (name, 100 * moved))
        print("%-14s %10.4g %10.4g %10.4g %6.1f%% %6.1f%% %+6.1f%% %5s %7s %s"
              % (name, median, q1, q3, 100 * spread,
                 100 * (max(values) - min(values)) / median, 100 * drift,
                 "-" if bound is None else "%.0f%%" % (100 * bound), worse,
                 " ".join(flags)))
    for p in problems:
        print("PROBLEM: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
