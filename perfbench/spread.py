#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload opt_mcf --seeds 1-10 [--seconds 30]

Runs the benchmark once per seed and prints, for every end-to-end metric
of BENCHMARK.json, the median of the runs and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, beside a third of the metric's bound. A spread at or above that
mark means the metric is not steady enough to judge a change against the
bound. A run that fails, or that reports correct=false, stops the script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values = {name: [] for name in metrics}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit("seed %d: benchmark exited with %d" % (seed, out.returncode))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed %d: outputs incorrect (%d of %d failed)"
                     % (seed, result["failed"], result["attempted"]))
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.6g" % (n, values[n][-1]) for n in metrics)), flush=True)

    print("%-20s %14s %10s %10s" % ("metric", "median", "iqr/med", "bound/3"))
    for name, m in metrics.items():
        med = statistics.median(values[name])
        q1, _, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print("%-20s %14.6g %10.4f %10.4f" % (name, med, spread, m["bound"] / 3))


if __name__ == "__main__":
    main()
