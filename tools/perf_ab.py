#!/usr/bin/env python3
"""Interleaved A/B of the repository benchmark between two commits.

Usage, from the root of a checkout:

    python3 tools/perf_ab.py BASE_REV [--seconds S]

Checks BASE_REV out in a temporary git worktree, then runs BENCHMARK.json's
command there ("base") and here ("change"): 10 pairs per workload at the
pinned seed 1, alternating which side runs first. Each side builds from
scratch under its own CARGO_TARGET_DIR, both with CXXFLAGS that align
functions and loops, so code placement alone does not move a result.
--seconds is the length of each run (default: run_seconds).

Per workload and end-to-end metric it prints both medians [q1, q3], the
change/base ratio [min, max] over the pairs, the pairs the change wins (a
tie counts for neither side) and a verdict (see judge(), or README.md
"How to compare two commits"). Exits 1 on correct=false on either side, a
fall in pass_frac, or any "worse" row; exits 2 if BASE_REV cannot be
checked out or a run fails outright.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10
SEED = 1
CXXFLAGS = "-falign-functions=64 -falign-loops=32"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def describe(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return "%.4g [%.4g, %.4g]" % (med, q1, q3)


def judge(base_runs, change_runs, end_to_end):
    """Rows [(metric, base values, change values, wins, verdict)] and
    failure messages for one workload; pair i is (base_runs[i],
    change_runs[i]), each a run's last-line JSON object. Verdicts:

      better        wins >= 9 of 10 and the medians differ, the change's
                    way, by more than the base's interquartile range;
      worse         the change's median is worse than the metric's bound,
                    and the spread (the larger IQR/median of the sides) is
                    inside the bound or every change run is worse than
                    every base run;
      unresolved    neither, and the spread is wider than the bound;
      within bound  anything else.
    """
    failures = []
    for side, runs in (("base", base_runs), ("change", change_runs)):
        if not all(r["correct"] for r in runs):
            failures.append("%s: a run reports correct=false" % side)
    rows = []
    for m in end_to_end:
        b = [r["metrics"][m["name"]]["value"] for r in base_runs]
        c = [r["metrics"][m["name"]]["value"] for r in change_runs]
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        b1, mb, b3 = statistics.quantiles(b, n=4)
        c1, mc, c3 = statistics.quantiles(c, n=4)
        spread = max((b3 - b1) / (abs(mb) or 1), (c3 - c1) / (abs(mc) or 1))
        apart = all(sign * (y - x) < 0 for x in b for y in c)
        if wins >= 0.9 * len(b) and sign * (mc - mb) > b3 - b1:
            verdict = "better"
        elif sign * (mc - mb) / (abs(mb) or 1) < -m["bound"] and (
                spread <= m["bound"] or apart):
            verdict = "worse"
            failures.append("%s is worse than its bound %g" % (m["name"], m["bound"]))
        elif spread > m["bound"]:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        if m["name"] == "pass_frac" and min(c) < min(b):
            failures.append("pass_frac fell from %g to %g" % (min(b), min(c)))
        rows.append((m["name"], b, c, wins, verdict))
    return rows, failures


def run(command, cwd, workload, seconds, env, log):
    """One benchmark run, build output appended to log; its last line."""
    with open(log, "a") as err:
        run.child = subprocess.Popen(
            command + ["--workload", workload, "--seed", str(SEED),
                       "--seconds", str(seconds), "--trace", "0"],
            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err, text=True,
            start_new_session=True)
        out, _ = run.child.communicate()
    status, run.child = run.child.returncode, None
    if status != 0:
        with open(log) as err:
            sys.stderr.write("".join(err.readlines()[-20:]))
        print("perf_ab: %s run in %s exited %d" % (workload, cwd, status), file=sys.stderr)
        sys.exit(2)
    return json.loads(out.strip().splitlines()[-1])


def stop(signum, _frame):
    """SIGINT/SIGTERM: stop the running benchmark, then unwind (which
    removes the worktree)."""
    if getattr(run, "child", None):
        os.killpg(run.child.pid, signal.SIGTERM)
        run.child.wait()
    sys.exit(128 + signum)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base_rev")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each run (default: run_seconds)")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    signal.signal(signal.SIGINT, stop)
    signal.signal(signal.SIGTERM, stop)
    tmp = tempfile.mkdtemp(prefix="perf_ab-")
    sides = [(name, root, os.path.join(tmp, name + ".log"),
              dict(os.environ, CXXFLAGS=CXXFLAGS,
                   CARGO_TARGET_DIR=os.path.join(tmp, "build-" + name)))
             for name, root in (("base", os.path.join(tmp, "base")), ("change", ROOT))]
    failures = []
    try:
        if subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", sides[0][1],
                           args.base_rev], stdout=subprocess.DEVNULL).returncode != 0:
            sys.exit(2)  # git has said why
        print("perf_ab: %s vs this checkout, %d pairs of %g s per workload"
              % (args.base_rev, PAIRS, seconds), flush=True)
        for w in bench["workloads"]:
            runs = {"base": [], "change": []}
            for i in range(PAIRS):
                for name, root, log, env in (sides if i % 2 == 0 else sides[::-1]):
                    runs[name].append(run(bench["command"], root, w["name"], seconds, env, log))
                print("%s pair %d (change/base): %s" % (w["name"], i + 1, "  ".join(
                    "%s %.4g/%.4g" % (m["name"], runs["change"][-1]["metrics"][m["name"]]["value"],
                                      runs["base"][-1]["metrics"][m["name"]]["value"])
                    for m in bench["end_to_end"])), flush=True)
            rows, fails = judge(runs["base"], runs["change"], bench["end_to_end"])
            failures += ["%s: %s" % (w["name"], f) for f in fails]
            line = "%-14s %-22s %-28s %-28s %-24s %5s  %s"
            print(line % ("workload", "metric", "base median [q1, q3]",
                          "change median [q1, q3]", "ratio [min, max]", "wins", "verdict"))
            for metric, b, c, wins, verdict in rows:
                ratios = [y / x if x else 1.0 for x, y in zip(b, c)]
                print(line % (w["name"], metric, describe(b), describe(c), "%.4f [%.4f, %.4f]"
                              % (statistics.median(ratios), min(ratios), max(ratios)),
                              "%d/%d" % (wins, len(b)), verdict), flush=True)
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", sides[0][1]],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)
    for f in failures:
        print("perf_ab: FAIL " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
