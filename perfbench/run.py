#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Workloads: table1, opt_perlbench, opt_mcf (see perfbench.cc). With
--trace 0 the last line of standard output is one JSON object holding
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
the traced pass. Build output goes to standard error.

Before building, the benchmark's own sources are audited: none may name
an execution-path option or API, or an in-program span name, listed in
banned_names.txt, so that every workload runs the library's default path.
The package is configured and built under $CARGO_TARGET_DIR (default
.bench_build) the first time and incrementally afterwards.
"""

import argparse
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BANNED_LIST = os.path.join(HERE, "banned_names.txt")
AUDITED_SUFFIXES = (".cc", ".hh", ".py", ".txt", ".json")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def banned_patterns():
    """One regex per line of banned_names.txt.

    A line "identifier" bans that identifier as a whole word, "--flag"
    bans the flag, and '"span.name"' bans the quoted string literal.
    """
    patterns = []
    with open(BANNED_LIST) as f:
        for line in f:
            name = line.strip()
            if not name or name.startswith("#"):
                continue
            if name.startswith('"'):
                patterns.append((name, re.compile(re.escape(name))))
            else:
                patterns.append(
                    (name, re.compile(r"(?<![\w-])" + re.escape(name) + r"(?![\w-])")))
    return patterns


def audit_sources():
    """Fail if a benchmark source names a banned execution path or span."""
    patterns = banned_patterns()
    hits = []
    for root, _, files in os.walk(HERE):
        for fname in sorted(files):
            path = os.path.join(root, fname)
            if path == BANNED_LIST or not fname.endswith(AUDITED_SUFFIXES):
                continue
            with open(path, errors="replace") as f:
                for lineno, line in enumerate(f, 1):
                    for name, rx in patterns:
                        if rx.search(line):
                            hits.append("%s:%d: %s" % (os.path.relpath(path), lineno, name))
    if hits:
        die("execution-path audit failed; banned names in the benchmark's sources:\n  "
            + "\n  ".join(hits))


def build(build_dir):
    """Configure (first time) and build the benchmark package."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["table1", "opt_perlbench", "opt_mcf"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    # The benchmark builds the library from the checkout it sits in.
    repo = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(repo, "src", "CMakeLists.txt")):
        die("library sources (src/) not found next to perfbench/")
    audit_sources()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        die("build failed: %s" % e)

    # Library defaults only: no telemetry and no trust-boundary verify
    # pass, whatever the caller's environment says.
    env = {k: v for k, v in os.environ.items() if not k.startswith("INTERF_")}
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--pins", os.path.join(HERE, "pins.txt")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    child = subprocess.Popen(cmd, env=env)

    # On SIGTERM / SIGINT, stop the benchmark too; the wait below then
    # returns its (nonzero) status.
    def stop(_signum, _frame):
        child.terminate()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
