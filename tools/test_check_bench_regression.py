#!/usr/bin/env python3
"""Self-test for check_bench_regression.py (stdlib only).

Runs the checker as a subprocess against temp-file fixtures and
asserts on exit codes and output — exactly how CI invokes it. Written
pytest-style (test_* functions with bare asserts) so it runs under
pytest if available, but `python3 tools/test_check_bench_regression.py`
executes every test with no third-party dependency.
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")


def run(*argv):
    return subprocess.run([sys.executable, SCRIPT, *argv],
                          capture_output=True, text=True)


def report(rows):
    return {"rows": [{"benchmark": n, "layouts_per_sec": v}
                     for n, v in rows]}


def write_json(tmpdir, name, payload):
    path = os.path.join(tmpdir, name)
    with open(path, "w") as f:
        if isinstance(payload, str):
            f.write(payload)
        else:
            json.dump(payload, f)
    return path


def test_identical_reports_pass():
    with tempfile.TemporaryDirectory() as d:
        base = write_json(d, "base.json",
                          report([("replay", 100.0), ("opt", 50.0)]))
        cur = write_json(d, "cur.json",
                         report([("replay", 101.0), ("opt", 49.0)]))
        r = run(base, cur)
        assert r.returncode == 0, r.stderr
        assert "all 2 shared rows" in r.stdout


def test_regression_warns_but_exits_zero():
    with tempfile.TemporaryDirectory() as d:
        base = write_json(d, "base.json", report([("replay", 100.0)]))
        cur = write_json(d, "cur.json", report([("replay", 50.0)]))
        r = run(base, cur)
        assert r.returncode == 0, r.stderr
        assert "::warning" in r.stdout
        assert "REGRESSED" in r.stdout


def test_missing_baseline_exits_two():
    with tempfile.TemporaryDirectory() as d:
        cur = write_json(d, "cur.json", report([("replay", 100.0)]))
        r = run(os.path.join(d, "nonexistent.json"), cur)
        assert r.returncode == 2, (r.returncode, r.stderr)
        assert "baseline report" in r.stderr
        assert "missing or unreadable" in r.stderr


def test_missing_current_exits_two():
    with tempfile.TemporaryDirectory() as d:
        base = write_json(d, "base.json", report([("replay", 100.0)]))
        r = run(base, os.path.join(d, "nonexistent.json"))
        assert r.returncode == 2, (r.returncode, r.stderr)
        assert "current report" in r.stderr


def test_garbage_baseline_exits_two():
    with tempfile.TemporaryDirectory() as d:
        base = write_json(d, "base.json", "{not json at all")
        cur = write_json(d, "cur.json", report([("replay", 100.0)]))
        r = run(base, cur)
        assert r.returncode == 2, (r.returncode, r.stderr)
        assert "not valid JSON" in r.stderr


def test_non_object_report_exits_two():
    with tempfile.TemporaryDirectory() as d:
        base = write_json(d, "base.json", [1, 2, 3])
        cur = write_json(d, "cur.json", report([("replay", 100.0)]))
        r = run(base, cur)
        assert r.returncode == 2, (r.returncode, r.stderr)
        assert "must be a JSON object" in r.stderr


def test_verdict_json_records_each_row():
    with tempfile.TemporaryDirectory() as d:
        base = write_json(d, "base.json",
                          report([("replay", 100.0), ("opt", 50.0)]))
        cur = write_json(d, "cur.json",
                         report([("replay", 40.0), ("opt", 51.0)]))
        verdict_path = os.path.join(d, "verdict.json")
        r = run(base, cur, "--verdict-json", verdict_path)
        assert r.returncode == 0, r.stderr
        with open(verdict_path) as f:
            v = json.load(f)
        assert v["schema"] == "interf-bench-verdict-1"
        assert v["shared_rows"] == 2
        assert v["regressed_rows"] == 1
        rows = {row["benchmark"]: row for row in v["rows"]}
        assert rows["replay"]["verdict"] == "REGRESSED"
        assert rows["replay"]["baseline"] == 100.0
        assert rows["replay"]["current"] == 40.0
        assert abs(rows["replay"]["delta"] - (-0.6)) < 1e-9
        assert rows["opt"]["verdict"] == "ok"


def test_history_append_accumulates_lines():
    with tempfile.TemporaryDirectory() as d:
        base = write_json(d, "base.json", report([("replay", 100.0)]))
        cur = write_json(d, "cur.json", report([("replay", 99.0)]))
        hist = os.path.join(d, "hist.jsonl")
        for sha in ("aaa", "bbb"):
            r = run(base, cur, "--history-append", hist,
                    "--run-id", sha)
            assert r.returncode == 0, r.stderr
        with open(hist) as f:
            lines = [json.loads(ln) for ln in f if ln.strip()]
        assert [ln["run_id"] for ln in lines] == ["aaa", "bbb"]
        assert lines[0]["rows"][0]["benchmark"] == "replay"
        assert lines[0]["rows"][0]["layouts_per_sec"] == 99.0
        assert "utc" in lines[0]


def test_missing_baseline_row_warns_and_is_recorded():
    with tempfile.TemporaryDirectory() as d:
        base = write_json(d, "base.json",
                          report([("replay", 100.0), ("old", 50.0)]))
        cur = write_json(d, "cur.json",
                         report([("replay", 100.0), ("new", 50.0)]))
        verdict_path = os.path.join(d, "verdict.json")
        r = run(base, cur, "--verdict-json", verdict_path)
        assert r.returncode == 0, r.stderr
        warnings = [ln for ln in r.stdout.splitlines()
                    if ln.startswith("::warning")]
        assert len(warnings) == 1, r.stdout
        assert "old" in warnings[0] and "missing" in warnings[0]
        with open(verdict_path) as f:
            v = json.load(f)
        assert v["missing_rows"] == ["old"]
        assert v["shared_rows"] == 1


def test_no_common_rows_soft_warns():
    with tempfile.TemporaryDirectory() as d:
        base = write_json(d, "base.json", report([("a", 1.0)]))
        cur = write_json(d, "cur.json", report([("b", 1.0)]))
        r = run(base, cur)
        assert r.returncode == 0, r.stderr
        assert "no common benchmark rows" in r.stdout


def main():
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as e:
            failed += 1
            print(f"FAIL {name}: {e}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
