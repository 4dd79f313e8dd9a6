#!/usr/bin/env python3
"""Tests for tools/bench_compare.py on small hand-written benchmark files.

Checks that a benchmark more than 15% slower is flagged and makes the
exit status 1, that one within the threshold (or faster) is not, that
time units are normalized, that the median aggregate of a repeated run
is the value compared, that names in only one file are listed, and that
unreadable input exits 2.

Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(os.path.dirname(os.path.dirname(HERE)), "tools",
                    "bench_compare.py")


def bench(name, cpu, unit="ns", **extra):
    entry = {"name": name, "run_name": name, "run_type": "iteration",
             "cpu_time": cpu, "real_time": cpu, "time_unit": unit}
    entry.update(extra)
    return entry


def run(old, new, tmp):
    paths = []
    for i, benchmarks in enumerate((old, new)):
        path = os.path.join(tmp, "b%d.json" % i)
        with open(path, "w") as f:
            json.dump({"context": {}, "benchmarks": benchmarks}, f)
        paths.append(path)
    return subprocess.run([sys.executable, TOOL] + paths,
                          capture_output=True, text=True)


def line_of(out, name):
    return next(l for l in out.splitlines() if l.startswith(name + " "))


def main():
    failures = []

    def check(cond, message):
        if not cond:
            failures.append(message)

    with tempfile.TemporaryDirectory() as tmp:
        old = [bench("BM_Same", 100.0), bench("BM_Faster", 100.0),
               bench("BM_Slower", 100.0), bench("BM_Units", 2.0, "us"),
               bench("BM_Gone", 5.0),
               bench("BM_Rep", 10.0, repetitions=3),
               bench("BM_Rep", 11.0, repetitions=3),
               bench("BM_Rep", 99.0, repetitions=3)]
        new = [bench("BM_Same", 114.0), bench("BM_Faster", 40.0),
               bench("BM_Slower", 130.0), bench("BM_Units", 2100.0),
               bench("BM_New", 1.0),
               bench("BM_Rep_median", 12.0, run_name="BM_Rep",
                     run_type="aggregate", aggregate_name="median"),
               bench("BM_Rep_mean", 500.0, run_name="BM_Rep",
                     run_type="aggregate", aggregate_name="mean")]
        r = run(old, new, tmp)
        check(r.returncode == 1, "a slowdown must exit 1, got %d:\n%s%s" %
              (r.returncode, r.stdout, r.stderr))
        out = r.stdout
        check(line_of(out, "BM_Slower").endswith("1.30 SLOWER"),
              "BM_Slower not flagged:\n" + out)
        check("SLOWER" not in line_of(out, "BM_Same"),
              "14% slower must pass:\n" + out)
        check(line_of(out, "BM_Faster").endswith("0.40"),
              "BM_Faster ratio wrong:\n" + out)
        check(line_of(out, "BM_Units").endswith("1.05"),
              "us not normalized to ns:\n" + out)
        # old: median of 10, 11, 99 = 11; new: the median aggregate 12.
        check(line_of(out, "BM_Rep").endswith("1.09"),
              "repetitions not reduced to medians:\n" + out)
        check("only in OLD: BM_Gone" in out and "only in NEW: BM_New" in out,
              "one-sided names not listed:\n" + out)
        check("1 of 5 benchmarks more than 15% slower" in out,
              "summary line wrong:\n" + out)

        r = run([bench("BM_A", 100.0)], [bench("BM_A", 90.0)], tmp)
        check(r.returncode == 0, "no slowdown must exit 0:\n" + r.stdout)

        missing = os.path.join(tmp, "missing.json")
        r = subprocess.run([sys.executable, TOOL, missing, missing],
                           capture_output=True, text=True)
        check(r.returncode == 2, "unreadable input must exit 2")

    for f in failures:
        print("FAIL: " + f)
    print("bench_compare_test: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
