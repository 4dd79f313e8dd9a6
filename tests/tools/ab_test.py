#!/usr/bin/env python3
"""Tests for tools/ab.py on scripted numbers.

Checks the quartiles, the win count with ties, each verdict (gain,
regression, unresolved, identical, within bound) for a higher-is-better
and a lower-is-better metric, that pairs alternate which side runs
first and give both sides the same seed, and that the report fails on
a regression or a failed operation. The --micro path is checked on
scripted google-benchmark JSON: time units, each row's median aggregate
taken and its other rows skipped, rows missing from a run, a row's
verdict, its user counters paired without a verdict, and its runner
asking for the repetitions on a shell script standing in for
micro_bench. The --cmd path is checked
on scripted wall times and stdout (the verdict, and a pair whose stdout
differs failing the report), its runner on a shell script standing in
for a built binary, and its arguments. No build and no benchmark run:
the other runners are fakes that replay scripted results.

Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import contextlib
import importlib.util
import io
import os
import stat
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(os.path.dirname(os.path.dirname(HERE)), "tools", "ab.py")

sys.dont_write_bytecode = True  # no __pycache__ beside tools/ab.py
spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

BENCH = {"end_to_end": [
    {"name": "queries_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]}


def result(qps, setup, failed=0, correct=True):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"queries_per_s": {"value": qps, "unit": "1/s"},
                        "setup_s": {"value": setup, "unit": "s"}}}


def micro_doc(rows, counters=None):
    """A google-benchmark JSON document of repeated runs reported as
    aggregates only, one row given as (name, median cpu_time, time_unit);
    its mean and stddev rows carry other values. counters maps a row's
    name to its user counters' medians."""
    doc = {"context": {}, "benchmarks": []}
    for n, t, u in rows:
        for agg, k in (("mean", 2.0), ("median", 1.0), ("stddev", 0.5)):
            row = {"name": n + "_" + agg, "family_index": 0,
                   "per_family_instance_index": 0, "run_name": n,
                   "run_type": "aggregate", "aggregate_name": agg,
                   "aggregate_unit": "time", "repetitions": 5,
                   "threads": 1, "iterations": 5, "real_time": t * k,
                   "cpu_time": t * k, "time_unit": u}
            for c, v in (counters or {}).get(n, {}).items():
                row[c] = v * k
            doc["benchmarks"].append(row)
    return doc


def main():
    failures = []

    def check(cond, message):
        if not cond:
            failures.append(message)

    # Quartiles interpolate between order statistics.
    check(ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0),
          "quartiles of 1..5: %s" % (ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]),))
    check(ab.quartiles([7.0]) == (7.0, 7.0, 7.0), "quartiles of one value")

    base = [100.0, 104.0, 96.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0]
    # 1.4x and better in every pair: a gain.
    s = ab.summarize(base, [v * 1.4 for v in base], "higher", 0.25)
    check(s["verdict"] == "gain" and s["wins"] == 10, "1.4x: %s" % s)
    check(abs(s["base_iqr"] - (101.75 - 98.25)) < 1e-9,
          "base IQR: %s" % s["base_iqr"])
    # Better in 8 of 10 only (two ties): not a gain, within bound.
    change = [v * 1.4 for v in base[:8]] + base[8:]
    s = ab.summarize(base, change, "higher", 0.25)
    check(s["verdict"] == "within bound" and s["wins"] == 8 and
          s["ties"] == 2, "8 of 10: %s" % s)
    # Better in every pair, but by less than the base's IQR.
    s = ab.summarize(base, [v + 1.0 for v in base], "higher", 0.25)
    check(s["verdict"] == "within bound" and s["wins"] == 10,
          "inside the IQR: %s" % s)
    # 30% worse: beyond the 0.25 bound.
    s = ab.summarize(base, [v * 0.7 for v in base], "higher", 0.25)
    check(s["verdict"] == "regression" and s["losses"] == 10,
          "0.7x: %s" % s)
    # The same value in every pair: identical, however wide the spread.
    s = ab.summarize(base, list(base), "higher", 0.01)
    check(s["verdict"] == "identical" and s["ties"] == 10,
          "identical: %s" % s)
    # A base spread wider than the bound leaves the metric unresolved...
    wide = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    s = ab.summarize(wide, [v * 0.95 for v in wide], "higher", 0.1)
    check(s["verdict"] == "unresolved", "wide spread: %s" % s)
    # ...unless every change run beats every base run.
    s = ab.summarize(wide, [10.5] * 10, "higher", 0.1)
    check(s["verdict"] == "gain", "separated: %s" % s)
    s = ab.summarize(wide, [10.5 + i for i in range(10)], "lower", 0.1)
    check(s["verdict"] == "regression", "lower is better, higher: %s" % s)
    # Lower is better: a halved time is a gain.
    s = ab.summarize(base, [v / 2 for v in base], "lower", 0.25)
    check(s["verdict"] == "gain" and s["wins"] == 10, "halved time: %s" % s)

    # Pairs alternate the first side and share a seed.
    calls = []
    script = {"base": iter(result(100.0 + i, 0.0020 + i * 1e-4)
                           for i in range(4)),
              "change": iter(result(140.0 + i, 0.0021 + i * 1e-4)
                             for i in range(4))}

    def runner(side, seed):
        calls.append((side, seed))
        return next(script[side])

    results = ab.run_pairs(runner, 4, 11, out=io.StringIO())
    check(calls == [("base", 11), ("change", 11), ("change", 12),
                    ("base", 12), ("base", 13), ("change", 13),
                    ("change", 14), ("base", 14)],
          "run order: %s" % calls)
    out = io.StringIO()
    check(ab.report(results, BENCH, 11, out=out), "clean report failed")
    text = out.getvalue()
    check("queries_per_s" in text and "GAIN" in text,
          "report lacks the gain:\n" + text)
    check("setup_s" in text and "WITHIN BOUND" in text,
          "report lacks setup_s:\n" + text)

    # A regression or a failed operation fails the report.
    slow = {"base": [result(100.0, 0.002)] * 3,
            "change": [result(60.0, 0.002)] * 3}
    out = io.StringIO()
    check(not ab.report(slow, BENCH, 1, out=out),
          "regression passed:\n" + out.getvalue())
    lossy = {"base": [result(100.0, 0.002)] * 3,
             "change": [result(100.0, 0.002, failed=1)] * 3}
    out = io.StringIO()
    check(not ab.report(lossy, BENCH, 1, out=out),
          "failed operations passed:\n" + out.getvalue())
    check("change: 3 of 300 operations failed" in out.getvalue(),
          "failure count missing:\n" + out.getvalue())

    # --micro: CPU ns of each row's median, other rows skipped, units
    # converted.
    doc = micro_doc([("BM_A/1", 2.5, "us"), ("BM_B", 40.0, "ns")])
    doc["benchmarks"].append({"name": "BM_A/1", "run_name": "BM_A/1",
                              "run_type": "iteration", "iterations": 1000,
                              "real_time": 9.0, "cpu_time": 9.0,
                              "time_unit": "us"})
    check(ab.micro_times(doc) == {"BM_A/1": 2500.0, "BM_B": 40.0},
          "micro times: %s" % ab.micro_times(doc))

    # Pairs without seeds: the runner gets None, sides still alternate.
    calls = []
    fast = iter([micro_doc([("BM_Route", 30.0 + i, "us"),
                            ("BM_Hash", 340.0 + i, "ns"),
                            ("BM_Once", 1.0, "ns")]) for i in range(10)])
    slow = iter([micro_doc([("BM_Route", 22.0 + i, "us"),
                            ("BM_Hash", 500.0 + i, "ns")]) for i in range(10)])

    def micro_runner(side, seed):
        calls.append((side, seed))
        return next(fast if side == "base" else slow)

    results = ab.run_pairs(micro_runner, 10, None, out=io.StringIO())
    check(calls[:4] == [("base", None), ("change", None), ("change", None),
                        ("base", None)], "micro run order: %s" % calls[:4])
    out = io.StringIO()
    check(not ab.micro_report(results, out=out),
          "a 1.47x slower row passed:\n" + out.getvalue())
    text = out.getvalue()
    lines = {line.split(" ")[0]: line for line in text.splitlines()}
    check("GAIN" in lines.get("BM_Route", "") and
          "change better in 10 of 10" in lines.get("BM_Route", ""),
          "micro gain row:\n" + text)
    check("REGRESSION" in lines.get("BM_Hash", ""),
          "micro regression row:\n" + text)
    check("BM_Once" not in lines, "a row only one side ran:\n" + text)
    check("base 34.5k (quartiles" in lines.get("BM_Route", ""),
          "micro medians in ns:\n" + text)

    # --micro user counters: each row's median aggregate, every counter
    # paired under its row with no verdict, and a counter only some runs
    # report left out. Only time fails the report.
    doc = micro_doc([("BM_A", 2.0, "ms")],
                    {"BM_A": {"publish_ns": 600.0, "bytes_per_peer": 93}})
    check(ab.micro_counters(doc) ==
          {"BM_A": {"publish_ns": 600.0, "bytes_per_peer": 93.0}},
          "micro counters: %s" % ab.micro_counters(doc))
    base_docs = [micro_doc([("BM_Run", 40.0, "ms")],
                           {"BM_Run": {"publish_ns": 700.0 + i,
                                       "bytes_per_peer": 93,
                                       "items_per_second": 5e5}})
                 for i in range(10)]
    change_docs = [micro_doc([("BM_Run", 40.0, "ms")],
                             {"BM_Run": {"publish_ns": 350.0 + i,
                                         "bytes_per_peer": 104}})
                   for i in range(10)]
    change_docs[3]["benchmarks"][1]["publish_ns"] = 703.0  # one tie
    out = io.StringIO()
    check(ab.micro_report({"base": base_docs, "change": change_docs},
                          out=out),
          "counters failed a report whose time held:\n" + out.getvalue())
    text = out.getvalue()
    counter_lines = {line.split(":")[0].strip(): line
                     for line in text.splitlines() if line.startswith("  ")}
    check("BM_Run (ns" in text and "IDENTICAL" in text,
          "counter row's time line:\n" + text)
    check("change lower in 9 of 10 pairs (1 ties)" in
          counter_lines.get("publish_ns", "") and
          "base 704.5 (quartiles" in counter_lines.get("publish_ns", ""),
          "publish_ns counter line:\n" + text)
    check("base 93.000 (quartiles 93.000-93.000) -> change 104.0 " in
          counter_lines.get("bytes_per_peer", "") and
          "change lower in 0 of 10 pairs (0 ties)" in
          counter_lines.get("bytes_per_peer", ""),
          "bytes_per_peer counter line:\n" + text)
    check("items_per_second" not in counter_lines,
          "a counter only the base reported:\n" + text)
    check(all("GAIN" not in line and "REGRESSION" not in line
              for line in counter_lines.values()),
          "a counter got a verdict:\n" + text)

    # --cmd: wall seconds per pair, and stdout compared in every pair.
    def cmd_results(change_times, change_out):
        return {"base": [{"wall_s": 8.0 + 0.1 * i, "stdout": b"table\n"}
                         for i in range(10)],
                "change": [{"wall_s": t, "stdout": o}
                           for t, o in zip(change_times, change_out)]}

    out = io.StringIO()
    check(ab.cmd_report(cmd_results([5.0 + 0.1 * i for i in range(10)],
                                     [b"table\n"] * 10), out=out),
          "a faster command with the same stdout failed:\n" + out.getvalue())
    text = out.getvalue()
    check("wall_s (s, lower is better" in text and "GAIN" in text and
          "change better in 10 of 10 pairs" in text,
          "cmd gain line:\n" + text)
    check("pair 1: base 8.000 s, change 5.000 s, stdout identical" in text,
          "cmd pair line:\n" + text)
    check("stdout byte-identical in 10 of 10 pairs" in text,
          "cmd stdout count:\n" + text)
    out = io.StringIO()
    check(not ab.cmd_report(cmd_results([8.0 + 0.1 * i for i in range(10)],
                                        [b"table\n"] * 9 + [b"tablE\n"]),
                            out=out),
          "a pair with a different stdout passed:\n" + out.getvalue())
    text = out.getvalue()
    check("pair 10: base 8.900 s, change 8.900 s, stdout DIFFERS" in text and
          "stdout byte-identical in 9 of 10 pairs" in text,
          "cmd stdout mismatch:\n" + text)
    out = io.StringIO()
    check(not ab.cmd_report(cmd_results([12.0] * 10, [b"table\n"] * 10),
                            out=out),
          "a 1.4x slower command passed:\n" + out.getvalue())
    check("REGRESSION" in out.getvalue(), "cmd regression:\n" +
          out.getvalue())

    # The runner runs the command from each side's build directory.
    with tempfile.TemporaryDirectory() as work:
        builds = {}
        for side in ("base", "change"):
            builds[side] = os.path.join(work, side)
            os.makedirs(os.path.join(builds[side], "bench"))
            script = os.path.join(builds[side], "bench", "fig")
            with open(script, "w") as f:
                f.write("#!/bin/sh\necho \"$1 from $(basename \"$PWD\")\"\n")
            os.chmod(script, os.stat(script).st_mode | stat.S_IXUSR)
        run = ab.cmd_runner(builds, ["bench/fig", "--smoke"])
        got = {side: run(side, None) for side in ("base", "change")}
        check(got["base"]["stdout"] == b"--smoke from base\n" and
              got["change"]["stdout"] == b"--smoke from change\n",
              "cmd runner stdout: %s" % got)
        check(all(r["wall_s"] > 0 for r in got.values()),
              "cmd runner wall time: %s" % got)

    # The micro runner asks micro_bench for the repetitions' aggregates.
    with tempfile.TemporaryDirectory() as work:
        script = os.path.join(work, "micro_bench")
        with open(script, "w") as f:
            f.write("#!/bin/sh\nprintf '{\"benchmarks\": [{\"name\": "
                    "\"%s\"}]}' \"$*\"\n")
        os.chmod(script, os.stat(script).st_mode | stat.S_IXUSR)
        run = ab.micro_runner({"base": script}, "BM_X")
        args = run("base", None)["benchmarks"][0]["name"].split()
        check(args == ["--benchmark_filter=BM_X", "--benchmark_format=json",
                       "--benchmark_repetitions=5",
                       "--benchmark_report_aggregates_only=true"],
              "micro runner arguments: %s" % args)

    # --seconds is for --workload only, and --cmd needs a command.
    for argv in (["--cmd", "bench/fig", "--seconds", "3"], ["--cmd", " "]):
        code = None
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                ab.main(["--base", "a", "--change", "b", "--pairs", "2"] + argv)
            except SystemExit as e:
                code = e.code
        check(code == 2, "%s exited %s, not 2" % (argv, code))

    for f in failures:
        print("FAIL: " + f)
    print("%d failures" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
