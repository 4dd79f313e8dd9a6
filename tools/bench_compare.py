#!/usr/bin/env python3
"""Compare two google-benchmark JSON files, benchmark by benchmark.

    python3 tools/bench_compare.py OLD.json NEW.json

Both files come from `micro_bench --benchmark_format=json` (the
checked-in baseline is BENCH_micro.json). For every benchmark name in
either file it prints the CPU time per iteration in OLD and NEW and the
ratio NEW/OLD; a ratio above 1.15 (more than 15% slower) is flagged
SLOWER. Names present in only one file are listed, not compared. With
repetitions the median aggregate is used when present, otherwise the
median of the repetitions.

Exit status: 0 when nothing is flagged, 1 when some benchmark is
flagged, 2 on unreadable input. Standard library only.
"""

import json
import statistics
import sys

THRESHOLD = 1.15
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path):
    """Maps benchmark name -> CPU ns per iteration."""
    with open(path) as f:
        data = json.load(f)
    medians = {}
    runs = {}
    for b in data.get("benchmarks", []):
        ns = float(b["cpu_time"]) * NS_PER_UNIT[b.get("time_unit", "ns")]
        name = b.get("run_name", b["name"])
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[name] = ns
        else:
            runs.setdefault(name, []).append(ns)
    times = {name: statistics.median(v) for name, v in runs.items()}
    times.update(medians)
    return times


def fmt_ns(ns):
    return "%.1f" % ns if ns < 1e4 else "%.0f" % ns


def main(argv):
    if len(argv) != 3:
        print("usage: bench_compare.py OLD.json NEW.json", file=sys.stderr)
        return 2
    try:
        old, new = load(argv[1]), load(argv[2])
    except (OSError, ValueError, KeyError) as e:
        print("bench_compare: %s" % e, file=sys.stderr)
        return 2
    rows = []
    flagged = 0
    for name in sorted(set(old) & set(new)):
        ratio = new[name] / old[name] if old[name] > 0 else float("inf")
        note = "SLOWER" if ratio > THRESHOLD else ""
        flagged += note != ""
        rows.append((name, fmt_ns(old[name]), fmt_ns(new[name]),
                     "%.2f" % ratio, note))
    width = max([len("benchmark")] + [len(r[0]) for r in rows])
    print("%-*s %12s %12s %7s" % (width, "benchmark", "old cpu ns",
                                  "new cpu ns", "new/old"))
    for name, o, n, ratio, note in rows:
        print(("%-*s %12s %12s %7s %s" % (width, name, o, n, ratio,
                                          note)).rstrip())
    for label, only in (("OLD", set(old) - set(new)),
                        ("NEW", set(new) - set(old))):
        for name in sorted(only):
            print("only in %s: %s" % (label, name))
    print("%d of %d benchmarks more than %d%% slower" %
          (flagged, len(rows), round((THRESHOLD - 1) * 100)))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
