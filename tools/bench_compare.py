#!/usr/bin/env python3
"""Compare two google-benchmark JSON files, benchmark by benchmark.

    python3 tools/bench_compare.py OLD.json NEW.json

Both files come from `micro_bench --benchmark_format=json` (the
checked-in baseline is BENCH_micro.json). For every benchmark name in
either file it prints the CPU time per iteration in OLD and NEW, each
with its spread, and the ratio NEW/OLD; a ratio above 1.15 (more than
15% slower) is flagged SLOWER. Names present in only one file are
listed, not compared. With repetitions the median aggregate is used
when present, otherwise the median of the repetitions. A spread is the
interquartile range of the repetitions over their median, or, when the
file holds only aggregates, the stddev aggregate over the median; a
single run has none ("-"). The spread is printed, not used in the flag.

Exit status: 0 when nothing is flagged, 1 when some benchmark is
flagged, 2 on unreadable input. Standard library only.
"""

import json
import statistics
import sys

THRESHOLD = 1.15
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path):
    """Maps benchmark name -> (CPU ns per iteration, spread or None)."""
    with open(path) as f:
        data = json.load(f)
    aggregates = {}
    runs = {}
    for b in data.get("benchmarks", []):
        ns = float(b["cpu_time"]) * NS_PER_UNIT[b.get("time_unit", "ns")]
        name = b.get("run_name", b["name"])
        if b.get("run_type") == "aggregate":
            aggregates.setdefault(name, {})[b.get("aggregate_name")] = ns
        else:
            runs.setdefault(name, []).append(ns)
    rows = {}
    for name in set(runs) | set(aggregates):
        agg = aggregates.get(name, {})
        reps = runs.get(name, [])
        if "median" in agg:
            ns = agg["median"]
        elif reps:
            ns = statistics.median(reps)
        else:
            continue  # aggregates without a median
        spread = None
        if ns > 0 and len(reps) > 1:
            q1, _, q3 = statistics.quantiles(reps, n=4, method="inclusive")
            spread = (q3 - q1) / ns
        elif ns > 0 and "stddev" in agg:
            spread = agg["stddev"] / ns
        rows[name] = (ns, spread)
    return rows


def fmt_ns(ns):
    return "%.1f" % ns if ns < 1e4 else "%.0f" % ns


def fmt_spread(spread):
    return "-" if spread is None else "%.1f%%" % (100 * spread)


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
        (old_ns, old_spread), (new_ns, new_spread) = old[name], new[name]
        ratio = new_ns / old_ns if old_ns > 0 else float("inf")
        note = "SLOWER" if ratio > THRESHOLD else ""
        flagged += note != ""
        rows.append((name, fmt_ns(old_ns), fmt_spread(old_spread),
                     fmt_ns(new_ns), fmt_spread(new_spread),
                     "%.2f" % ratio, note))
    width = max([len("benchmark")] + [len(r[0]) for r in rows])
    header = ("benchmark", "old cpu ns", "spread", "new cpu ns", "spread",
              "new/old")
    line = "%-*s %12s %7s %12s %7s %7s"
    print(line % ((width,) + header))
    for row in rows:
        print((line % ((width,) + row[:-1]) + " " + row[-1]).rstrip())
    for label, only in (("OLD", set(old) - set(new)),
                        ("NEW", set(new) - set(old))):
        for name in sorted(only):
            print("only in %s: %s" % (label, name))
    print("%d of %d benchmarks more than %d%% slower" %
          (flagged, len(rows), round((THRESHOLD - 1) * 100)))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
