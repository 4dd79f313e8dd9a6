#!/usr/bin/env python3
"""Run a perfbench workload, micro_bench rows or a built command on two
revisions, in alternating pairs.

    python3 tools/ab.py --base REV --change REV --workload NAME --pairs N
                        [--seconds S] [--seed0 K]
    python3 tools/ab.py --base REV --change REV --micro FILTER --pairs N
    python3 tools/ab.py --base REV --change REV --cmd COMMAND --pairs N

Each revision is exported with `git archive` into its own directory
under a fresh temporary work directory (under $TMPDIR, outside the
repository).

With --workload, `perfbench/run.py` runs there, so each tree is built
once, by its first run. Pair i runs seed K + i on both sides (K defaults
to 1, S to BENCHMARK.json's run_seconds); the base runs first in even
pairs and the change in odd ones. It prints one row per pair, then for
each of BENCHMARK.json's end-to-end metrics each side's median and
quartiles, how many pairs the change won (ties count for neither), the
base's interquartile range and a verdict by the benchmark's rules:

  gain         the change is better in at least 9 of 10 pairs, and its
               median beats the base's by more than the base's IQR;
  regression   the change's median is worse than the base's by more
               than the metric's bound (a fraction of the base median);
  unresolved   the base's own IQR is wider than the bound, and not every
               change run beats every base run;
  identical    every pair read the same value on both sides;
  within bound otherwise.

With --micro, each tree's `micro_bench` is built first (a CMake build
in the tree, on every CPU), then this process pins itself to one CPU
and runs the benchmarks matching FILTER (google benchmark's
--benchmark_filter) once per side per pair, alternating as above, each
run repeating every row MICRO_REPETITIONS times. Each benchmark row's
median over those repetitions is that pair's sample; it gets the same
statistics and verdict on CPU time per iteration, with MICRO_BOUND as
its bound (bench_compare.py's flag). Under each row, every user counter
the row reports in every run (a stage's ns, bytes_per_peer) gets each
side's median and quartiles and the number of pairs in which the
change read lower; only the time gets a verdict.

With --cmd, COMMAND is a path relative to a build directory and its
arguments, e.g. 'bench/fig11_load_balance --smoke'. The file name is
the CMake target: each tree builds it, then every pair runs the command
from each tree's build directory, alternating as above, unpinned. It
prints each pair's wall seconds, their statistics and verdict with
MICRO_BOUND as the bound, and in how many pairs the two sides' stdout
was byte-identical.

Exit status: 0 when nothing regressed, no run failed and (--cmd) every
pair's stdout matched, 1 otherwise, 2 on bad arguments. The work
directory is removed at the end. Standard library only.
"""

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9
# A micro row's bound: bench_compare.py flags a row more than 15% slower.
MICRO_BOUND = 0.15
# Repetitions per micro run; a row's median over them is the pair's
# sample, as in CI's micro report.
MICRO_REPETITIONS = 5
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    """(Q1, median, Q3), interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base, change, better, bound):
    """Statistics and verdict for one metric over paired runs.

    base[i] and change[i] are pair i's values; better is "higher" or
    "lower"; bound is the fraction of the base median the change's
    median may be worse by.
    """
    assert len(base) == len(change) and base
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    iqr = b3 - b1
    gain = sign * (cmed - bmed)  # > 0: the change's median is better
    # Every change run better than every base run.
    separated = min(sign * c for c in change) > max(sign * b for b in base)
    if wins + losses == 0:
        verdict = "identical"
    elif wins >= WIN_SHARE * len(base) and gain > iqr:
        verdict = "gain"
    elif -gain > bound * abs(bmed):
        verdict = "regression"
    elif iqr > bound * abs(bmed) and not separated:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"base": (b1, bmed, b3), "change": (c1, cmed, c3), "wins": wins,
            "losses": losses, "ties": len(base) - wins - losses,
            "base_iqr": iqr, "verdict": verdict}


def fmt(value):
    magnitude = abs(value)
    if magnitude >= 1e4:
        return "%.1fk" % (value / 1e3)
    if magnitude >= 100:
        return "%.1f" % value
    if magnitude >= 1:
        return "%.3f" % value
    return "%.4g" % value


def ratio_text(base, change, better):
    if base == 0 or change == 0:
        return "n/a"
    ratio = change / base
    if abs(ratio - 1) < 1e-12:
        return "same"
    if better == "higher":
        return "%.2fx %s" % (max(ratio, 1 / ratio),
                             "higher" if ratio > 1 else "lower")
    return "%.2fx %s" % (max(ratio, 1 / ratio),
                         "lower" if ratio < 1 else "higher")


def verdict_line(name, unit, better, bound, s, pairs):
    """One metric's statistics and verdict, as summarize returned them."""
    return ("%s (%s, %s is better, bound %g): base %s (quartiles %s-%s) -> "
            "change %s (%s-%s), %s; change better in %d of %d pairs "
            "(%d ties); base IQR %s: %s" % (
                name, unit, better, bound, fmt(s["base"][1]),
                fmt(s["base"][0]), fmt(s["base"][2]), fmt(s["change"][1]),
                fmt(s["change"][0]), fmt(s["change"][2]),
                ratio_text(s["base"][1], s["change"][1], better), s["wins"],
                pairs, s["ties"], fmt(s["base_iqr"]), s["verdict"].upper()))


def run_pairs(runner, pairs, seed0, out=sys.stdout):
    """Runs `pairs` alternating pairs through runner(side, seed), which
    returns one run's result; returns {side: [result, ...]}. Pair i
    passes seed seed0 + i, or None when seed0 is None."""
    results = {"base": [], "change": []}
    for i in range(pairs):
        seed = None if seed0 is None else seed0 + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            results[side].append(runner(side, seed))
        print("pair %d%s done (%s first)" % (
            i + 1, "" if seed is None else " seed %d" % seed, order[0]),
              file=out, flush=True)
    return results


def report(results, spec, seed0, out=sys.stdout):
    """Prints the per-pair table and the per-metric verdicts; returns
    True when no metric regressed and every run succeeded."""
    metrics = spec["end_to_end"]
    names = [m["name"] for m in metrics]
    ok = True
    header = ["pair", "seed", "side"] + names + ["failed"]
    rows = []
    for i, (b, c) in enumerate(zip(results["base"], results["change"])):
        for side, r in (("base", b), ("change", c)):
            rows.append([str(i + 1), str(seed0 + i), side] +
                        [fmt(r["metrics"][n]["value"]) for n in names] +
                        ["%d/%d" % (r["failed"], r["attempted"])])
            if not r["correct"]:
                ok = False
    widths = [max(len(h), *(len(row[k]) for row in rows))
              for k, h in enumerate(header)]
    for row in [header] + rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)),
              file=out)
    print(file=out)
    for m in metrics:
        base = [r["metrics"][m["name"]]["value"] for r in results["base"]]
        change = [r["metrics"][m["name"]]["value"] for r in results["change"]]
        s = summarize(base, change, m["better"], m["bound"])
        print(verdict_line(m["name"], m["unit"], m["better"], m["bound"], s,
                           len(base)), file=out)
        ok = ok and s["verdict"] != "regression"
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print("%s: %d of %d operations failed" % (side, failed, attempted),
              file=out)
        ok = ok and failed == 0
    return ok


def median_rows(doc):
    """The median aggregate of each benchmark row of one google-benchmark
    JSON document: the row's sample for its pair."""
    return [b for b in doc["benchmarks"]
            if b.get("run_type") == "aggregate" and
            b.get("aggregate_name") == "median"]


def micro_times(doc):
    """Maps each benchmark row of one google-benchmark JSON document to
    the CPU ns per iteration of its median aggregate."""
    return {b["run_name"]: float(b["cpu_time"]) * NS_PER_UNIT[b["time_unit"]]
            for b in median_rows(doc)}


# Fields of a google-benchmark row that are not user counters.
BENCHMARK_FIELDS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads",
    "aggregate_name", "aggregate_unit", "iterations", "real_time",
    "cpu_time", "time_unit", "label", "error_occurred", "error_message"}


def micro_counters(doc):
    """Maps each benchmark row of one google-benchmark JSON document to
    the user counters of its median aggregate, {counter: value}."""
    return {b["run_name"]: {k: float(v) for k, v in b.items()
                            if k not in BENCHMARK_FIELDS and
                            isinstance(v, (int, float)) and
                            not isinstance(v, bool)}
            for b in median_rows(doc)}


def counter_line(name, base, change):
    """One user counter's medians and quartiles per side, and in how many
    pairs the change read lower. No verdict: a counter may be better
    higher or lower."""
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    lower = sum(1 for b, c in zip(base, change) if c < b)
    ties = sum(1 for b, c in zip(base, change) if c == b)
    ratio = "%.3fx" % (cmed / bmed) if bmed != 0 else "n/a"
    return ("  %s: base %s (quartiles %s-%s) -> change %s (%s-%s), %s; "
            "change lower in %d of %d pairs (%d ties)" % (
                name, fmt(bmed), fmt(b1), fmt(b3), fmt(cmed), fmt(c1),
                fmt(c3), ratio, lower, len(base), ties))


def micro_report(results, out=sys.stdout):
    """Prints, for every row both sides ran in every pair, the medians,
    quartiles, win count and verdict, then the same statistics, without
    a verdict, for each user counter every run of the row reported;
    returns True when no row's time regressed."""
    times = {side: [micro_times(doc) for doc in results[side]]
             for side in ("base", "change")}
    counters = {side: [micro_counters(doc) for doc in results[side]]
                for side in ("base", "change")}
    runs = times["base"] + times["change"]
    names = [n for n in times["base"][0] if all(n in r for r in runs)]
    ok = True
    for name in names:
        base = [r[name] for r in times["base"]]
        change = [r[name] for r in times["change"]]
        s = summarize(base, change, "lower", MICRO_BOUND)
        print(verdict_line(name, "ns", "lower", MICRO_BOUND, s, len(base)),
              file=out)
        ok = ok and s["verdict"] != "regression"
        row_counters = [r[name] for r in counters["base"] + counters["change"]]
        for counter in sorted(row_counters[0]):
            if not all(counter in r for r in row_counters):
                continue
            print(counter_line(
                counter, [r[name][counter] for r in counters["base"]],
                [r[name][counter] for r in counters["change"]]), file=out)
    return ok


def cmd_report(results, out=sys.stdout):
    """Prints each pair's wall seconds, their statistics and verdict, and
    in how many pairs stdout was byte-identical; returns True when the
    time did not regress and stdout matched in every pair."""
    base = [r["wall_s"] for r in results["base"]]
    change = [r["wall_s"] for r in results["change"]]
    same = [b["stdout"] == c["stdout"]
            for b, c in zip(results["base"], results["change"])]
    for i, (b, c, match) in enumerate(zip(base, change, same)):
        print("pair %d: base %.3f s, change %.3f s, stdout %s" % (
            i + 1, b, c, "identical" if match else "DIFFERS"), file=out)
    s = summarize(base, change, "lower", MICRO_BOUND)
    print(verdict_line("wall_s", "s", "lower", MICRO_BOUND, s, len(base)),
          file=out)
    print("stdout byte-identical in %d of %d pairs" % (sum(same), len(same)),
          file=out)
    return s["verdict"] != "regression" and all(same)


def build_target(tree, target):
    """Builds CMake target `target` in `tree`; returns the build
    directory."""
    build = os.path.join(tree, "build")
    for cmd in (["cmake", "-S", tree, "-B", build,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", build, "--target", target, "-j",
                 str(os.cpu_count() or 1)]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise RuntimeError("%s exited %d" % (" ".join(cmd),
                                                 proc.returncode))
    return build


def cmd_runner(builds, argv):
    """Runs argv, whose first word is a path relative to the build
    directory, from each side's build directory; returns its wall
    seconds and stdout."""
    def run(side, _seed):
        started = time.monotonic()
        proc = subprocess.run(
            [os.path.join(builds[side], argv[0])] + argv[1:],
            cwd=builds[side], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        wall_s = time.monotonic() - started
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:].decode(errors="replace"))
            raise RuntimeError("%s %s exited %d" % (side, argv[0],
                                                    proc.returncode))
        return {"wall_s": wall_s, "stdout": proc.stdout}
    return run


def micro_runner(binaries, pattern):
    def run(side, _seed):
        proc = subprocess.run(
            [binaries[side], "--benchmark_filter=" + pattern,
             "--benchmark_format=json",
             "--benchmark_repetitions=%d" % MICRO_REPETITIONS,
             "--benchmark_report_aggregates_only=true"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError("%s micro_bench exited %d" %
                               (side, proc.returncode))
        doc = json.loads(proc.stdout)
        if not doc["benchmarks"]:
            raise RuntimeError("no micro_bench row matches %r" % pattern)
        return doc
    return run


def export(rev, dest):
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def perfbench_runner(trees, workload, seconds):
    env = dict(os.environ)
    # run.py puts its build under $CARGO_TARGET_DIR when set; unset, each
    # tree builds under its own .bench_build.
    env.pop("CARGO_TARGET_DIR", None)

    def run(side, seed):
        # run.py's build log and progress go to stderr: shown on failure.
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
            cwd=trees[side], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0 or not lines[-1].startswith("{"):
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError("%s seed %d: run.py exited %d" %
                               (side, seed, proc.returncode))
        return json.loads(lines[-1])
    return run


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", required=True)
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload")
    what.add_argument("--micro", metavar="FILTER")
    what.add_argument("--cmd", metavar="COMMAND")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.workload is None and args.seconds is not None:
        parser.error("--seconds applies to --workload only")
    argv_cmd = shlex.split(args.cmd) if args.cmd is not None else None
    if argv_cmd is not None and not argv_cmd:
        parser.error("--cmd needs a command")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not seconds > 0:
        parser.error("--seconds must be positive")

    work = tempfile.mkdtemp(prefix="p2prange-ab-")
    try:
        trees = {}
        for side, rev in (("base", args.base), ("change", args.change)):
            trees[side] = os.path.join(work, side)
            export(rev, trees[side])
        if argv_cmd is not None:
            target = os.path.basename(argv_cmd[0])
            builds = {side: build_target(tree, target)
                      for side, tree in trees.items()}
            print("base %s, change %s, command %r, %d pairs" % (
                args.base, args.change, args.cmd, args.pairs), flush=True)
            results = run_pairs(cmd_runner(builds, argv_cmd), args.pairs,
                                None)
            return 0 if cmd_report(results) else 1
        if args.micro is not None:
            binaries = {side: os.path.join(build_target(tree, "micro_bench"),
                                           "bench", "micro_bench")
                        for side, tree in trees.items()}
            cpu = max(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpu})
            print("base %s, change %s, micro_bench rows %r, %d pairs on CPU "
                  "%d" % (args.base, args.change, args.micro, args.pairs, cpu),
                  flush=True)
            results = run_pairs(micro_runner(binaries, args.micro),
                                args.pairs, None)
            return 0 if micro_report(results) else 1
        print("base %s, change %s, workload %s, %d pairs of %g s, seeds "
              "%d-%d" % (args.base, args.change, args.workload, args.pairs,
                         seconds, args.seed0, args.seed0 + args.pairs - 1),
              flush=True)
        results = run_pairs(perfbench_runner(trees, args.workload, seconds),
                            args.pairs, args.seed0)
        return 0 if report(results, spec, args.seed0) else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
