#!/usr/bin/env python3
"""Figure and example goldens: every deterministic figure and
simulator-ablation binary's --smoke stdout, and every example's stdout,
byte for byte against a checked-in file.

    python3 tests/tools/figure_goldens_test.py BENCH_DIR EXAMPLES_DIR

BENCH_DIR is a build's bench/ directory (build/bench) and EXAMPLES_DIR
its examples/ directory (build/examples). Each file
tests/goldens/NAME.txt is the expected stdout of `BENCH_DIR/NAME
--smoke`; each file tests/goldens/examples/NAME.txt is the expected
stdout of `EXAMPLES_DIR/NAME`, run with tests/goldens/examples/NAME.in
on stdin when that file exists and with an empty stdin otherwise. The
binary must exit 0 and print exactly its golden. On a mismatch the
script prints a unified diff per binary and exits 1.

The binaries run concurrently, one per CPU; failures are reported in
a fixed order (figures, then examples, each by name). The binaries
are seeded and deterministic, so any
difference is a behaviour change. fig5 (its columns are timings) and
the live-ring benches have no golden. A change that moves a figure or
an example on purpose re-records the file from the new binary,

    build/bench/NAME --smoke > tests/goldens/NAME.txt
    build/examples/NAME < /dev/null > tests/goldens/examples/NAME.txt
    build/examples/sql_shell < tests/goldens/examples/sql_shell.in \\
        > tests/goldens/examples/sql_shell.txt

and says why in CHANGES.md.

Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import concurrent.futures
import difflib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(os.path.dirname(HERE), "goldens")
EXAMPLE_GOLDEN_DIR = os.path.join(GOLDEN_DIR, "examples")
# A run under the sanitizers is several times slower than a normal one.
TIMEOUT_S = 600
# Longest diff printed per binary (scenario_matrix is one JSON line).
MAX_DIFF_CHARS = 3000


def first_difference(want, got):
    """Line and byte of the first difference, with context."""
    at = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b),
              min(len(want), len(got)))
    lo = max(0, at - 60)
    return "first difference at line %d, byte %d:\n  golden: %r\n  output: %r" % (
        want.count("\n", 0, at) + 1, at, want[lo:at + 60], got[lo:at + 60])


def read(path):
    with open(path) as f:
        return f.read()


def check(command, golden, stdin_path=None):
    """Runs COMMAND (binary first) with the file STDIN_PATH, or nothing,
    on stdin and returns an error message, or None if its stdout matches
    the file GOLDEN."""
    label = " ".join([os.path.basename(command[0])] + command[1:])
    if not os.path.isfile(command[0]):
        return "%s: no binary at %s" % (label, command[0])
    want = read(golden)
    run = subprocess.run(command, input=read(stdin_path) if stdin_path else "",
                         capture_output=True, text=True, timeout=TIMEOUT_S)
    if run.returncode != 0:
        return "%s exited %d:\n%s" % (label, run.returncode,
                                      run.stderr[-2000:])
    if run.stdout == want:
        return None
    golden_name = os.path.relpath(golden, GOLDEN_DIR)
    diff = "".join(difflib.unified_diff(want.splitlines(True),
                                        run.stdout.splitlines(True),
                                        "goldens/" + golden_name, label))
    if len(diff) > MAX_DIFF_CHARS:
        diff = diff[:MAX_DIFF_CHARS] + "\n[... diff truncated]\n"
    return "%s differs from its golden; %s\n%s" % (
        label, first_difference(want, run.stdout), diff)


def golden_names(directory):
    return sorted(f[:-len(".txt")] for f in os.listdir(directory)
                  if f.endswith(".txt"))


def main():
    if len(sys.argv) != 3:
        print("usage: figure_goldens_test.py BENCH_DIR EXAMPLES_DIR",
              file=sys.stderr)
        return 2
    bench_dir, examples_dir = sys.argv[1:]
    cases = []
    for name in golden_names(GOLDEN_DIR):
        cases.append(([os.path.join(bench_dir, name), "--smoke"],
                      os.path.join(GOLDEN_DIR, name + ".txt"), None))
    for name in golden_names(EXAMPLE_GOLDEN_DIR):
        script = os.path.join(EXAMPLE_GOLDEN_DIR, name + ".in")
        cases.append(([os.path.join(examples_dir, name)],
                      os.path.join(EXAMPLE_GOLDEN_DIR, name + ".txt"),
                      script if os.path.isfile(script) else None))
    if not cases:
        print("no goldens in " + GOLDEN_DIR, file=sys.stderr)
        return 2
    with concurrent.futures.ThreadPoolExecutor(os.cpu_count()) as pool:
        failures = [e for e in pool.map(lambda case: check(*case), cases) if e]
    for failure in failures:
        print(failure)
    print("%d/%d figure and example goldens match" % (
        len(cases) - len(failures), len(cases)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
