#!/usr/bin/env python3
"""Figure goldens: every deterministic figure and simulator-ablation
binary's --smoke stdout, byte for byte against a checked-in file.

    python3 tests/tools/figure_goldens_test.py BENCH_DIR

BENCH_DIR is a build's bench/ directory (build/bench). Each file
tests/goldens/NAME.txt is the expected stdout of `BENCH_DIR/NAME
--smoke`; the binary must exit 0 and print exactly that. On a mismatch
the script prints a unified diff per binary and exits 1.

The binaries are seeded and deterministic, so any difference is a
behaviour change. fig5 (its columns are timings) and the live-ring
benches have no golden. A change that moves a figure on purpose
re-records the file from the new binary,

    build/bench/NAME --smoke > tests/goldens/NAME.txt

and says why in CHANGES.md.

Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import difflib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(os.path.dirname(HERE), "goldens")
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


def check(bench_dir, name):
    """Returns an error message, or None if NAME's output matches."""
    binary = os.path.join(bench_dir, name)
    if not os.path.isfile(binary):
        return "%s: no binary at %s" % (name, binary)
    with open(os.path.join(GOLDEN_DIR, name + ".txt")) as f:
        want = f.read()
    run = subprocess.run([binary, "--smoke"], capture_output=True, text=True,
                         timeout=TIMEOUT_S)
    if run.returncode != 0:
        return "%s --smoke exited %d:\n%s" % (name, run.returncode,
                                              run.stderr[-2000:])
    if run.stdout == want:
        return None
    diff = "".join(difflib.unified_diff(want.splitlines(True),
                                        run.stdout.splitlines(True),
                                        "goldens/%s.txt" % name,
                                        name + " --smoke"))
    if len(diff) > MAX_DIFF_CHARS:
        diff = diff[:MAX_DIFF_CHARS] + "\n[... diff truncated]\n"
    return "%s --smoke differs from its golden; %s\n%s" % (
        name, first_difference(want, run.stdout), diff)


def main():
    if len(sys.argv) != 2:
        print("usage: figure_goldens_test.py BENCH_DIR", file=sys.stderr)
        return 2
    names = sorted(f[:-len(".txt")] for f in os.listdir(GOLDEN_DIR)
                   if f.endswith(".txt"))
    if not names:
        print("no goldens in " + GOLDEN_DIR, file=sys.stderr)
        return 2
    failures = [e for e in (check(sys.argv[1], n) for n in names) if e]
    for failure in failures:
        print(failure)
    print("%d/%d figure goldens match" % (len(names) - len(failures),
                                          len(names)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
