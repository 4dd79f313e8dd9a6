#!/usr/bin/env python3
"""Golden-corpus test for tools/p2prange_lint.py.

Three assertions:
  1. On the corpus tree (one deliberate violation file per rule plus a
     clean file), the linter reports *exactly* the findings in
     expected.txt — same files, same rule ids, same line numbers — and
     exits 1. A linter that stops firing on a known-bad snippet is a
     broken gate, not a quiet success.
  2. Every rule id (P2P000–P2P009) appears at least once in the corpus
     output, so adding a rule without a corpus snippet fails loudly.
  3. On the corpus's clean file alone, the linter exits 0 with no
     output.
  4. Spot checks for the concurrency rules: P2P007 and P2P008 fire on
     the exact lines of their bad snippets, and their near-miss lines
     (the annotated layer itself; blocking after the lock scope closes)
     stay silent.

Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINTER = os.path.join(REPO, "tools", "p2prange_lint.py")
CORPUS = os.path.join(HERE, "corpus", "tree")
EXPECTED = os.path.join(HERE, "corpus", "expected.txt")

ALL_RULES = ["P2P000", "P2P001", "P2P002", "P2P003", "P2P004", "P2P005",
             "P2P006", "P2P007", "P2P008", "P2P009"]

# Exact (file, line, rule) anchors for the concurrency rules — the
# corpus comments label these lines, so a drifting linter (off-by-one
# scope scan, missed primitive) fails here with a precise message.
CONCURRENCY_ANCHORS = [
    ("src/rpc/bad_raw_mutex.cc", 8, "P2P007"),    # std::mutex field
    ("src/rpc/bad_raw_mutex.cc", 9, "P2P007"),    # std::condition_variable
    ("src/rpc/bad_raw_mutex.cc", 15, "P2P007"),   # std::lock_guard
    ("src/rpc/bad_raw_mutex.cc", 20, "P2P007"),   # std::unique_lock
    ("src/rpc/bad_lock_io.cc", 16, "P2P008"),     # ::poll under MutexLock
    ("src/rpc/bad_lock_io.cc", 17, "P2P008"),     # ::usleep under MutexLock
    ("src/rpc/bad_lock_io.cc", 23, "P2P008"),     # ::poll under ReaderMutexLock
    ("src/store/bad_lock_disk_io.cc", 20, "P2P008"),  # ::read
    ("src/store/bad_lock_disk_io.cc", 25, "P2P008"),  # ::write
    ("src/store/bad_lock_disk_io.cc", 30, "P2P008"),  # ::fsync
    ("src/store/bad_lock_disk_io.cc", 35, "P2P008"),  # ::fdatasync
    ("src/store/bad_lock_disk_io.cc", 40, "P2P008"),  # ::rename
    ("src/store/bad_lock_disk_io.cc", 45, "P2P008"),  # std::rename
    ("src/store/bad_lock_disk_io.cc", 50, "P2P008"),  # std::ofstream opened
]
# Lines that must stay silent: the annotated-layer near-misses.
CONCURRENCY_SILENT = [
    ("src/rpc/bad_raw_mutex.cc", 26),  # p2prange::MutexLock is sanctioned
    ("src/rpc/bad_lock_io.cc", 35),    # blocking after the lock scope closed
    ("src/store/bad_lock_disk_io.cc", 61),  # file opened after the scope
]


def fail(msg):
    print("lint_test: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def run(args):
    proc = subprocess.run([sys.executable, LINTER] + args,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def main():
    rc, out = run(["--root", CORPUS])
    if rc != 1:
        fail("corpus run exited %d, want 1\n%s" % (rc, out))

    with open(EXPECTED, encoding="utf-8") as f:
        expected = f.read()
    if out != expected:
        import difflib
        diff = "\n".join(difflib.unified_diff(
            expected.splitlines(), out.splitlines(),
            "expected.txt", "actual", lineterm=""))
        fail("corpus findings diverge from golden file:\n%s" % diff)

    for rule in ALL_RULES:
        if rule + " " not in out and "for " + rule not in out:
            fail("rule %s has no firing corpus snippet" % rule)

    lines = out.splitlines()
    for rel, line_no, rule in CONCURRENCY_ANCHORS:
        prefix = "%s:%d: %s " % (rel, line_no, rule)
        if not any(l.startswith(prefix) for l in lines):
            fail("expected %s to fire at %s:%d" % (rule, rel, line_no))
    for rel, line_no in CONCURRENCY_SILENT:
        prefix = "%s:%d:" % (rel, line_no)
        if any(l.startswith(prefix) for l in lines):
            fail("near-miss line %s:%d must stay silent" % (rel, line_no))

    clean = os.path.join(CORPUS, "src", "core", "clean.cc")
    rc, out = run(["--root", CORPUS, clean])
    if rc != 0 or out:
        fail("clean file produced rc=%d output:\n%s" % (rc, out))

    print("lint_test: PASS (%d golden findings, %d rules)" %
          (len(expected.splitlines()), len(ALL_RULES)))


if __name__ == "__main__":
    main()
