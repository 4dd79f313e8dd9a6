#!/usr/bin/env python3
"""p2prange invariant linter: repo-specific rules clang-tidy cannot express.

Every rule is a project invariant documented in DESIGN.md ("Engineering
standards & static analysis"); the golden corpus under
tests/tools/corpus/ proves each one fires. Checks run on a
comment- and string-stripped view of each file, so a rule name in a
comment (like this docstring) never trips it.

Rules
  P2P001 no-exceptions        `throw` / `try` / `catch` anywhere under src/.
                              Library code reports failure as Status /
                              Result<T>; exceptions would bypass every
                              RETURN_NOT_OK chain and the -fno-exceptions
                              future.
  P2P002 rng-discipline       `rand()` / `srand()` / `std::random_device` /
                              `mt19937` outside src/common/random.*. All
                              randomness flows through p2prange::Rng so
                              every run is replayable from a 64-bit seed.
  P2P003 no-naked-new         `new` outside a WrapUnique(...) argument.
                              WrapUnique (src/common/memory.h) is the one
                              ownership-transfer spelling; everything else
                              is std::make_unique or a container.
  P2P004 no-dcheck-untrusted  DCHECK* / CHECK* on the untrusted-input
                              paths (src/wire/, src/rpc/ — including the
                              membership gossip/join decode paths —
                              src/store/wal*, src/store/snapshot*).
                              Wire- and disk-derived bytes are
                              attacker-controlled: validation there must
                              be a real branch returning Status. DCHECK
                              is compiled out of release builds; CHECK
                              is worse — it lets any peer that sends a
                              malformed body crash the daemon.
  P2P005 msg-nosignal         In socket code (src/, tools/): `::send()`
                              must pass MSG_NOSIGNAL in the same call, and
                              `::write()` on sockets is forbidden outright
                              — a peer that resets mid-write must surface
                              as an error, not kill the process with
                              SIGPIPE.
  P2P006 nonblock-cloexec     In socket code (src/, tools/): `::socket()`
                              must pass SOCK_NONBLOCK | SOCK_CLOEXEC in
                              the same statement, and plain `::accept()`
                              is forbidden in favour of `::accept4()`
                              carrying the same two flags. A blocking fd
                              stalls the single poll loop the moment one
                              peer trickles, and a leaked fd crosses the
                              fork/exec boundary into child daemons.
  P2P007 annotated-sync-only  Raw std synchronization primitives
                              (std::mutex and friends, lock_guard,
                              unique_lock, shared_lock, scoped_lock,
                              condition_variable) anywhere under src/.
                              Every lock is a p2prange::Mutex /
                              MutexLock / CondVar (src/common/sync.h),
                              so the clang thread-safety analysis and
                              the runtime lock-rank checks see every
                              acquisition in the tree. sync.h itself
                              wraps the std primitives behind per-line
                              suppressions — the only ones allowed.
  P2P008 no-block-under-lock  In src/ and tools/: a blocking call
                              (::poll, ::send, ::recv, ::connect,
                              ::nanosleep, ::usleep, ::read, ::write,
                              ::fsync, ::fdatasync, ::rename,
                              std::rename, or constructing a
                              std::ofstream, which opens its file)
                              while a MutexLock / ReaderMutexLock /
                              WriterMutexLock is in scope in the same
                              block. A lock held across a call that can
                              sleep on a peer or a disk turns one slow
                              peer or flush into a stalled worker pool:
                              copy what you need under the lock, do the
                              I/O outside it.
  P2P009 sim-below-rpc        `#include "rpc/..."` in a file under src/
                              outside src/rpc/. The simulator libraries
                              sit below the live RPC stack: the daemon
                              must not link the simulator, and the
                              simulator must not link the daemon's
                              transport. Matched on the raw line (the
                              stripped view blanks the quoted path), and
                              only where the stripped line still holds
                              the #include, so a commented-out include
                              is silent.

Suppression: append `// p2plint: allow(P2PNNN): <reason>` to the
offending line. The rule id is mandatory and the reason must be
non-empty; a malformed suppression is itself an error (P2P000).

Usage:
  tools/p2prange_lint.py                 # lint the repo (src tools tests
                                         # bench examples relative to the
                                         # script's parent directory)
  tools/p2prange_lint.py --root DIR      # lint DIR's tree instead (used
                                         # by the golden-corpus test)
  tools/p2prange_lint.py FILE...         # lint specific files (paths are
                                         # interpreted relative to the
                                         # root for scope rules)

Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

import argparse
import os
import re
import sys

SCAN_DIRS = ("src", "tools", "tests", "bench", "examples")
EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")

# Paths whose input is untrusted (network- or disk-derived bytes).
UNTRUSTED_PREFIXES = ("src/wire/", "src/rpc/")
UNTRUSTED_FILE_PATTERNS = (
    re.compile(r"^src/store/wal[^/]*$"),
    re.compile(r"^src/store/snapshot[^/]*$"),
)

SUPPRESS_RE = re.compile(
    r"//\s*p2plint:\s*allow\((P2P\d{3})\)\s*(?::\s*(.*?))?\s*$")

FINDINGS = []


def report(rel, line_no, rule, message):
    FINDINGS.append((rel, line_no, rule, message))


def strip_code(text):
    """Blanks comments and string/char literals, preserving layout.

    Replaced characters become spaces (newlines survive), so line and
    column numbers in the stripped text match the original. Handles
    //, /* */, "...", '...' with escapes, and R"delim(...)delim".
    """
    out = list(text)

    def blank(i):
        if out[i] != "\n":
            out[i] = " "

    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                blank(i)
                i += 1
        elif c == "/" and nxt == "*":
            blank(i)
            blank(i + 1)
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                blank(i)
                i += 1
            if i < n:
                blank(i)
                blank(i + 1)
                i += 2
        elif c == "R" and nxt == '"' and (i == 0
                                          or not (text[i - 1].isalnum()
                                                  or text[i - 1] == "_")):
            j = text.find("(", i + 2)
            if j < 0:
                break
            delim = text[i + 2:j]
            close = ')' + delim + '"'
            end = text.find(close, j + 1)
            end = n if end < 0 else end + len(close)
            while i < end:
                blank(i)
                i += 1
        elif c in "\"'":
            quote = c
            blank(i)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    blank(i)
                    i += 1
                blank(i)
                i += 1
            if i < n:
                blank(i)
                i += 1
        else:
            i += 1
    return "".join(out)


def parse_suppressions(rel, raw_lines):
    """Maps line number -> rule id for well-formed allow() comments."""
    allowed = {}
    for idx, line in enumerate(raw_lines, start=1):
        if "p2plint" not in line:
            continue
        m = SUPPRESS_RE.search(line)
        if not m:
            report(rel, idx, "P2P000",
                   "malformed p2plint suppression; use "
                   "`// p2plint: allow(P2PNNN): <reason>`")
            continue
        rule, reason = m.group(1), m.group(2)
        if not reason:
            report(rel, idx, "P2P000",
                   "p2plint suppression for %s lacks a reason" % rule)
            continue
        allowed.setdefault(idx, set()).add(rule)
    return allowed


def is_untrusted_path(rel):
    if any(rel.startswith(p) for p in UNTRUSTED_PREFIXES):
        return True
    return any(p.match(rel) for p in UNTRUSTED_FILE_PATTERNS)


WORD = re.compile(r"[A-Za-z0-9_]")


def preceded_by_wrap_unique(stripped, pos):
    """True when the `new` at `pos` is the first token inside
    WrapUnique( — i.e. scanning backwards over whitespace we find `(`
    preceded by the identifier WrapUnique."""
    i = pos - 1
    while i >= 0 and stripped[i] in " \t\n":
        i -= 1
    if i < 0 or stripped[i] != "(":
        return False
    i -= 1
    end = i + 1
    while i >= 0 and WORD.match(stripped[i]):
        i -= 1
    return stripped[i + 1:end].endswith("WrapUnique")


def statement_around(stripped, pos):
    """The text of the statement containing `pos` (between ;/{/} ends)."""
    start = max(stripped.rfind(";", 0, pos), stripped.rfind("{", 0, pos),
                stripped.rfind("}", 0, pos)) + 1
    end = stripped.find(";", pos)
    if end < 0:
        end = len(stripped)
    return stripped[start:end]


RE_EXCEPTION = re.compile(r"\b(throw|try|catch)\b")
RE_RNG = re.compile(r"\b(?:s?rand)\s*\(|(?:std\s*::\s*)?random_device\b|"
                    r"\bmt19937(?:_64)?\b")
RE_NEW = re.compile(r"\bnew\b(?!\s*\()")  # `new (nothrow)` has no home either
RE_DCHECK = re.compile(r"\bDCHECK(?:_EQ|_NE|_LT|_LE|_GT|_GE)?\s*\(")
# \bCHECK does not match the tail of DCHECK (no word boundary after D).
RE_CHECK = re.compile(r"\bCHECK(?:_EQ|_NE|_LT|_LE|_GT|_GE)?\s*\(")
RE_SEND = re.compile(r"::\s*send\s*\(")
RE_WRITE = re.compile(r"::\s*write\s*\(")
RE_SOCKET_HEADER = re.compile(r'#\s*include\s*<sys/socket\.h>')
RE_SOCKET_CALL = re.compile(r"::\s*socket\s*\(")
RE_ACCEPT = re.compile(r"::\s*accept\s*\(")
RE_ACCEPT4 = re.compile(r"::\s*accept4\s*\(")
RE_STD_SYNC = re.compile(
    r"\bstd\s*::\s*(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock|condition_variable|condition_variable_any)\b")
# A scoped-lock declaration: `MutexLock lock(&mu);` or brace-init.
RE_SCOPED_LOCK = re.compile(r"\b(?:Reader|Writer)?MutexLock\s+\w+\s*[({]")
RE_BLOCKING_CALL = re.compile(
    r"(?:\bstd\s*)?::\s*(?:poll|send|recv|connect|nanosleep|usleep|read|"
    r"write|fsync|fdatasync|rename)\s*\("
    # A std::ofstream opens its file when constructed with a path.
    r"|\bstd\s*::\s*ofstream\b(?=\s*(?:\w+\s*)?[({])")
RE_RPC_INCLUDE = re.compile(r'^\s*#\s*include\s*"rpc/')
RE_INCLUDE = re.compile(r"^\s*#\s*include\b")


def blocking_name(m):
    """How a P2P008 finding names the blocking call matched by `m`:
    `::poll()`, `std::rename()`, or `std::ofstream construction`."""
    text = re.sub(r"\s+", "", m.group(0))
    if text.endswith("("):
        return text + ")"
    return text + " construction"


def scoped_lock_span(stripped, m):
    """(start, end) of the region where the lock declared at `m` is
    held: from the end of its declaration to the close of the enclosing
    block (the scoped lock releases in its destructor there)."""
    i = m.end()
    if stripped[i - 1] == "{":  # brace-init: skip to its matching close
        depth = 1
        while i < len(stripped) and depth:
            if stripped[i] == "{":
                depth += 1
            elif stripped[i] == "}":
                depth -= 1
            i += 1
    start = i
    depth = 0
    while i < len(stripped):
        c = stripped[i]
        if c == "{":
            depth += 1
        elif c == "}":
            if depth == 0:
                break
            depth -= 1
        i += 1
    return start, i


def lint_file(root, rel):
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        report(rel, 0, "P2P000", "unreadable: %s" % e)
        return

    raw_lines = text.splitlines()
    allowed = parse_suppressions(rel, raw_lines)
    stripped = strip_code(text)
    line_starts = [0]
    for i, ch in enumerate(stripped):
        if ch == "\n":
            line_starts.append(i + 1)

    def line_of(pos):
        lo, hi = 0, len(line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if line_starts[mid] <= pos:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    def emit(pos, rule, message):
        ln = line_of(pos)
        if rule in allowed.get(ln, ()):
            return
        report(rel, ln, rule, message)

    in_src = rel.startswith("src/")
    in_src_or_tools = in_src or rel.startswith("tools/")

    if in_src:
        for m in RE_EXCEPTION.finditer(stripped):
            emit(m.start(), "P2P001",
                 "`%s` in library code; use Status/Result<T>" % m.group(1))

    if not rel.startswith("src/common/random"):
        for m in RE_RNG.finditer(stripped):
            emit(m.start(), "P2P002",
                 "unseeded/global randomness; use p2prange::Rng "
                 "(src/common/random.h)")

    for m in RE_NEW.finditer(stripped):
        if preceded_by_wrap_unique(stripped, m.start()):
            continue
        emit(m.start(), "P2P003",
             "naked `new`; use std::make_unique or WrapUnique(new ...)")

    if is_untrusted_path(rel):
        for m in RE_DCHECK.finditer(stripped):
            emit(m.start(), "P2P004",
                 "DCHECK on an untrusted-input path; validate with a real "
                 "branch returning Status (DCHECK vanishes in release "
                 "builds)")
        for m in RE_CHECK.finditer(stripped):
            emit(m.start(), "P2P004",
                 "CHECK on an untrusted-input path would let a hostile "
                 "peer crash the process; validate with a real branch "
                 "returning Status")

    if in_src_or_tools and RE_SOCKET_HEADER.search(text):
        for m in RE_SEND.finditer(stripped):
            stmt = statement_around(stripped, m.start())
            if "MSG_NOSIGNAL" not in stmt:
                emit(m.start(), "P2P005",
                     "::send() without MSG_NOSIGNAL; a peer reset would "
                     "raise SIGPIPE")
        for m in RE_WRITE.finditer(stripped):
            emit(m.start(), "P2P005",
                 "::write() in socket code; use ::send(..., MSG_NOSIGNAL)")
        for m in RE_SOCKET_CALL.finditer(stripped):
            stmt = statement_around(stripped, m.start())
            if "SOCK_NONBLOCK" not in stmt or "SOCK_CLOEXEC" not in stmt:
                emit(m.start(), "P2P006",
                     "::socket() without SOCK_NONBLOCK | SOCK_CLOEXEC; a "
                     "blocking fd stalls the poll loop and a leaked fd "
                     "crosses fork/exec")
        for m in RE_ACCEPT.finditer(stripped):
            emit(m.start(), "P2P006",
                 "plain ::accept() inherits blocking mode and leaks "
                 "across exec; use ::accept4(..., SOCK_NONBLOCK | "
                 "SOCK_CLOEXEC)")
        for m in RE_ACCEPT4.finditer(stripped):
            stmt = statement_around(stripped, m.start())
            if "SOCK_NONBLOCK" not in stmt or "SOCK_CLOEXEC" not in stmt:
                emit(m.start(), "P2P006",
                     "::accept4() without SOCK_NONBLOCK | SOCK_CLOEXEC; "
                     "the accepted fd must be non-blocking and "
                     "close-on-exec from birth")

    if in_src:
        for m in RE_STD_SYNC.finditer(stripped):
            emit(m.start(), "P2P007",
                 "raw std::%s; use the annotated layer in "
                 "src/common/sync.h (Mutex/MutexLock/CondVar) so the "
                 "thread-safety analysis and lock-rank checks see it"
                 % m.group(1))

    if in_src_or_tools:
        # Deduped via set: nested lock scopes both covering one
        # blocking call must not double-report it.
        blocking_hits = set()
        for m in RE_SCOPED_LOCK.finditer(stripped):
            start, end = scoped_lock_span(stripped, m)
            for b in RE_BLOCKING_CALL.finditer(stripped, start, end):
                blocking_hits.add((b.start(), blocking_name(b)))
        for pos, call in sorted(blocking_hits):
            emit(pos, "P2P008",
                 "%s while a scoped lock is held in this block; "
                 "finish the I/O outside the lock (copy under it, "
                 "block outside)" % call)

    if in_src and not rel.startswith("src/rpc/"):
        pairs = zip(text.split("\n"), stripped.split("\n"))
        for idx, (line, kept) in enumerate(pairs):
            if RE_RPC_INCLUDE.match(line) and RE_INCLUDE.match(kept):
                emit(line_starts[idx], "P2P009",
                     "src/rpc/ header included outside src/rpc/; the "
                     "simulator stays below the live RPC stack")


def collect_files(root, explicit):
    if explicit:
        rels = []
        for p in explicit:
            rel = os.path.relpath(os.path.abspath(p), os.path.abspath(root))
            rels.append(rel.replace(os.sep, "/"))
        return rels
    rels = []
    for d in SCAN_DIRS:
        base = os.path.join(root, d)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            # Golden corpus files are deliberate violations.
            dirnames[:] = [x for x in dirnames if x != "corpus"]
            for name in sorted(filenames):
                if name.endswith(EXTENSIONS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    rels.append(rel.replace(os.sep, "/"))
    return rels


def main():
    parser = argparse.ArgumentParser(
        description="p2prange repo-invariant linter")
    parser.add_argument("--root", default=None,
                        help="tree root for scope rules (default: the "
                        "repo containing this script)")
    parser.add_argument("files", nargs="*",
                        help="specific files to lint (default: scan "
                        "src tools tests bench examples)")
    args = parser.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(root):
        print("p2prange_lint: no such root: %s" % root, file=sys.stderr)
        return 2

    for rel in collect_files(root, args.files):
        lint_file(root, rel)

    for rel, line_no, rule, message in sorted(FINDINGS):
        print("%s:%d: %s %s" % (rel, line_no, rule, message))
    if FINDINGS:
        print("p2prange_lint: %d finding(s)" % len(FINDINGS),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
