#!/usr/bin/env bash
# Tier-1 gate. Stages, in order:
#
#   lint         p2prange_lint.py (repo invariants) + run_tidy.sh
#                (clang-tidy when installed, NOLINT hygiene always)
#   thread-safety clang build of src/ with -Wthread-safety promoted to
#                an error: the annotated sync layer (common/sync.h) is
#                machine-checked — a GUARDED_BY field read without its
#                lock fails this stage. Skipped loudly when no clang++
#                is installed (the analysis is clang-only).
#   build+test   normal configuration with -DP2PRANGE_WERROR=ON —
#                Status/Result are [[nodiscard]], so an unchecked error
#                return is a build break here, not a warning
#   bench smoke  every bench binary in its tiny --smoke configuration,
#                so signature-affecting regressions in the figure
#                harnesses are caught before a full regeneration run;
#                then one 1 s perfbench/run.py run per benchmark
#                workload, which builds perfbench/ (nothing else does)
#                and runs its output checks
#   crash fuzz   the durability fuzzer at an elevated crash-point budget
#   live smoke   a 3-node loopback ring of real daemons + client workload
#   live churn   the dynamic-membership acceptance test: a ring grown by
#                --join, one SIGKILL, one rolling restart, all under a
#                seeded query load that must never fail
#   live load    the worker-pool/admission-control harness in --smoke
#                form: a 5-daemon ring under closed-loop lookups plus
#                bulk fetches, then an open-loop overload burst that
#                must shed (not hang, not crash)
#   chaos smoke  the fault-injection gate: chaos-plan/transport-
#                hardening/chaos-ring unit+integration suites, then the
#                chaos bench harness (ring behind the seeded proxy
#                through partition, slow-loris, and corruption phases)
#                asserting zero failed lookups and a clean shutdown
#   matrix smoke the event-driven scenario engine across all three
#                overlay substrates (10^4-peer grid + the 10^6-peer
#                chord cell), asserting nonzero recall under churn on
#                chord, can, and tapestry alike
#   asan         full build + tests under AddressSanitizer + UBSan, then
#                the crash fuzzer and live smoke again, sanitized
#   tsan         ThreadSanitizer build (mutually exclusive with asan —
#                separate tree) running the threaded suites: TCP
#                transport/server and concurrent logging
#
# Usage: tools/check.sh [--lint-only] [--no-lint] [--no-sanitize]
#                       [--no-tsan] [--no-bench-smoke] [--no-thread-safety]
set -euo pipefail

cd "$(dirname "$0")/.."

usage() {
  sed -n 's/^# Usage: //p' "$0"
  exit 2
}

do_lint=1
do_sanitize=1
do_tsan=1
do_bench_smoke=1
do_thread_safety=1
lint_only=0
for arg in "$@"; do
  case "$arg" in
    --lint-only) lint_only=1 ;;
    --no-lint) do_lint=0 ;;
    --no-sanitize) do_sanitize=0 ;;
    --no-tsan) do_tsan=0 ;;
    --no-bench-smoke) do_bench_smoke=0 ;;
    --no-thread-safety) do_thread_safety=0 ;;
    -h | --help) usage ;;
    *)
      echo "check.sh: unknown flag: $arg" >&2
      usage
      ;;
  esac
done
if [[ $lint_only -eq 1 && $do_lint -eq 0 ]]; then
  echo "check.sh: --lint-only and --no-lint are contradictory" >&2
  exit 2
fi

run_suite() {
  local build_dir=$1
  shift
  cmake -B "$build_dir" -S . -DP2PRANGE_WERROR=ON "$@"
  cmake --build "$build_dir" -j
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
}

run_bench_smoke() {
  local bench_dir=$1
  for b in "$bench_dir"/*; do
    [[ -x "$b" && -f "$b" ]] || continue
    echo "--- $(basename "$b") --smoke"
    "$b" --smoke > /dev/null
  done
}

# Boots a 3-node loopback ring of real p2prange_node processes, runs
# the paper workload through p2prange_client over TCP, then SIGTERMs
# every daemon and fails loudly if any child survives (a leaked daemon
# would poison later stages and the build machine).
run_live_smoke() {
  local build_dir=$1
  local scratch
  scratch=$(mktemp -d)
  local pids=()
  local members=""
  local failed=0

  for i in 0 1 2; do
    mkdir -p "$scratch/n$i"
    "$build_dir/tools/p2prange_node" --listen=127.0.0.1:0 \
      --wal_dir="$scratch/n$i" --metrics_json="$scratch/n$i/metrics.json" \
      2> "$scratch/n$i/log" &
    pids+=($!)
  done

  # Each daemon resolves port 0 to a real ephemeral port and announces
  # it on stderr; collect the resolved addresses for the client.
  for i in 0 1 2; do
    local addr=""
    for _ in $(seq 1 100); do
      addr=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$scratch/n$i/log" | head -n1)
      [[ -n "$addr" ]] && break
      sleep 0.05
    done
    if [[ -z "$addr" ]]; then
      echo "live smoke: node $i never announced its address" >&2
      failed=1
    else
      members="${members:+$members,}$addr"
    fi
  done

  if [[ $failed -eq 0 ]]; then
    if ! "$build_dir/tools/p2prange_client" --members="$members" \
        workload --publishes=40 --queries=30; then
      echo "live smoke: workload failed" >&2
      failed=1
    fi
  fi

  kill -TERM "${pids[@]}" 2>/dev/null || true
  local pid
  for pid in "${pids[@]}"; do
    for _ in $(seq 1 100); do
      kill -0 "$pid" 2>/dev/null || break
      sleep 0.05
    done
    if kill -0 "$pid" 2>/dev/null; then
      echo "live smoke: daemon $pid ignored SIGTERM — leaked child, SIGKILL" >&2
      kill -9 "$pid" 2>/dev/null || true
      failed=1
    fi
    if ! wait "$pid"; then
      echo "live smoke: daemon $pid exited non-zero" >&2
      failed=1
    fi
  done

  if [[ $failed -ne 0 ]]; then
    echo "live smoke FAILED (logs in $scratch)" >&2
    return 1
  fi
  rm -rf "$scratch"
}

if [[ $do_lint -eq 1 ]]; then
  echo "=== lint: p2prange invariants (tools/p2prange_lint.py) ==="
  python3 tools/p2prange_lint.py
  echo "=== lint: clang-tidy (tools/run_tidy.sh) ==="
  tools/run_tidy.sh build
  if [[ $lint_only -eq 1 ]]; then
    echo "=== lint-only: all lint checks passed ==="
    exit 0
  fi
fi

if [[ $do_thread_safety -eq 1 ]]; then
  if command -v clang++ > /dev/null; then
    echo "=== thread-safety analysis (clang -Wthread-safety as error) ==="
    cmake -B build-tsafety -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DP2PRANGE_THREAD_SAFETY=ON -DP2PRANGE_WERROR=ON
    cmake --build build-tsafety -j
  else
    echo "=== thread-safety analysis SKIPPED: no clang++ on PATH ==="
    echo "    (annotations still compile as no-ops; CI runs the real gate)"
  fi
fi

echo "=== normal build + tests (with -Werror) ==="
run_suite build

if [[ $do_bench_smoke -eq 1 ]]; then
  echo "=== bench smoke runs (--smoke) ==="
  run_bench_smoke build/bench
  echo "=== benchmark smoke (perfbench/run.py, 1 s per workload) ==="
  for workload in engine_uniform live_mixed; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0
  done
fi

echo "=== crash-consistency fuzz smoke (3000 crash points) ==="
P2PRANGE_CRASH_FUZZ_POINTS=3000 \
  ./build/tests/p2prange_tests --gtest_filter='CrashConsistencyFuzz.*'

echo "=== live-ring smoke (3 daemons over loopback TCP) ==="
run_live_smoke build

echo "=== live-churn smoke (joins + SIGKILL + rolling restart under load) ==="
./build/tests/p2prange_tests --gtest_filter='LiveChurnTest.*'

# The load harness emits one JSON object; beyond exiting 0 it must show
# a live daemon after the overload burst and zero hung clients — a shed
# request that never resolves is exactly the bug this gate exists for.
echo "=== live-load smoke (worker pool + admission control under overload) ==="
load_json=$(./build/bench/ablation_live_ring --smoke 2>/dev/null)
echo "$load_json" | grep -q '"hung":0' \
  || { echo "live-load smoke: hung clients in overload phase" >&2; exit 1; }
echo "$load_json" | grep -q '"daemon_alive_after":true' \
  || { echo "live-load smoke: daemon died under overload" >&2; exit 1; }

# Chaos smoke: the unit suites for the fault-injection stack (plan
# parsing, transport hardening, membership damping), the full ring
# behind the chaos proxy (partition/heal, corruption, slow-loris), and
# the bench harness in --smoke form. The JSON must show a clean daemon
# shutdown and zero failed lookups in every fault regime — availability
# under faults is the whole point of the gate.
echo "=== chaos smoke (fault-injection proxy + hardened ring) ==="
./build/tests/p2prange_tests \
  --gtest_filter='ChaosPlanTest.*:TcpHardeningTest.*:ChaosRingTest.*'
chaos_json=$(./build/bench/ablation_chaos --smoke 2>/dev/null)
echo "$chaos_json" | grep -q '"clean":true' \
  || { echo "chaos smoke: daemons did not shut down cleanly" >&2; exit 1; }
if echo "$chaos_json" | grep -q '"lookup_failures":[1-9]'; then
  echo "chaos smoke: failed lookups under fault injection" >&2
  exit 1
fi

# Scenario-matrix smoke: the event-driven engine over all three
# overlay substrates (10^4-peer grid plus the 10^6-peer chord cell).
# The bench computes the verdict itself: nonzero_recall_overlays
# counts substrates with cache hits under churn and must be 3.
echo "=== scenario-matrix smoke (chord/can/tapestry engine grid) ==="
matrix_json=$(./build/bench/scenario_matrix --smoke 2>/dev/null)
echo "$matrix_json" | grep -q '"nonzero_recall_overlays":3' \
  || { echo "scenario-matrix smoke: an overlay had zero recall under churn" >&2; exit 1; }

if [[ $do_sanitize -eq 1 ]]; then
  echo "=== sanitized build + tests (address;undefined) ==="
  run_suite build-asan -DP2PRANGE_SANITIZE="address;undefined"
  echo "=== sanitized crash-consistency fuzz (torn/bit-flip WAL replay under UBSan) ==="
  P2PRANGE_CRASH_FUZZ_POINTS=2000 \
    ./build-asan/tests/p2prange_tests \
    --gtest_filter='CrashConsistencyFuzz.*:SerdeFuzzTest.*:WalTest.*:SnapshotTest.*'
  echo "=== sanitized live-ring smoke ==="
  run_live_smoke build-asan
  echo "=== sanitized scenario-matrix smoke ==="
  ./build-asan/bench/scenario_matrix --smoke > /dev/null
fi

if [[ $do_tsan -eq 1 ]]; then
  # TSan cannot share a tree (or a process) with ASan; build-tsan is
  # its own configuration. Scope: the suites that actually run threads
  # today — TCP transport/server (background poll threads), concurrent
  # logging, the membership join/leave tests (helper poll threads), the
  # worker-pool executor and kMultiOp suites, the live-churn
  # acceptance test (client thread + forked daemons), and the
  # transport-hardening + chaos-ring suites (deadline sweeps and the
  # fault-injection proxy against TSan-built daemons), and the live
  # harness's own self-test (its ServerThread poll thread).
  echo "=== tsan build + threaded suites (thread) ==="
  cmake -B build-tsan -S . -DP2PRANGE_WERROR=ON -DP2PRANGE_SANITIZE=thread
  cmake --build build-tsan -j
  ./build-tsan/tests/p2prange_tests \
    --gtest_filter='SyncTest.*:TcpTransportTest.*:LoggingTest.*:NodeServiceTest.*:RingClientTest.*:MembershipTest.*:LiveChurnTest.*:RpcExecutorTest.*:MultiOpTest.*:TcpHardeningTest.*:ChaosRingTest.*:LiveHarnessTest.*'
  # The load harness under TSan exercises the poll-loop/worker/doorbell
  # handoff in forked TSan-built daemons under real concurrent load.
  echo "=== tsan live-load smoke ==="
  ./build-tsan/bench/ablation_live_ring --smoke > /dev/null
fi

echo "=== all checks passed ==="
