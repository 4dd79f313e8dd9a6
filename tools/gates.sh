#!/usr/bin/env bash
# The gate commands that tools/check.sh and .github/workflows/ci.yml
# both run, kept here once so a suite list or a JSON assertion cannot
# drift between the two. Each gate runs against one build tree and
# exits non-zero when it fails.
#
#   tsan-suites  the threaded gtest suites, the scope of a TSan run:
#                TCP transport/server (background poll threads),
#                concurrent logging, membership join/leave (helper
#                poll threads), the worker-pool executor and kMultiOp,
#                the live-churn acceptance test (client thread + forked
#                daemons), transport hardening and the chaos ring
#                (deadline sweeps, the fault-injection proxy), and the
#                live harness's own self-test (its ServerThread)
#   live-load    bench/ablation_live_ring --smoke: a 5-daemon ring under
#                closed-loop lookups plus bulk fetches, then an
#                open-loop overload burst that must shed, not hang: the
#                JSON must show zero hung clients and a live daemon
#   chaos        the chaos-plan, transport-hardening and chaos-ring
#                suites, then bench/ablation_chaos --smoke (partition,
#                slow-loris and corruption phases): the JSON must show
#                a clean daemon shutdown and zero failed lookups
#   matrix       bench/scenario_matrix --smoke, the scenario engine on
#                chord, can and tapestry: the bench counts substrates
#                with cache hits under churn, and that must be 3
#   bench-smoke  every bench binary in its tiny --smoke configuration,
#                then two 1 s perfbench/run.py runs per benchmark
#                workload, which build perfbench/ in its own tree
#                (nothing else does) and run its output checks: an
#                untraced run (the end-to-end metrics) and a traced one
#                (the per-layer probes, the probe codec round trip and
#                every replayed request served); run it from the
#                repository root
#   live-churn   the dynamic-membership acceptance test: a ring grown
#                by --join, one SIGKILL, one rolling restart, all under
#                a seeded query load that must never fail
#
# Usage: tools/gates.sh tsan-suites|live-load|chaos|matrix|bench-smoke|live-churn BUILD_DIR
set -euo pipefail

if [[ $# -ne 2 ]]; then
  sed -n 's/^# Usage: //p' "$0" >&2
  exit 2
fi
gate=$1
build=$2

case "$gate" in
  tsan-suites)
    "$build/tests/p2prange_tests" \
      --gtest_filter='SyncTest.*:TcpTransportTest.*:LoggingTest.*:NodeServiceTest.*:RingClientTest.*:MembershipTest.*:LiveChurnTest.*:RpcExecutorTest.*:MultiOpTest.*:TcpHardeningTest.*:ChaosRingTest.*:LiveHarnessTest.*'
    ;;
  live-load)
    out=$("$build/bench/ablation_live_ring" --smoke 2>/dev/null)
    echo "$out"
    grep -q '"hung":0' <<< "$out" \
      || { echo "live-load gate: hung clients in overload phase" >&2; exit 1; }
    grep -q '"daemon_alive_after":true' <<< "$out" \
      || { echo "live-load gate: daemon died under overload" >&2; exit 1; }
    ;;
  chaos)
    "$build/tests/p2prange_tests" \
      --gtest_filter='ChaosPlanTest.*:TcpHardeningTest.*:ChaosRingTest.*'
    out=$("$build/bench/ablation_chaos" --smoke 2>/dev/null)
    echo "$out"
    grep -q '"clean":true' <<< "$out" \
      || { echo "chaos gate: daemons did not shut down cleanly" >&2; exit 1; }
    if grep -q '"lookup_failures":[1-9]' <<< "$out"; then
      echo "chaos gate: failed lookups under fault injection" >&2
      exit 1
    fi
    ;;
  matrix)
    out=$("$build/bench/scenario_matrix" --smoke 2>/dev/null)
    echo "$out"
    grep -q '"nonzero_recall_overlays":3' <<< "$out" \
      || { echo "matrix gate: an overlay had zero recall under churn" >&2; exit 1; }
    ;;
  bench-smoke)
    for b in "$build"/bench/*; do
      [[ -x "$b" && -f "$b" ]] || continue
      echo "--- $(basename "$b") --smoke"
      "$b" --smoke > /dev/null
    done
    for workload in engine_uniform live_mixed; do
      for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace "$trace"
      done
    done
    ;;
  live-churn)
    "$build/tests/p2prange_tests" --gtest_filter='LiveChurnTest.*'
    ;;
  *)
    echo "gates.sh: unknown gate: $gate" >&2
    sed -n 's/^# Usage: //p' "$0" >&2
    exit 2
    ;;
esac
