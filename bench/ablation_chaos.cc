// Ablation: the live ring under scripted network chaos (DESIGN.md §11).
//
// Forks five real p2prange_node daemons, each on its own loopback
// host, with every link — node↔node and client↔node — routed through
// a p2prange_chaosproxy. A seeded query load runs continuously while
// the proxy replays one fault regime per phase:
//
//   clean       no chaos — the baseline the later phases answer to;
//   partition   minority {0,1} cut from majority {2,3,4} (node links
//               only), load running through the detector's strikes;
//   heal        the cut removed: time-to-reconvergence through the
//               membership reconnect sweep, then recall again;
//   slow_loris  a pack of sockets that send one byte and stall,
//               aimed straight at the daemons' listen addresses —
//               the first-frame deadline must cut every one;
//   corrupt     every inter-node direction flips a bit in ~1% of
//               segments under a little jitter (client links clean);
//   recovery    chaos off — recall must return to baseline.
//
// Per phase it reports lookup counts, availability (every probe group
// answered), recall against the clean baseline, and the worst lookup
// latency (a hung client would blow this up — the acceptance bar is
// that deadlines, not luck, bound every call). Output is a JSON array
// on stdout, checked in as BENCH_chaos.json; stderr carries progress.
//
//   ablation_chaos [phase_duration_s] [--smoke]
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_args.h"
#include "common/logging.h"
#include "rel/generator.h"
#include "rpc/ring_client.h"
#include "rpc/tcp.h"
#include "tests/support/live_harness.h"
#include "workload/range_workload.h"

namespace p2prange {
namespace bench {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

constexpr uint64_t kSeed = 7;
constexpr int64_t kDomainLo = 0;
constexpr int64_t kDomainHi = 1000;
constexpr size_t kNodes = 5;
constexpr size_t kPublishes = 40;
constexpr size_t kLorisSockets = 8;

/// Daemon i listens on 127.0.1.<i+1>; the proxy (and the client) live
/// on 127.0.0.1. Distinct source hosts are how the proxy tells links
/// apart.
NetAddress NodeHost(size_t index) {
  NetAddress a;
  a.host = 0x7F000100u + static_cast<uint32_t>(index + 1);
  return a;
}

rpc::RingClientOptions ClientOptions() {
  rpc::RingClientOptions options;
  options.lsh =
      LshParams::Paper(HashFamilyType::kApproxMinwise, kSeed ^ 0x5bd1e995u);
  options.descriptor_replication = 2;
  options.deadline_ms = 2000.0;
  options.transport.default_deadline_ms = 2000.0;
  options.fault.max_retries = 2;
  return options;
}

struct Phase {
  std::string name;
  size_t queries = 0;
  size_t lookup_failures = 0;  ///< Lookup() errored outright
  size_t answered_clean = 0;   ///< zero failed probe groups
  double recall = 0.0;         ///< mean over answered lookups
  double max_lookup_ms = 0.0;  ///< a hung client would blow this up
  double extra_value = 0.0;    ///< phase-specific (heal_ms, ...)
  std::string extra_key;
};

/// Runs the seeded load for `duration_s`, accumulating one Phase.
Phase RunPhase(rpc::RingClient& client, const std::string& name,
               double duration_s) {
  Phase phase;
  phase.name = name;
  // The same draw sequence every phase, so recall numbers are directly
  // comparable across fault regimes.
  UniformRangeGenerator qgen(kDomainLo, kDomainHi, kSeed ^ 0x9E3779B9u);
  const auto t0 = std::chrono::steady_clock::now();
  double recall_sum = 0.0;
  size_t answered = 0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() < duration_s) {
    const Range q = qgen.Next();
    const auto started = std::chrono::steady_clock::now();
    auto outcome = client.Lookup(PartitionKey{"T", "a", q});
    const double took =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - started)
            .count();
    phase.max_lookup_ms = std::max(phase.max_lookup_ms, took);
    ++phase.queries;
    if (!outcome.ok()) {
      ++phase.lookup_failures;
    } else {
      phase.answered_clean += outcome->probes_failed == 0;
      if (!outcome->ranked.empty()) {
        recall_sum += q.RecallFrom(outcome->ranked.front().descriptor.key.range);
        ++answered;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  phase.recall = answered == 0 ? 0.0 : recall_sum / static_cast<double>(answered);
  return phase;
}

void PrintJson(const std::vector<Phase>& phases, bool clean_shutdown) {
  std::printf("[");
  for (size_t i = 0; i < phases.size(); ++i) {
    const Phase& p = phases[i];
    const double availability =
        p.queries == 0 ? 0.0
                       : static_cast<double>(p.answered_clean) /
                             static_cast<double>(p.queries);
    std::printf(
        "%s\n  {\"phase\":\"%s\",\"queries\":%zu,\"lookup_failures\":%zu,"
        "\"availability\":%.4f,\"recall\":%.4f,\"max_lookup_ms\":%.1f",
        i == 0 ? "" : ",", p.name.c_str(), p.queries, p.lookup_failures,
        availability, p.recall, p.max_lookup_ms);
    if (!p.extra_key.empty()) {
      std::printf(",\"%s\":%.1f", p.extra_key.c_str(), p.extra_value);
    }
    std::printf("}");
  }
  std::printf("\n,\n  {\"phase\":\"shutdown\",\"clean\":%s}\n]\n",
              clean_shutdown ? "true" : "false");
}

}  // namespace
}  // namespace bench
}  // namespace p2prange

int main(int argc, char** argv) {
  using namespace p2prange;
  using namespace p2prange::bench;

  const std::string node_binary =
      harness::ToolBinary("p2prange_node").ValueOrDie();
  const std::string proxy_binary =
      harness::ToolBinary("p2prange_chaosproxy").ValueOrDie();
  const std::string scratch =
      harness::MakeScratchDir("chaos_bench_").ValueOrDie();
  const double duration_s = DurationFromArgs(argc, argv, /*full=*/5.0,
                                          /*smoke=*/1.0);

  // --- Topology: proxy in front of every link -------------------------
  const std::string plan_path = scratch + "/plan.chaos";
  const std::string proxy_metrics = scratch + "/proxy_metrics.json";
  CHECK(harness::WriteFileAtomic(plan_path, "# clean\n").ok());
  std::vector<NetAddress> real, advertised;
  for (size_t i = 0; i < kNodes; ++i) {
    real.push_back(harness::ReservePort(NodeHost(i)).ValueOrDie());
    advertised.push_back(
        harness::ReservePort(harness::Loopback(0)).ValueOrDie());
  }
  std::vector<std::string> proxy_argv = {
      proxy_binary,
      "--listen=" + harness::JoinAddresses(advertised),
      "--upstream=" + harness::JoinAddresses(real),
      "--plan=" + plan_path,
      "--metrics_json=" + proxy_metrics,
      "--seed=42",
      "--quiet",
  };
  harness::ChildProcess proxy =
      harness::ChildProcess::Spawn(std::move(proxy_argv)).ValueOrDie();
  auto replan = [&](const std::string& rules) {
    CHECK(harness::WriteFileAtomic(plan_path, rules).ok()) << plan_path;
    CHECK(proxy.Signal(SIGHUP).ok());
  };

  std::vector<harness::ChildProcess> daemons;
  std::vector<std::string> metrics;
  for (size_t i = 0; i < kNodes; ++i) {
    const std::string dir = scratch + "/n" + std::to_string(i);
    fs::create_directories(dir);
    metrics.push_back(dir + "/metrics.json");
    std::vector<std::string> node_argv = {
        node_binary,
        "--listen=" + real[i].ToString(),
        "--advertise=" + advertised[i].ToString(),
        "--wal_dir=" + dir,
        "--metrics_json=" + metrics.back(),
        "--replication=2",
        "--probe_ms=100",
        "--gossip_ms=100",
        "--stabilize_ms=100",
        "--probe_timeout_ms=300",
        "--reconnect_ms=300",
        "--backoff_max_ms=400",
        "--handoff_deadline_ms=3000",
        // The hardening under test: bounded buffers, deadlines on
        // silent and trickling sockets, an accept cap.
        "--write_buffer_cap=8388608",
        "--idle_timeout_ms=5000",
        "--first_frame_timeout_ms=500",
        "--max_conns=64",
        "--quiet",
    };
    if (i > 0) node_argv.push_back("--join=" + advertised[0].ToString());
    daemons.push_back(
        harness::ChildProcess::Spawn(std::move(node_argv)).ValueOrDie());
  }

  auto client_result = rpc::RingClient::Make(advertised, ClientOptions());
  CHECK(client_result.ok()) << client_result.status();
  rpc::RingClient& client = **client_result;
  const Status up = harness::AwaitPing(client, advertised, 30s);
  CHECK(up.ok()) << up;
  CHECK(harness::AwaitViewSize(client, kNodes, 30s).ok())
      << "initial ring never converged";

  UniformRangeGenerator gen(kDomainLo, kDomainHi, kSeed);
  for (size_t i = 0; i < kPublishes; ++i) {
    const Status published = client.Publish(PartitionKey{"T", "a", gen.Next()},
                                            advertised[i % kNodes]);
    CHECK(published.ok()) << published;
  }

  std::vector<Phase> phases;

  // --- clean -----------------------------------------------------------
  std::fprintf(stderr, "phase clean (%.1fs)...\n", duration_s);
  phases.push_back(RunPhase(client, "clean", duration_s));
  const double baseline = phases.back().recall;

  // --- partition -------------------------------------------------------
  std::fprintf(stderr, "phase partition...\n");
  replan("0..inf link=* partition groups=0,1|2,3,4\n");
  phases.push_back(RunPhase(client, "partition", duration_s));

  // --- heal: time until the views hold all five members again ----------
  std::fprintf(stderr, "phase heal...\n");
  replan("# healed\n");
  const auto heal_t0 = std::chrono::steady_clock::now();
  const bool reconverged = harness::AwaitViewSize(client, kNodes, 30s).ok();
  const double heal_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - heal_t0)
          .count();
  CHECK(reconverged) << "ring never re-converged after the heal";
  phases.push_back(RunPhase(client, "heal", duration_s));
  phases.back().extra_key = "heal_ms";
  phases.back().extra_value = heal_ms;

  // --- slow_loris ------------------------------------------------------
  // One-byte tricklers aimed straight at the daemons (past the proxy:
  // the guard under test is the daemon's own first-frame deadline).
  std::fprintf(stderr, "phase slow_loris...\n");
  std::vector<int> loris;
  for (size_t i = 0; i < kLorisSockets; ++i) {
    auto fd = rpc::StartConnect(real[i % kNodes]);
    if (!fd.ok() || !rpc::FinishConnect(*fd, 1000).ok()) continue;
    const char byte = 'x';
    (void)!::send(*fd, &byte, 1, MSG_NOSIGNAL);
    loris.push_back(*fd);
  }
  phases.push_back(RunPhase(client, "slow_loris", duration_s));
  uint64_t idle_closed = 0;
  for (int attempt = 0; attempt < 200 && idle_closed < loris.size();
       ++attempt) {
    idle_closed = 0;
    for (const std::string& m : metrics) {
      idle_closed += harness::SumJsonCounter(m, "idle_closed");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (const int fd : loris) ::close(fd);
  phases.back().extra_key = "loris_cut";
  phases.back().extra_value = static_cast<double>(idle_closed);

  // --- corrupt ---------------------------------------------------------
  std::fprintf(stderr, "phase corrupt...\n");
  std::string rules;
  for (size_t i = 0; i < kNodes; ++i) {
    for (size_t j = 0; j < kNodes; ++j) {
      if (i == j) continue;
      rules += "0..inf link=" + std::to_string(i) + "->" + std::to_string(j) +
               " corrupt p=0.01\n";
      rules += "0..inf link=" + std::to_string(i) + "->" + std::to_string(j) +
               " delay ms=2 jitter=2\n";
    }
  }
  replan(rules);
  phases.push_back(RunPhase(client, "corrupt", duration_s));
  phases.back().extra_key = "segments_corrupted";
  phases.back().extra_value =
      static_cast<double>(harness::SumJsonCounter(proxy_metrics,
                                                  "segments_corrupted"));

  // --- recovery --------------------------------------------------------
  std::fprintf(stderr, "phase recovery...\n");
  replan("# healed\n");
  CHECK(harness::AwaitViewSize(client, kNodes, 30s).ok())
      << "view degraded under corruption";
  // Recall must climb back to the clean baseline before the phase is
  // measured — convergence, not instant repair, is the contract.
  for (int attempt = 0; attempt < 200; ++attempt) {
    Phase probe = RunPhase(client, "recovery", 0.2);
    if (probe.recall >= baseline - 0.02 && probe.lookup_failures == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  phases.push_back(RunPhase(client, "recovery", duration_s));

  bool clean_shutdown = true;
  for (harness::ChildProcess& daemon : daemons) {
    if (!daemon.Terminate(10s).ok()) clean_shutdown = false;
  }
  if (!proxy.Terminate(10s).ok()) clean_shutdown = false;

  PrintJson(phases, clean_shutdown);
  std::error_code ec;
  fs::remove_all(scratch, ec);
  return 0;
}
