// Ablation: recall and availability of the LIVE ring under churn.
//
// Unlike ablation_churn (discrete-event simulation), this bench forks
// real p2prange_node daemons on loopback and replays a deterministic
// LiveChurnSchedule against them — joins fork a daemon that --join's
// the bootstrap, kills are SIGKILL, restarts are SIGTERM (graceful
// handoff) followed by a rejoin on the same WAL directory — while a
// seeded query load runs throughout. Per churn rate it reports:
//
//   * availability: fraction of lookups during churn whose every probe
//     group was answered by some replica (lookups that error outright
//     count against it twice over — they also show up as failures);
//   * recall during churn and after re-convergence, against the
//     pre-churn baseline of the same seeded query batch.
//
// Output is a JSON array on stdout (one object per churn rate) —
// checked in as BENCH_live_churn.json so the trajectory of this
// number is tracked across changes. stderr carries progress lines.
//
//   ablation_live_churn [duration_s] [--smoke]
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_args.h"
#include "common/logging.h"
#include "common/random.h"
#include "rel/generator.h"
#include "rpc/ring_client.h"
#include "sim/churn_sim.h"
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
constexpr size_t kPublishes = 24;
constexpr size_t kRecallQueries = 16;

/// One daemon of the churn ring. Its address and WAL directory
/// outlive a restart of its process.
struct Daemon {
  NetAddress address;
  std::string wal_dir;
  harness::ChildProcess process;
};

/// Spawns the churn ring's daemon on `addr`, joined through `join`
/// (empty: a ring of its own).
Daemon SpawnDaemon(const std::string& binary, const NetAddress& addr,
                   const std::string& wal_dir, const std::string& join) {
  std::vector<std::string> argv = {
      binary,
      "--listen=" + addr.ToString(),
      "--wal_dir=" + wal_dir,
      "--replication=2",
      "--probe_ms=100",
      "--gossip_ms=100",
      "--stabilize_ms=100",
      "--probe_timeout_ms=300",
      "--quiet",
  };
  if (!join.empty()) argv.push_back("--join=" + join);
  return Daemon{addr, wal_dir,
                harness::ChildProcess::Spawn(std::move(argv)).ValueOrDie()};
}

NetAddress FreshPort() {
  return harness::ReservePort(harness::Loopback(0)).ValueOrDie();
}

rpc::RingClientOptions ClientOptions() {
  rpc::RingClientOptions options;
  options.lsh =
      LshParams::Paper(HashFamilyType::kApproxMinwise, kSeed ^ 0x5bd1e995u);
  options.descriptor_replication = 2;
  options.deadline_ms = 2000.0;
  options.transport.default_deadline_ms = 2000.0;
  options.fault.max_retries = 1;
  return options;
}

/// The fixed recall batch: the same draws every call, comparable
/// across phases and churn rates.
double RecallBatch(rpc::RingClient& client) {
  UniformRangeGenerator qgen(kDomainLo, kDomainHi, kSeed ^ 0x9E3779B9);
  double recall = 0.0;
  for (size_t i = 0; i < kRecallQueries; ++i) {
    const Range q = qgen.Next();
    auto outcome = client.Lookup(PartitionKey{"T", "a", q});
    if (outcome.ok() && !outcome->ranked.empty()) {
      recall += q.RecallFrom(outcome->ranked.front().descriptor.key.range);
    }
  }
  return recall / static_cast<double>(kRecallQueries);
}

struct RunResult {
  double churn_hz = 0.0;
  size_t joins = 0, kills = 0, restarts = 0, skipped = 0;
  size_t queries = 0;          ///< lookups issued while churn was active
  size_t lookup_failures = 0;  ///< lookups that errored outright
  size_t answered_clean = 0;   ///< lookups with zero failed probe groups
  int failovers = 0, redirects = 0, view_refreshes = 0;
  double recall_baseline = 0.0, recall_during = 0.0, recall_final = 0.0;
  bool shutdown_clean = true;
};

RunResult RunOne(const std::string& binary, const std::string& scratch,
                 double churn_hz, double duration_s) {
  RunResult run;
  run.churn_hz = churn_hz;

  auto wal = [&](const std::string& name) {
    const std::string dir =
        scratch + "/hz" + std::to_string(churn_hz) + "_" + name;
    fs::create_directories(dir);
    return dir;
  };

  // Boot a 3-member ring grown by joins, then seed it.
  std::vector<Daemon> daemons;
  daemons.push_back(SpawnDaemon(binary, FreshPort(), wal("n0"), ""));
  const std::string bootstrap = daemons[0].address.ToString();
  auto client_result =
      rpc::RingClient::Make({daemons[0].address}, ClientOptions());
  CHECK(client_result.ok()) << client_result.status();
  rpc::RingClient& client = **client_result;
  CHECK(harness::AwaitPing(client, {daemons[0].address}, 10s).ok())
      << "bootstrap never came up";
  for (int i = 1; i < 3; ++i) {
    daemons.push_back(SpawnDaemon(binary, FreshPort(),
                                  wal("n" + std::to_string(i)), bootstrap));
    CHECK(harness::AwaitPing(client, {daemons.back().address}, 10s).ok());
  }
  CHECK(harness::AwaitViewSize(client, 3, 15s).ok())
      << "initial ring never converged";

  UniformRangeGenerator gen(kDomainLo, kDomainHi, kSeed);
  for (size_t i = 0; i < kPublishes; ++i) {
    const Status published =
        client.Publish(PartitionKey{"T", "a", gen.Next()},
                       daemons[i % daemons.size()].address);
    CHECK(published.ok()) << published;
  }
  run.recall_baseline = RecallBatch(client);

  // The deterministic schedule, replayed on the wall clock.
  ChurnScenarioConfig scenario;
  scenario.duration_s = duration_s;
  scenario.join_rate_hz = churn_hz;
  scenario.leave_rate_hz = churn_hz;
  scenario.fail_fraction = 0.5;
  scenario.seed = kSeed;
  const auto schedule = GenerateLiveChurnSchedule(scenario);

  Rng victims(kSeed ^ 0xc4u);
  int spawned = 3;
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  size_t next_event = 0;
  UniformRangeGenerator qgen(kDomainLo, kDomainHi, kSeed ^ 0x51ce);
  while (elapsed_s() < duration_s || next_event < schedule.size()) {
    if (next_event < schedule.size() &&
        elapsed_s() >= schedule[next_event].t_s) {
      const LiveChurnEvent& ev = schedule[next_event++];
      // The bootstrap (index 0) is immortal: joins always have a
      // target, and the client always has a reachable contact.
      const size_t victim =
          daemons.size() > 1 ? 1 + victims.NextBounded(daemons.size() - 1) : 0;
      switch (ev.kind) {
        case LiveChurnEventKind::kJoin: {
          daemons.push_back(SpawnDaemon(binary, FreshPort(),
                                        wal("j" + std::to_string(spawned++)),
                                        bootstrap));
          ++run.joins;
          break;
        }
        case LiveChurnEventKind::kKill: {
          if (daemons.size() <= 2) {
            ++run.skipped;  // never shrink below a ring of two
            break;
          }
          client.transport().Disconnect(daemons[victim].address);
          CHECK(daemons[victim].process.Kill().ok());
          daemons.erase(daemons.begin() + static_cast<long>(victim));
          ++run.kills;
          break;
        }
        case LiveChurnEventKind::kRestart: {
          if (daemons.size() <= 2) {
            ++run.skipped;
            break;
          }
          Daemon& d = daemons[victim];
          if (!d.process.Terminate(10s).ok()) run.shutdown_clean = false;
          client.transport().Disconnect(d.address);
          d = SpawnDaemon(binary, d.address, d.wal_dir, bootstrap);
          ++run.restarts;
          break;
        }
      }
      continue;  // drain due events before querying again
    }

    const Range q = qgen.Next();
    auto outcome = client.Lookup(PartitionKey{"T", "a", q});
    ++run.queries;
    if (!outcome.ok()) {
      ++run.lookup_failures;
    } else {
      run.answered_clean += outcome->probes_failed == 0;
      run.failovers += outcome->failovers;
      run.redirects += outcome->redirects;
      run.view_refreshes += outcome->view_refreshes;
      if (!outcome->ranked.empty()) {
        run.recall_during +=
            q.RecallFrom(outcome->ranked.front().descriptor.key.range) /
            1.0;  // summed here, normalized below
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const size_t answered = run.queries - run.lookup_failures;
  run.recall_during =
      answered == 0 ? 0.0 : run.recall_during / static_cast<double>(answered);

  // Let the ring re-converge, then take the final recall.
  CHECK(harness::AwaitViewSize(client, daemons.size(), 15s).ok())
      << "ring never re-converged";
  for (int attempt = 0; attempt < 100; ++attempt) {
    run.recall_final = RecallBatch(client);
    if (run.recall_final >= run.recall_baseline - 0.02) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  for (Daemon& daemon : daemons) {
    if (!daemon.process.Terminate(10s).ok()) run.shutdown_clean = false;
  }
  return run;
}

void PrintJson(const std::vector<RunResult>& runs) {
  std::printf("[");
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    const double availability =
        r.queries == 0 ? 0.0
                       : static_cast<double>(r.answered_clean) /
                             static_cast<double>(r.queries);
    std::printf(
        "%s\n  {\"churn_hz\":%.3f,"
        "\"events\":{\"joins\":%zu,\"kills\":%zu,\"restarts\":%zu,"
        "\"skipped\":%zu},"
        "\"queries\":%zu,\"lookup_failures\":%zu,"
        "\"availability\":%.4f,"
        "\"failovers\":%d,\"redirects\":%d,\"view_refreshes\":%d,"
        "\"recall_baseline\":%.4f,\"recall_during\":%.4f,"
        "\"recall_final\":%.4f,\"clean_shutdown\":%s}",
        i == 0 ? "" : ",", r.churn_hz, r.joins, r.kills, r.restarts, r.skipped,
        r.queries, r.lookup_failures, availability, r.failovers, r.redirects,
        r.view_refreshes, r.recall_baseline, r.recall_during, r.recall_final,
        r.shutdown_clean ? "true" : "false");
  }
  std::printf("\n]\n");
}

}  // namespace
}  // namespace bench
}  // namespace p2prange

int main(int argc, char** argv) {
  using namespace p2prange;
  using namespace p2prange::bench;

  const std::string binary =
      harness::ToolBinary("p2prange_node").ValueOrDie();
  const std::string scratch =
      harness::MakeScratchDir("live_churn_bench_").ValueOrDie();

  const double duration_s = DurationFromArgs(argc, argv, /*full=*/20.0,
                                          /*smoke=*/3.0);
  const bool smoke = SmokeFromArgs(argc, argv);
  const std::vector<double> rates =
      smoke ? std::vector<double>{0.5} : std::vector<double>{0.1, 0.25, 0.5};

  std::vector<RunResult> runs;
  for (const double hz : rates) {
    std::fprintf(stderr, "churn %.2f Hz over %.0fs...\n", hz, duration_s);
    runs.push_back(RunOne(binary, scratch, hz, duration_s));
  }
  PrintJson(runs);
  std::error_code ec;
  fs::remove_all(scratch, ec);
  return 0;
}
