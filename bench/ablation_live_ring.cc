// Ablation: sustained throughput of the LIVE ring's data path.
//
// Forks a 5-daemon p2prange_node ring on loopback and drives it with
// a mixed closed-loop load — client threads issuing range lookups
// (each thread: lookup, wait, lookup, ...) while bulk threads
// continuously fetch multi-megarow materialized partitions, the
// paper's retrieve-after-locate step — under three configurations of
// the same binary:
//
//   * single_loop          — workers=0, client batching off: every
//     request is handled inline by the daemon's poll loop, one frame
//     per probe. The pre-worker-pool daemon, as a baseline. A bulk
//     fetch parks the loop for milliseconds, so every probe queued
//     behind it stalls (head-of-line blocking).
//   * worker_pool          — workers=4: the poll loop stays the socket
//     owner but handler work runs on the executor's worker threads.
//   * worker_pool_batched  — workers=4 and kMultiOp batching on: the
//     client's first probe wave coalesces same-owner probes into one
//     frame.
//
// Per configuration it reports sustained lookups/s and p50/p99 lookup
// latency under that bulk pressure; the headline number is the QPS
// ratio of the full configuration over the single-loop baseline.
//
// A second, open-loop phase aims a pipelined probe burst far beyond
// service capacity at one small-queue daemon and verifies the
// admission controller holds: overflow is shed with ResourceExhausted,
// every in-flight call resolves (no hung clients), and the daemon
// answers pings afterwards and exits cleanly.
//
// Output is one JSON object on stdout — checked in as
// BENCH_live_ring.json so the trajectory of these numbers is tracked
// across changes. stderr carries progress lines.
//
//   ablation_live_ring [duration_s] [--smoke]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_args.h"
#include "common/logging.h"
#include "rel/generator.h"
#include "rpc/multi_op.h"
#include "rpc/ring_client.h"
#include "tests/support/live_harness.h"
#include "workload/range_workload.h"

namespace p2prange {
namespace bench {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

constexpr uint64_t kSeed = 11;
// A narrow, heavily overlapping range domain: published ranges share
// LSH identifiers, so buckets grow fat and a probe does real matching
// work instead of a hash-map miss.
constexpr int64_t kDomainLo = 0;
constexpr int64_t kDomainHi = 240;
constexpr size_t kRingSize = 5;

/// One daemon of the bench ring and where it listens.
struct Daemon {
  NetAddress address;
  harness::ChildProcess process;
};

Daemon SpawnDaemon(const std::string& binary, const std::string& wal_dir,
                   const std::string& join, int workers, size_t queue_depth) {
  Daemon d;
  d.address = harness::ReservePort(harness::Loopback(0)).ValueOrDie();
  std::vector<std::string> argv = {
      binary,
      "--listen=" + d.address.ToString(),
      "--wal_dir=" + wal_dir,
      "--replication=2",
      "--workers=" + std::to_string(workers),
      "--queue_depth=" + std::to_string(queue_depth),
      "--probe_ms=200",
      "--gossip_ms=200",
      "--stabilize_ms=200",
      "--probe_timeout_ms=500",
      "--quiet",
  };
  if (!join.empty()) argv.push_back("--join=" + join);
  d.process = harness::ChildProcess::Spawn(std::move(argv)).ValueOrDie();
  return d;
}

rpc::RingClientOptions ClientOptions(bool batch) {
  rpc::RingClientOptions options;
  options.lsh =
      LshParams::Paper(HashFamilyType::kApproxMinwise, kSeed ^ 0x5bd1e995u);
  options.descriptor_replication = 2;
  options.deadline_ms = 2000.0;
  options.transport.default_deadline_ms = 2000.0;
  options.fault.max_retries = 1;
  options.batch_probes = batch;
  return options;
}

double Percentile(std::vector<double>* sorted_in_place, double p) {
  if (sorted_in_place->empty()) return 0.0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t idx = std::min(
      sorted_in_place->size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_in_place->size())));
  return (*sorted_in_place)[idx];
}

// --- Closed-loop phase --------------------------------------------------

struct LoopConfig {
  const char* name;
  int workers;
  size_t queue_depth;
  bool batch;
};

struct LoopResult {
  const char* name = "";
  int workers = 0;
  bool batch = false;
  size_t lookups = 0;
  size_t failures = 0;       ///< lookups that errored outright
  size_t probes_failed = 0;  ///< probe groups no replica answered
  size_t batched_probes = 0;
  size_t bulk_fetches = 0;   ///< background partition fetches completed
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool shutdown_clean = true;
};

LoopResult RunClosedLoop(const std::string& binary, const std::string& scratch,
                         const LoopConfig& config, double duration_s,
                         size_t client_threads, size_t publishes,
                         size_t bulk_rows) {
  LoopResult result;
  result.name = config.name;
  result.workers = config.workers;
  result.batch = config.batch;

  auto wal = [&](const std::string& name) {
    const std::string dir = scratch + "/" + config.name + "_" + name;
    fs::create_directories(dir);
    return dir;
  };

  // Boot the 5-member ring grown by joins.
  std::vector<Daemon> daemons;
  daemons.push_back(SpawnDaemon(binary, wal("n0"), "", config.workers,
                                config.queue_depth));
  const std::string bootstrap = daemons[0].address.ToString();
  auto control = rpc::RingClient::Make({daemons[0].address},
                                       ClientOptions(config.batch));
  CHECK(control.ok()) << control.status();
  CHECK(harness::AwaitPing(**control, {daemons[0].address}, 10s).ok())
      << "bootstrap never came up";
  for (size_t i = 1; i < kRingSize; ++i) {
    daemons.push_back(SpawnDaemon(binary, wal("n" + std::to_string(i)),
                                  bootstrap, config.workers,
                                  config.queue_depth));
    CHECK(harness::AwaitPing(**control, {daemons.back().address}, 10s).ok());
  }
  CHECK(harness::AwaitViewSize(**control, kRingSize, 15s).ok())
      << "ring never converged";

  // Seed the corpus.
  UniformRangeGenerator gen(kDomainLo, kDomainHi, kSeed);
  for (size_t i = 0; i < publishes; ++i) {
    const Status published =
        (*control)->Publish(PartitionKey{"T", "a", gen.Next()},
                            daemons[i % daemons.size()].address);
    CHECK(published.ok()) << published;
  }

  // One big materialized partition per daemon: the bulk stream below
  // fetches these, and serving one costs the daemon milliseconds of
  // encode work — the op a single poll loop cannot take off the
  // critical path of everyone else's probes.
  Schema bulk_schema(
      {Field{"v", ValueType::kInt64, AttributeDomain{0, 1 << 30}}});
  Relation bulk_tuples("B", bulk_schema);
  for (size_t r = 0; r < bulk_rows; ++r) {
    CHECK(bulk_tuples.Append({Value(static_cast<int64_t>(r * 2654435761u))})
              .ok());
  }
  std::vector<PartitionKey> bulk_keys;
  for (size_t i = 0; i < daemons.size(); ++i) {
    bulk_keys.push_back(PartitionKey{
        "B", "v",
        Range(static_cast<uint32_t>(i), static_cast<uint32_t>(i + 1))});
    const Status stored = (*control)->StorePartition(
        bulk_keys.back(), bulk_tuples, daemons[i].address);
    CHECK(stored.ok()) << stored;
  }

  std::vector<NetAddress> members;
  for (const Daemon& d : daemons) members.push_back(d.address);

  // Closed loop: every thread is one client with its own transport,
  // issuing the next lookup the moment the previous one answers.
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> latencies(client_threads);
  std::vector<size_t> failures(client_threads, 0);
  std::vector<size_t> probes_failed(client_threads, 0);
  std::vector<size_t> batched(client_threads, 0);
  for (size_t t = 0; t < client_threads; ++t) {
    threads.emplace_back([&, t] {
      auto client =
          rpc::RingClient::Make(members, ClientOptions(config.batch));
      CHECK(client.ok()) << client.status();
      UniformRangeGenerator qgen(kDomainLo, kDomainHi,
                                 kSeed ^ (0x51ce + t * 977));
      const auto t0 = std::chrono::steady_clock::now();
      while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count() < duration_s) {
        const Range q = qgen.Next();
        const auto started = std::chrono::steady_clock::now();
        auto outcome = (*client)->Lookup(PartitionKey{"T", "a", q});
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - started)
                              .count();
        latencies[t].push_back(ms);
        if (!outcome.ok()) {
          ++failures[t];
        } else {
          probes_failed[t] += static_cast<size_t>(outcome->probes_failed);
          batched[t] += static_cast<size_t>(outcome->batched_probes);
        }
      }
    });
  }
  // The bulk stream: raw-transport threads fetching the big
  // partitions round-robin for the whole measurement window. The
  // response bytes are received but never decoded — each thread
  // re-fires the moment the frame lands, so the daemons see
  // back-to-back multi-millisecond encode jobs. Completions are
  // counted but their latency is not the metric — the lookups stuck
  // behind them are.
  std::atomic<size_t> bulk_done{0};
  std::vector<std::thread> bulk_threads;
  for (size_t b = 0; b < bulk_keys.size(); ++b) {
    bulk_threads.emplace_back([&, b] {
      rpc::TcpTransport transport;
      const auto t0 = std::chrono::steady_clock::now();
      // Each thread pins one daemon, so that daemon's queue always
      // holds a bulk job: the single-loop build must serve it before
      // any probe behind it, every time.
      const size_t d = b % bulk_keys.size();
      while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count() < duration_s) {
        auto fetched = transport.Call(
            members[d], rpc::MsgType::kFetchPartition,
            rpc::EncodeFetchPartitionRequest(bulk_keys[d]));
        if (fetched.ok()) ++bulk_done;
      }
    });
  }

  for (auto& th : threads) th.join();
  for (auto& th : bulk_threads) th.join();
  result.bulk_fetches = bulk_done;

  std::vector<double> all;
  for (size_t t = 0; t < client_threads; ++t) {
    all.insert(all.end(), latencies[t].begin(), latencies[t].end());
    result.failures += failures[t];
    result.probes_failed += probes_failed[t];
    result.batched_probes += batched[t];
  }
  result.lookups = all.size();
  result.qps = static_cast<double>(all.size()) / duration_s;
  result.p50_ms = Percentile(&all, 0.50);
  result.p99_ms = Percentile(&all, 0.99);

  for (Daemon& daemon : daemons) {
    if (!daemon.process.Terminate(10s).ok()) result.shutdown_clean = false;
  }
  return result;
}

// --- Open-loop overload phase -------------------------------------------

struct OverloadResult {
  size_t requests = 0;
  size_t ok = 0;
  size_t shed = 0;      ///< answered ResourceExhausted by admission control
  size_t errors = 0;    ///< any other failure
  size_t hung = 0;      ///< calls that never resolved inside their deadline
  bool daemon_alive_after = false;
  bool shutdown_clean = false;
};

OverloadResult RunOverload(const std::string& binary,
                           const std::string& scratch, size_t descriptors,
                           size_t burst_per_thread, size_t threads_n) {
  OverloadResult result;
  const std::string dir = scratch + "/overload";
  fs::create_directories(dir);

  // One daemon with a deliberately tiny queue: two workers, four
  // slots. The burst below outruns them by construction.
  Daemon daemon = SpawnDaemon(binary, dir, "", /*workers=*/2,
                              /*queue_depth=*/4);
  auto control = rpc::RingClient::Make({daemon.address},
                                       ClientOptions(/*batch=*/false));
  CHECK(control.ok()) << control.status();
  CHECK(harness::AwaitPing(**control, {daemon.address}, 10s).ok())
      << "daemon never came up";

  // One fat bucket: every probe scans `descriptors` candidates, so a
  // probe costs real worker time and the queue actually fills.
  rpc::StoreDescriptorRequest store;
  store.bucket = 1;
  UniformRangeGenerator gen(kDomainLo, kDomainHi, kSeed ^ 0xfeed);
  for (size_t i = 0; i < descriptors; ++i) {
    store.descriptor =
        PartitionDescriptor{PartitionKey{"T", "a", gen.Next()},
                            daemon.address};
    auto stored = (*control)->transport().Call(
        daemon.address, rpc::MsgType::kStoreDescriptor,
        rpc::EncodeStoreDescriptorRequest(store));
    CHECK(stored.ok()) << stored.status();
  }

  rpc::ProbeBucketRequest probe;
  probe.bucket = 1;
  probe.query = PartitionKey{"T", "a", Range(kDomainLo, kDomainHi)};
  const std::string probe_body = rpc::EncodeProbeBucketRequest(probe);

  // Open loop: each thread fires its whole burst before waiting for
  // anything, then drains. Arrival rate >> service rate, so the
  // admission controller must shed — and every call must still get an
  // answer (shed or served), promptly.
  std::vector<std::thread> threads;
  std::vector<OverloadResult> per_thread(threads_n);
  const NetAddress target = daemon.address;
  for (size_t t = 0; t < threads_n; ++t) {
    threads.emplace_back([&, t] {
      rpc::TcpTransport transport;
      std::vector<uint64_t> calls;
      for (size_t i = 0; i < burst_per_thread; ++i) {
        auto id = transport.StartCall(target, rpc::MsgType::kProbeBucket,
                                      probe_body, {/*deadline_ms=*/15000.0});
        if (!id.ok()) {
          ++per_thread[t].errors;
          continue;
        }
        calls.push_back(*id);
      }
      per_thread[t].requests = burst_per_thread;
      for (const uint64_t id : calls) {
        auto answer = transport.WaitCall(id);
        if (answer.ok()) {
          ++per_thread[t].ok;
        } else if (answer.status().IsResourceExhausted()) {
          ++per_thread[t].shed;
        } else if (answer.status().IsIOError()) {
          ++per_thread[t].hung;  // deadline burned: the call never resolved
        } else {
          ++per_thread[t].errors;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const OverloadResult& r : per_thread) {
    result.requests += r.requests;
    result.ok += r.ok;
    result.shed += r.shed;
    result.errors += r.errors;
    result.hung += r.hung;
  }

  result.daemon_alive_after = (*control)->Ping(daemon.address).ok();
  result.shutdown_clean = daemon.process.Terminate(10s).ok();
  return result;
}

void PrintJson(const std::vector<LoopResult>& loops,
               const OverloadResult& overload, double duration_s,
               size_t clients, size_t publishes) {
  double base_qps = 0.0, full_qps = 0.0;
  for (const LoopResult& r : loops) {
    if (std::string(r.name) == "single_loop") base_qps = r.qps;
    if (std::string(r.name) == "worker_pool_batched") full_qps = r.qps;
  }
  std::printf("{\n  \"ring_size\":%zu,\"duration_s\":%.2f,\"clients\":%zu,"
              "\"corpus\":%zu,\n  \"closed_loop\":[",
              kRingSize, duration_s, clients, publishes);
  for (size_t i = 0; i < loops.size(); ++i) {
    const LoopResult& r = loops[i];
    std::printf(
        "%s\n    {\"config\":\"%s\",\"workers\":%d,\"batched\":%s,"
        "\"lookups\":%zu,\"qps\":%.1f,\"p50_ms\":%.2f,\"p99_ms\":%.2f,"
        "\"failures\":%zu,\"probes_failed\":%zu,\"batched_probes\":%zu,"
        "\"bulk_fetches\":%zu,\"clean_shutdown\":%s}",
        i == 0 ? "" : ",", r.name, r.workers, r.batch ? "true" : "false",
        r.lookups, r.qps, r.p50_ms, r.p99_ms, r.failures, r.probes_failed,
        r.batched_probes, r.bulk_fetches,
        r.shutdown_clean ? "true" : "false");
  }
  std::printf(
      "\n  ],\n  \"speedup_qps\":%.2f,\n"
      "  \"open_loop\":{\"workers\":2,\"queue_depth\":4,\"requests\":%zu,"
      "\"ok\":%zu,\"shed\":%zu,\"errors\":%zu,\"hung\":%zu,"
      "\"daemon_alive_after\":%s,\"clean_shutdown\":%s}\n}\n",
      base_qps > 0.0 ? full_qps / base_qps : 0.0, overload.requests,
      overload.ok, overload.shed, overload.errors, overload.hung,
      overload.daemon_alive_after ? "true" : "false",
      overload.shutdown_clean ? "true" : "false");
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
      harness::MakeScratchDir("live_ring_bench_").ValueOrDie();

  const double duration_s = DurationFromArgs(argc, argv, /*full=*/12.0,
                                          /*smoke=*/1.5);
  const bool smoke = SmokeFromArgs(argc, argv);
  const size_t clients = 4;
  const size_t publishes = 120;
  const size_t bulk_rows = 150000;
  const std::vector<LoopConfig> configs = {
      {"single_loop", 0, 128, false},
      {"worker_pool", 4, 128, false},
      {"worker_pool_batched", 4, 128, true},
  };

  std::vector<LoopResult> loops;
  for (const LoopConfig& config : configs) {
    std::fprintf(stderr, "closed loop: %s over %.1fs...\n", config.name,
                 duration_s);
    loops.push_back(RunClosedLoop(binary, scratch, config, duration_s,
                                  clients, publishes, bulk_rows));
  }
  std::fprintf(stderr, "open loop: overload burst...\n");
  const OverloadResult overload =
      RunOverload(binary, scratch, /*descriptors=*/smoke ? 400 : 1200,
                  /*burst_per_thread=*/smoke ? 150 : 300,
                  /*threads_n=*/4);
  PrintJson(loops, overload, duration_s, clients, publishes);
  std::error_code ec;
  fs::remove_all(scratch, ec);
  return 0;
}
