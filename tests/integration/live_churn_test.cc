// Live-ring churn acceptance (DESIGN.md §9): a ring of real
// p2prange_node processes grown one --join at a time, then driven
// through joins, an abrupt SIGKILL, and a graceful rolling restart
// while a seeded query load keeps running. The claims:
//
//  1. Growth works over real RPC — daemons join through a bootstrap
//     member, the views converge, and the client discovers the new
//     members through gossip.
//  2. No query ever fails outright under this churn (replication +
//     failover + redirects absorb every transition).
//  3. Answer quality survives: once the ring re-converges after each
//     event, recall is within two points of the static baseline.
//
// Waits are poll-until-converged loops with deadlines, never fixed
// sleeps, so the test is fast on fast machines and only patient on
// loaded CI boxes. Every child is reaped by RAII.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "rel/generator.h"
#include "rpc/ring_client.h"
#include "tests/support/live_harness.h"
#include "workload/range_workload.h"

namespace p2prange {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// One churn daemon. Its address and WAL directory outlive a restart
/// of its process.
struct ChurnDaemon {
  NetAddress address;
  std::string wal_dir;
  harness::ChildProcess process;
};

/// (Re)starts `d`, joined through `join` (empty: a ring of its own),
/// and waits until it answers `client`. A daemon without an address
/// gets a port reserved right before its spawn, which keeps the window
/// for another process to take that port short.
Status Start(const std::string& binary, const std::string& join,
             rpc::RingClient& client, ChurnDaemon* d) {
  if (d->address.port == 0) {
    ASSIGN_OR_RETURN(d->address, harness::ReservePort(harness::Loopback(0)));
  }
  std::vector<std::string> argv = {
      binary,
      "--listen=" + d->address.ToString(),
      "--wal_dir=" + d->wal_dir,
      "--replication=2",
      // Fast convergence so the acceptance run is quick: probes every
      // 100ms, three strikes at a 300ms timeout ≈ sub-2s detection.
      "--probe_ms=100",
      "--gossip_ms=100",
      "--stabilize_ms=100",
      "--probe_timeout_ms=300",
  };
  if (!join.empty()) argv.push_back("--join=" + join);
  ASSIGN_OR_RETURN(d->process, harness::ChildProcess::Spawn(std::move(argv)));
  return harness::AwaitPing(client, {d->address}, 10s);
}

constexpr uint32_t kDomainLo = 0;
constexpr uint32_t kDomainHi = 1000;
constexpr uint64_t kSeed = 7;
constexpr size_t kPublishes = 30;
constexpr size_t kQueries = 20;
/// How long the ring may take to agree on a membership change, and a
/// SIGTERMed daemon to hand off and exit.
constexpr auto kConverge = 15s;
constexpr auto kDrain = 10s;

rpc::RingClientOptions ClientOptions() {
  rpc::RingClientOptions options;
  options.lsh =
      LshParams::Paper(HashFamilyType::kApproxMinwise, kSeed ^ 0x5bd1e995u);
  options.descriptor_replication = 2;
  // Short enough that a probe into a half-dead peer fails over inside
  // one batch, long enough for sanitized builds on loaded boxes.
  options.deadline_ms = 2000.0;
  options.transport.default_deadline_ms = 2000.0;
  options.fault.max_retries = 1;
  return options;
}

struct BatchResult {
  int failed_lookups = 0;  ///< Lookup() itself errored — must never happen
  int probes_failed = 0;   ///< probe groups no replica answered
  int failovers = 0;
  int redirects = 0;
  double recall = 0.0;
};

/// The seeded query batch: the same kQueries draws every time, so
/// recall numbers across phases are directly comparable.
BatchResult QueryBatch(rpc::RingClient& client) {
  BatchResult batch;
  UniformRangeGenerator qgen(kDomainLo, kDomainHi, kSeed ^ 0x9E3779B9);
  for (size_t i = 0; i < kQueries; ++i) {
    const Range q = qgen.Next();
    auto outcome = client.Lookup(PartitionKey{"T", "a", q});
    if (!outcome.ok()) {
      ADD_FAILURE() << "lookup " << i << ": " << outcome.status().ToString();
      ++batch.failed_lookups;
      continue;
    }
    batch.probes_failed += outcome->probes_failed;
    batch.failovers += outcome->failovers;
    batch.redirects += outcome->redirects;
    if (!outcome->ranked.empty()) {
      batch.recall += q.RecallFrom(outcome->ranked.front().descriptor.key.range);
    }
  }
  batch.recall /= static_cast<double>(kQueries);
  return batch;
}

/// Repeats the batch until recall recovers to within two points of the
/// baseline with every probe answered (re-replication is asynchronous;
/// convergence, not instant repair, is the contract). Queries must
/// never fail even while converging.
BatchResult AwaitRecall(rpc::RingClient& client, double baseline) {
  BatchResult batch;
  harness::PollUntil(60s, [&] {
    batch = QueryBatch(client);
    EXPECT_EQ(batch.failed_lookups, 0);
    return batch.probes_failed == 0 && batch.recall >= baseline - 0.02;
  });
  return batch;
}

TEST(LiveChurnTest, RingGrownByJoinsSurvivesKillAndRollingRestart) {
  auto binary = harness::ToolBinary("p2prange_node");
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  auto scratch = harness::MakeScratchDir("live_churn_");
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  ChurnDaemon a, b, c, d;
  const std::pair<ChurnDaemon*, const char*> named[] = {
      {&a, "a"}, {&b, "b"}, {&c, "c"}, {&d, "d"}};
  for (const auto& [daemon, name] : named) {
    daemon->wal_dir = *scratch + "/" + name;
    fs::create_directories(daemon->wal_dir);
  }
  auto a_addr = harness::ReservePort(harness::Loopback(0));
  ASSERT_TRUE(a_addr.ok()) << a_addr.status().ToString();
  a.address = *a_addr;  // the client's first contact

  // Grow the ring one join at a time: a starts alone, b and c enter
  // through it.
  auto client_result = rpc::RingClient::Make({a.address}, ClientOptions());
  ASSERT_TRUE(client_result.ok()) << client_result.status().ToString();
  rpc::RingClient& client = **client_result;
  Status st = Start(*binary, "", client, &a);
  if (st.ok()) st = harness::AwaitViewSize(client, 1, kConverge);
  ASSERT_TRUE(st.ok()) << st.ToString();

  const std::string bootstrap = a.address.ToString();
  st = Start(*binary, bootstrap, client, &b);
  if (st.ok()) st = harness::AwaitViewSize(client, 2, kConverge);
  ASSERT_TRUE(st.ok()) << st.ToString();
  st = Start(*binary, bootstrap, client, &c);
  if (st.ok()) st = harness::AwaitViewSize(client, 3, kConverge);
  ASSERT_TRUE(st.ok()) << st.ToString();

  // Seed the ring (holders round-robin over the members) and take the
  // static baseline.
  {
    UniformRangeGenerator gen(kDomainLo, kDomainHi, kSeed);
    const std::vector<NetAddress> holders = {a.address, b.address, c.address};
    for (size_t i = 0; i < kPublishes; ++i) {
      ASSERT_TRUE(client
                      .Publish(PartitionKey{"T", "a", gen.Next()},
                               holders[i % holders.size()])
                      .ok())
          << "publish " << i;
    }
  }
  const BatchResult baseline = QueryBatch(client);
  ASSERT_EQ(baseline.failed_lookups, 0);
  ASSERT_EQ(baseline.probes_failed, 0);
  ASSERT_GT(baseline.recall, 0.0) << "the workload found nothing at all";

  // --- Event 1: a fourth member joins under load -----------------------
  st = Start(*binary, bootstrap, client, &d);
  ASSERT_TRUE(st.ok()) << st.ToString();
  // Queries keep being answered while the join propagates.
  EXPECT_EQ(QueryBatch(client).failed_lookups, 0);
  st = harness::AwaitViewSize(client, 4, kConverge);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const BatchResult after_join = AwaitRecall(client, baseline.recall);
  EXPECT_EQ(after_join.probes_failed, 0);
  EXPECT_GE(after_join.recall, baseline.recall - 0.02)
      << "join cost recall: " << after_join.recall << " vs baseline "
      << baseline.recall;

  // --- Event 2: one member dies abruptly (no handoff) ------------------
  ASSERT_TRUE(b.process.Kill().ok());
  client.transport().Disconnect(b.address);
  // Queries during the detection window must still all be answered:
  // the dead peer's buckets fail over to their surviving replicas.
  EXPECT_EQ(QueryBatch(client).failed_lookups, 0);
  st = harness::AwaitViewSize(client, 3, kConverge);
  ASSERT_TRUE(st.ok()) << "failure detector never fired: " << st.ToString();
  const BatchResult after_kill = AwaitRecall(client, baseline.recall);
  EXPECT_EQ(after_kill.probes_failed, 0);
  EXPECT_GE(after_kill.recall, baseline.recall - 0.02)
      << "abrupt death cost recall: " << after_kill.recall << " vs baseline "
      << baseline.recall;

  // --- Event 3: rolling restart of a remaining member ------------------
  // SIGTERM hands its descriptors to the successor and announces the
  // leave; the replacement process rejoins on the same address and WAL
  // directory and pulls its arc back.
  st = c.process.Terminate(kDrain);
  ASSERT_TRUE(st.ok()) << st.ToString();
  client.transport().Disconnect(c.address);
  EXPECT_EQ(QueryBatch(client).failed_lookups, 0);
  st = Start(*binary, bootstrap, client, &c);
  if (st.ok()) st = harness::AwaitViewSize(client, 3, kConverge);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const BatchResult after_restart = AwaitRecall(client, baseline.recall);
  EXPECT_EQ(after_restart.probes_failed, 0);
  EXPECT_GE(after_restart.recall, baseline.recall - 0.02)
      << "rolling restart cost recall: " << after_restart.recall
      << " vs baseline " << baseline.recall;

  // Survivors drain gracefully (exit 0) — the ring shrinks member by
  // member without a failure.
  for (ChurnDaemon* survivor : {&d, &c, &a}) {
    st = survivor->process.Terminate(kDrain);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
}

}  // namespace
}  // namespace p2prange
