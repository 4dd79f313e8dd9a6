// Chaos acceptance (DESIGN.md §11): a ring of real p2prange_node
// processes whose every inter-node and client link runs through a
// p2prange_chaosproxy, so scripted network faults hit real sockets.
// The claims:
//
//  1. An asymmetric partition that outlasts the failure detector is
//     not permanent: after the heal, the reconnect sweep resurrects
//     the tombstoned members, the views re-converge, and recall
//     recovers to within two points of the pre-fault baseline.
//  2. Byte corruption on the inter-node links (the paper's hostile
//     WAN) costs CRC-rejected frames, not the ring: queries keep
//     being answered and the membership view holds steady.
//  3. The daemon's slow-loris guard works end to end: a socket that
//     trickles bytes is cut by the first-frame deadline while honest
//     clients keep being served.
//
// Topology: daemon i binds 127.0.1.<i+1> (distinct loopback hosts so
// the proxy can classify links by source address) and advertises its
// proxy-side address; the proxy is rescheduled mid-test by rewriting
// its plan file and sending SIGHUP (which restarts the plan clock).
// Every child is reaped by RAII.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rel/generator.h"
#include "rpc/ring_client.h"
#include "rpc/tcp.h"
#include "tests/support/live_harness.h"
#include "workload/range_workload.h"

namespace p2prange {
namespace {

namespace fs = std::filesystem;

using harness::SumJsonCounter;
using namespace std::chrono_literals;

/// How long the ring may take to converge, and a child to exit.
constexpr auto kConverge = 30s;
constexpr auto kExit = 10s;

/// 127.0.1.<index+1>: one loopback host per daemon, all local, all
/// distinguishable by getpeername on the proxy side.
NetAddress NodeHost(size_t index) {
  NetAddress a;
  a.host = 0x7F000100u + static_cast<uint32_t>(index + 1);
  return a;
}

// --- Topology under the proxy -----------------------------------------

struct ChaosRing {
  std::string plan_path;
  std::string proxy_metrics;
  std::vector<NetAddress> real;       ///< daemon listen addresses
  std::vector<NetAddress> advertised; ///< proxy-side (client-facing)
  std::vector<std::string> metrics;   ///< per-daemon metrics files
  harness::ChildProcess proxy;
  std::vector<harness::ChildProcess> daemons;

  Status Replan(const std::string& rules) {
    RETURN_NOT_OK(harness::WriteFileAtomic(plan_path, rules));
    return proxy.Signal(SIGHUP);  // reload + restart the schedule clock
  }
};

/// Spawns the proxy and `n` daemons joined into one ring, every
/// address the daemons advertise pointing through the proxy.
Result<ChaosRing> SpawnChaosRing(size_t n, const std::string& initial_plan) {
  ChaosRing ring;
  ASSIGN_OR_RETURN(const std::string scratch,
                   harness::MakeScratchDir("chaos_ring_"));
  ring.plan_path = scratch + "/plan.chaos";
  ring.proxy_metrics = scratch + "/proxy_metrics.json";
  RETURN_NOT_OK(harness::WriteFileAtomic(ring.plan_path, initial_plan));
  ASSIGN_OR_RETURN(const std::string proxy_binary,
                   harness::ToolBinary("p2prange_chaosproxy"));
  ASSIGN_OR_RETURN(const std::string node_binary,
                   harness::ToolBinary("p2prange_node"));

  for (size_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(ring.real.emplace_back(),
                     harness::ReservePort(NodeHost(i)));
    ASSIGN_OR_RETURN(ring.advertised.emplace_back(),
                     harness::ReservePort(harness::Loopback(0)));
  }
  ASSIGN_OR_RETURN(ring.proxy,
                   harness::ChildProcess::Spawn({
                       proxy_binary,
                       "--listen=" + harness::JoinAddresses(ring.advertised),
                       "--upstream=" + harness::JoinAddresses(ring.real),
                       "--plan=" + ring.plan_path,
                       "--metrics_json=" + ring.proxy_metrics,
                       "--seed=42",
                   }));

  for (size_t i = 0; i < n; ++i) {
    const std::string dir = scratch + "/n" + std::to_string(i);
    fs::create_directories(dir);
    ring.metrics.push_back(dir + "/metrics.json");
    std::vector<std::string> argv = {
        node_binary,
        "--listen=" + ring.real[i].ToString(),
        "--advertise=" + ring.advertised[i].ToString(),
        "--wal_dir=" + dir,
        "--metrics_json=" + ring.metrics.back(),
        "--replication=2",
        // Fast failure detection and a fast reconnect sweep so the
        // partition round-trip fits an acceptance test's budget.
        "--probe_ms=100",
        "--gossip_ms=100",
        "--stabilize_ms=100",
        "--probe_timeout_ms=300",
        "--reconnect_ms=300",
        // Cap probe backoff well below strike decay (5 s) or a
        // partitioned node's strikes go stale between probes and it
        // never finishes marking the far side dead.
        "--backoff_max_ms=400",
        "--handoff_deadline_ms=3000",
    };
    if (i > 0) argv.push_back("--join=" + ring.advertised[0].ToString());
    ASSIGN_OR_RETURN(ring.daemons.emplace_back(),
                     harness::ChildProcess::Spawn(std::move(argv)));
    // Joins are sequential: each daemon must be reachable before the
    // next one bootstraps through the advertised address of daemon 0.
  }
  return ring;
}

constexpr uint32_t kDomainLo = 0;
constexpr uint32_t kDomainHi = 1000;
constexpr uint64_t kSeed = 7;
constexpr size_t kPublishes = 30;
constexpr size_t kQueries = 20;

rpc::RingClientOptions ClientOptions() {
  rpc::RingClientOptions options;
  options.lsh =
      LshParams::Paper(HashFamilyType::kApproxMinwise, kSeed ^ 0x5bd1e995u);
  options.descriptor_replication = 2;
  options.deadline_ms = 2000.0;
  options.transport.default_deadline_ms = 2000.0;
  // Corrupted frames poison the stream and surface as IOError; the
  // policy retries them on a fresh connection.
  options.fault.max_retries = 2;
  return options;
}

/// The client every ring test drives, once each member answers and
/// the views agree on all of them.
Result<std::unique_ptr<rpc::RingClient>> ConnectClient(const ChaosRing& ring) {
  ASSIGN_OR_RETURN(std::unique_ptr<rpc::RingClient> client,
                   rpc::RingClient::Make(ring.advertised, ClientOptions()));
  RETURN_NOT_OK(harness::AwaitPing(*client, ring.advertised, kConverge));
  RETURN_NOT_OK(harness::AwaitViewSize(*client, ring.advertised.size(),
                                       kConverge));
  return client;
}

/// Awaits a *total* split of the `0 | 1,2` partition: daemon 0 sees
/// only itself and each majority-side daemon sees exactly its own
/// group. Only then is gossip provably unable to heal the ring — every
/// cross-group edge is a dead tombstone at a tied incarnation, ties
/// resolve toward dead, and gossip/probes only target alive members —
/// leaving the reconnect sweep as the sole reconciliation channel. (A
/// partial split heals through ordinary refutation via whichever alive
/// cross-edge survived, which is correct behavior but not the
/// mechanism this test pins down.) Observed via the daemons' own
/// membership_alive gauge: local strike counters would not do, because
/// the majority side mostly *learns* the minority's tombstone from a
/// neighbor's gossip rather than striking it out itself.
::testing::AssertionResult AwaitTotalSplit(const ChaosRing& ring) {
  auto alive = [&](size_t i) {
    return SumJsonCounter(ring.metrics[i], "membership_alive");
  };
  if (harness::PollUntil(kConverge, [&] {
        return alive(0) == 1 && alive(1) == 2 && alive(2) == 2;
      })) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "split never became total: alive = "
                                       << alive(0) << "/" << alive(1) << "/"
                                       << alive(2);
}

struct BatchResult {
  int failed_lookups = 0;
  int probes_failed = 0;
  double recall = 0.0;
};

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
    if (!outcome->ranked.empty()) {
      batch.recall += q.RecallFrom(outcome->ranked.front().descriptor.key.range);
    }
  }
  batch.recall /= static_cast<double>(kQueries);
  return batch;
}

/// Repeats the batch until recall recovers to within two points of the
/// baseline with every probe answered. Queries must never fail even
/// while converging.
BatchResult AwaitRecall(rpc::RingClient& client, double baseline) {
  BatchResult batch;
  harness::PollUntil(60s, [&] {
    batch = QueryBatch(client);
    EXPECT_EQ(batch.failed_lookups, 0);
    return batch.probes_failed == 0 && batch.recall >= baseline - 0.02;
  });
  return batch;
}

void SeedRing(rpc::RingClient& client, const std::vector<NetAddress>& holders) {
  UniformRangeGenerator gen(kDomainLo, kDomainHi, kSeed);
  for (size_t i = 0; i < kPublishes; ++i) {
    ASSERT_TRUE(client
                    .Publish(PartitionKey{"T", "a", gen.Next()},
                             holders[i % holders.size()])
                    .ok())
        << "publish " << i;
  }
}

TEST(ChaosRingTest, AsymmetricPartitionHealsThroughReconnectSweep) {
  auto ring = SpawnChaosRing(3, "# clean network\n");
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  auto client_result = ConnectClient(*ring);
  ASSERT_TRUE(client_result.ok()) << client_result.status().ToString();
  rpc::RingClient& client = **client_result;

  SeedRing(client, ring->advertised);
  const BatchResult baseline = QueryBatch(client);
  ASSERT_EQ(baseline.failed_lookups, 0);
  ASSERT_EQ(baseline.probes_failed, 0);
  ASSERT_GT(baseline.recall, 0.0) << "the workload found nothing at all";

  // Cut daemon 0 off from 1 and 2 — node links only; the client still
  // reaches everyone, so queries must keep being answered while the
  // failure detectors on both sides strike the other side out.
  Status st = ring->Replan("0..inf link=* partition groups=0|1,2\n");
  ASSERT_TRUE(st.ok()) << st.ToString();
  // The failure detector fires: the view shrinks on whichever side of
  // the cut the refresh lands.
  ASSERT_TRUE(harness::PollUntil(kConverge, [&] {
    client.RefreshView().IgnoreError();
    return client.view().size() < 3;
  })) << "failure detector never fired";
  // Hold the cut until *every* cross-group edge is a dead tombstone on
  // both sides; a shorter partition can heal through a surviving alive
  // edge without ever needing the reconnect sweep.
  ASSERT_TRUE(AwaitTotalSplit(*ring));
  EXPECT_EQ(QueryBatch(client).failed_lookups, 0)
      << "a query failed outright during the partition";

  // Heal. Both sides hold dead tombstones for each other and neither
  // probes nor gossips to dead members — only the reconnect sweep can
  // reconcile the split, and the view change it emits re-replicates
  // whatever the minority missed.
  st = ring->Replan("# healed\n");
  ASSERT_TRUE(st.ok()) << st.ToString();
  st = harness::AwaitViewSize(client, 3, kConverge);
  ASSERT_TRUE(st.ok()) << "ring never re-converged: " << st.ToString();
  const BatchResult healed = AwaitRecall(client, baseline.recall);
  EXPECT_EQ(healed.probes_failed, 0);
  EXPECT_GE(healed.recall, baseline.recall - 0.02)
      << "partition+heal cost recall: " << healed.recall << " vs baseline "
      << baseline.recall;

  // The daemons say how they healed: somebody's reconnect sweep ran
  // and resurrected a tombstoned member.
  EXPECT_TRUE(harness::PollUntil(5s, [&] {
    uint64_t resurrected = 0;
    for (const std::string& m : ring->metrics) {
      resurrected += SumJsonCounter(m, "members_resurrected");
    }
    return resurrected >= 1;
  })) << "nobody reports a reconnect resurrection";

  for (harness::ChildProcess& child : ring->daemons) {
    const Status exited = child.Terminate(kExit);
    EXPECT_TRUE(exited.ok()) << exited.ToString();
  }
  const Status exited = ring->proxy.Terminate(kExit);
  EXPECT_TRUE(exited.ok()) << exited.ToString();
}

TEST(ChaosRingTest, CorruptInterNodeLinksCostFramesNotTheRing) {
  auto ring = SpawnChaosRing(3, "# clean network\n");
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  auto client_result = ConnectClient(*ring);
  ASSERT_TRUE(client_result.ok()) << client_result.status().ToString();
  rpc::RingClient& client = **client_result;

  SeedRing(client, ring->advertised);
  const BatchResult baseline = QueryBatch(client);
  ASSERT_EQ(baseline.failed_lookups, 0);
  ASSERT_GT(baseline.recall, 0.0);

  // The paper's hostile WAN: every inter-node direction flips a bit in
  // ~1% of segments and carries a little jitter. Client links stay
  // clean — the claim under test is that the *ring* absorbs the noise
  // (CRC rejections, reconnects, strike decay), not the client.
  std::string rules;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i == j) continue;
      rules += "0..inf link=" + std::to_string(i) + "->" + std::to_string(j) +
               " corrupt p=0.01\n";
      rules += "0..inf link=" + std::to_string(i) + "->" + std::to_string(j) +
               " delay ms=2 jitter=2\n";
    }
  }
  Status st = ring->Replan(rules);
  ASSERT_TRUE(st.ok()) << st.ToString();

  // Keep the load running until the proxy has demonstrably corrupted
  // traffic; the queries must never fail while it does.
  uint64_t corrupted = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (corrupted == 0 && std::chrono::steady_clock::now() < deadline) {
    EXPECT_EQ(QueryBatch(client).failed_lookups, 0);
    corrupted = SumJsonCounter(ring->proxy_metrics, "segments_corrupted");
  }
  EXPECT_GE(corrupted, 1u) << "the proxy never corrupted a segment";

  // The view held: flap damping and strike decay keep 1% corruption
  // from walking members to their deaths.
  st = harness::AwaitViewSize(client, 3, kConverge);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const BatchResult noisy = AwaitRecall(client, baseline.recall);
  EXPECT_EQ(noisy.failed_lookups, 0);
  EXPECT_GE(noisy.recall, baseline.recall - 0.02)
      << "corruption cost recall: " << noisy.recall << " vs baseline "
      << baseline.recall;

  // Heal before the graceful drain so handoffs run on clean links.
  st = ring->Replan("# healed\n");
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (harness::ChildProcess& child : ring->daemons) {
    const Status exited = child.Terminate(kExit);
    EXPECT_TRUE(exited.ok()) << exited.ToString();
  }
  const Status exited = ring->proxy.Terminate(kExit);
  EXPECT_TRUE(exited.ok()) << exited.ToString();
}

TEST(ChaosRingTest, SlowLorisIsCutWhileHonestClientsAreServed) {
  auto node_binary = harness::ToolBinary("p2prange_node");
  ASSERT_TRUE(node_binary.ok()) << node_binary.status().ToString();
  auto scratch = harness::MakeScratchDir("chaos_ring_");
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  auto reserved = harness::ReservePort(harness::Loopback(0));
  ASSERT_TRUE(reserved.ok()) << reserved.status().ToString();
  const NetAddress addr = *reserved;
  const std::string metrics = *scratch + "/metrics.json";
  auto daemon = harness::ChildProcess::Spawn({
      *node_binary,
      "--listen=" + addr.ToString(),
      "--wal_dir=" + *scratch,
      "--metrics_json=" + metrics,
      "--first_frame_timeout_ms=200",
      "--idle_timeout_ms=2000",
  });
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  rpc::RingClientOptions options = ClientOptions();
  options.descriptor_replication = 1;  // a ring of one
  auto client_result = rpc::RingClient::Make({addr}, options);
  ASSERT_TRUE(client_result.ok());
  rpc::RingClient& client = **client_result;
  const Status up = harness::AwaitPing(client, {addr}, 10s);
  ASSERT_TRUE(up.ok()) << up.ToString();

  // The attack: connect, send a single byte, then hold the socket.
  auto fd_result = rpc::StartConnect(addr);
  ASSERT_TRUE(fd_result.ok()) << fd_result.status().ToString();
  const int fd = *fd_result;
  ASSERT_TRUE(rpc::FinishConnect(fd, 2000).ok());
  const char byte = 'x';
  ASSERT_EQ(::send(fd, &byte, 1, MSG_NOSIGNAL), 1);

  // The daemon must cut the trickler: a clean FIN/RST shows up as a
  // readable-EOF on our end within a few deadline periods.
  bool closed = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!closed && std::chrono::steady_clock::now() < deadline) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 100) > 0 && (p.revents & (POLLIN | POLLHUP | POLLERR))) {
      char buf[16];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        closed = true;
      }
    }
    // Honest traffic flows the whole time the attacker dangles.
    EXPECT_TRUE(client.Ping(addr).ok());
  }
  ::close(fd);
  EXPECT_TRUE(closed) << "slow-loris socket was never cut";

  // The daemon accounted for the kill.
  EXPECT_TRUE(harness::PollUntil(
      5s, [&] { return SumJsonCounter(metrics, "idle_closed") >= 1; }));

  const Status exited = daemon->Terminate(kExit);
  EXPECT_TRUE(exited.ok()) << exited.ToString();
}

}  // namespace
}  // namespace p2prange
