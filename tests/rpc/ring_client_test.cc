// The client-path fault behaviors of RingClient against hand-rolled
// peers: view refreshes that must not corrupt the routing view,
// wall-clock latency accounting on the slow paths, redirect dedupe in
// Publish, kMultiOp batching equivalence, and admission-control sheds
// failing over without a retry storm. Real NodeServices play the
// honest peers; scripted handlers play the faulty ones.
#include "rpc/ring_client.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <string>
#include <vector>

#include "rpc/membership.h"
#include "rpc/tcp.h"
#include "rpc/tcp_transport.h"
#include "tests/support/live_harness.h"

namespace p2prange {
namespace rpc {
namespace {

using harness::Loopback;
using harness::MiniRing;
using harness::ServerThread;

RingClientOptions SmallLshOptions() {
  RingClientOptions options;
  options.lsh.k = 10;
  options.lsh.l = 5;
  return options;
}

TEST(TcpTransportTest, PumpForDrainsResponsesIntoTheParkingLot) {
  auto server = ServerThread::Start([](MsgType, std::string_view body) {
    return Result<std::string>(std::string(body));
  });
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  TcpTransport transport;
  auto call = transport.StartCall((*server)->address(), MsgType::kPing, "hi");
  ASSERT_TRUE(call.ok());

  // The pump itself must receive (and park) the response: afterwards
  // it is already counted, and the wait completes from the parked
  // frame essentially instantly.
  transport.PumpFor(200.0);
  EXPECT_EQ(transport.rpc_stats().responses_received, 1u);

  auto result = transport.WaitCall((*server)->address(), *call,
                                   /*deadline_ms=*/5.0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->body, "hi");
  EXPECT_EQ(transport.rpc_stats().timeouts, 0u);
}

TEST(RingClientTest, RefreshViewWithNoAliveEntriesLeavesViewUntouched) {
  // A peer whose gossip knows only casualties: every entry suspect,
  // dead, or departed. There is no alive set to rebuild a view from,
  // so the refresh must fail and the old view must survive.
  auto gossiper = ServerThread::Start([](MsgType type, std::string_view) {
    EXPECT_EQ(type, MsgType::kGossip);
    std::vector<MemberEntry> entries;
    entries.push_back({Loopback(41001), 5, MemberStatus::kSuspect});
    entries.push_back({Loopback(41002), 5, MemberStatus::kDead});
    entries.push_back({Loopback(41003), 5, MemberStatus::kLeft});
    return Result<std::string>(EncodeViewMessage(entries));
  });
  ASSERT_TRUE(gossiper.ok()) << gossiper.status().ToString();

  auto client = RingClient::Make({(*gossiper)->address()}, SmallLshOptions());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  EXPECT_FALSE((*client)->RefreshView().ok());
  ASSERT_EQ((*client)->view().members().size(), 1u);
  EXPECT_TRUE((*client)->view().Contains((*gossiper)->address()));
}

TEST(RingClientTest, RefreshViewDropsMembersMissingFromTheFreshView) {
  // The gossip answer names one alive member the client has never
  // heard of — and neither of the members it currently routes to. The
  // refreshed view must contain exactly the gossiped alive set.
  const NetAddress survivor = Loopback(41099);
  auto gossiper = ServerThread::Start(
      [survivor](MsgType, std::string_view) {
        return Result<std::string>(
            EncodeViewMessage({{survivor, 9, MemberStatus::kAlive}}));
      });
  ASSERT_TRUE(gossiper.ok()) << gossiper.status().ToString();

  // A second "member" that is a reserved port with no listener: if the
  // refresh contacts it first, the failure must move on to the
  // gossiper instead of giving up.
  auto dead = harness::ReservePort(Loopback(0));
  ASSERT_TRUE(dead.ok()) << dead.status().ToString();

  auto client =
      RingClient::Make({(*gossiper)->address(), *dead}, SmallLshOptions());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->view().Contains(*dead));

  ASSERT_TRUE((*client)->RefreshView().ok());
  ASSERT_EQ((*client)->view().members().size(), 1u);
  EXPECT_TRUE((*client)->view().Contains(survivor));
  EXPECT_FALSE((*client)->view().Contains(*dead));
  EXPECT_FALSE((*client)->view().Contains((*gossiper)->address()));
}

TEST(RingClientTest, LookupChargesWallClockOnTimeoutAndRetryPaths) {
  // A listener that accepts into its backlog and never answers: every
  // probe burns its first-wave deadline, then one more on the
  // per-replica fallback, and the first also waits out a view refresh
  // the silent peer never answers. The reported latency must cover all
  // of that wall clock, not just the (absent) successful round trips.
  auto silent = Listen(Loopback(0));
  ASSERT_TRUE(silent.ok());

  RingClientOptions options = SmallLshOptions();
  options.deadline_ms = 80.0;
  options.fault.max_retries = 0;
  auto client = RingClient::Make({silent->bound}, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const auto started = std::chrono::steady_clock::now();
  auto outcome = (*client)->Lookup(PartitionKey{"T", "a", Range(100, 200)});
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - started)
                             .count();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  EXPECT_EQ(outcome->probes_failed,
            static_cast<int>(outcome->identifiers.size()));
  EXPECT_TRUE(outcome->ranked.empty());
  // Each of the l probes spent at least one 80ms deadline; the summed
  // per-probe wall clock can never exceed the whole lookup's.
  EXPECT_GE(outcome->latency_ms,
            80.0 * static_cast<double>(outcome->identifiers.size()));
  EXPECT_LE(outcome->latency_ms, wall_ms + 1.0);
  EXPECT_GT((*client)->transport().rpc_stats().timeouts, 0u);
  ::close(silent->fd);
}

TEST(RingClientTest, PublishCountsARedirectedStoreOncePerAddress) {
  // One honest holder, and one peer that redirects every store to that
  // same holder. With replication 2 each bucket tries both replicas;
  // the redirected store lands where the direct one already did, so a
  // bucket ends up with exactly one distinct copy — counting stores
  // instead of addresses would report two.
  auto honest = MiniRing::Start(1);
  ASSERT_TRUE(honest.ok()) << honest.status().ToString();
  const NetAddress holder = honest->members()[0];
  auto redirector = ServerThread::Start(
      [holder](MsgType type, std::string_view) {
        EXPECT_EQ(type, MsgType::kStoreDescriptor);
        return Result<std::string>(
            Status::OutOfRange(WrongOwnerMessage(holder)));
      });
  ASSERT_TRUE(redirector.ok()) << redirector.status().ToString();

  RingClientOptions options = SmallLshOptions();
  options.descriptor_replication = 2;
  auto client =
      RingClient::Make({(*redirector)->address(), holder}, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  RingClient::PublishStats stats;
  ASSERT_TRUE((*client)
                  ->Publish(PartitionKey{"T", "a", Range(100, 200)}, holder,
                            &stats)
                  .ok());
  EXPECT_GT(stats.buckets, 0);
  EXPECT_GT(stats.redirects, 0);
  EXPECT_EQ(stats.copies_stored, stats.buckets);
}

TEST(RingClientTest, BatchedAndUnbatchedLookupsAgree) {
  auto ring = MiniRing::Start(2);
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  RingClientOptions batched_options = SmallLshOptions();
  ASSERT_TRUE(batched_options.batch_probes);  // the default
  RingClientOptions solo_options = SmallLshOptions();
  solo_options.batch_probes = false;

  auto batched = RingClient::Make(ring->members(), batched_options);
  auto solo = RingClient::Make(ring->members(), solo_options);
  ASSERT_TRUE(batched.ok());
  ASSERT_TRUE(solo.ok());

  const PartitionKey published{"T", "a", Range(100, 200)};
  ASSERT_TRUE((*batched)->Publish(published, ring->members()[0]).ok());

  auto with_batches = (*batched)->Lookup(published);
  auto without = (*solo)->Lookup(published);
  ASSERT_TRUE(with_batches.ok());
  ASSERT_TRUE(without.ok());

  // 5 probes over at most 2 owners: some owner gets a real batch.
  EXPECT_GE(with_batches->batched_probes, 2);
  EXPECT_EQ(without->batched_probes, 0);

  // Same answers either way: batching is a wire optimization.
  ASSERT_FALSE(with_batches->ranked.empty());
  ASSERT_EQ(with_batches->ranked.size(), without->ranked.size());
  EXPECT_EQ(with_batches->ranked.front().descriptor.key, published);
  EXPECT_EQ(without->ranked.front().descriptor.key, published);
  EXPECT_EQ(with_batches->probes_failed, 0);
  EXPECT_EQ(without->probes_failed, 0);
}

TEST(RingClientTest, ShedReplicaFailsOverWithoutRetries) {
  // A peer at capacity sheds everything with ResourceExhausted. The
  // shed is not transient loss: the client must fail over to the next
  // replica immediately — zero retransmissions — and the lookup still
  // answers from the healthy peer.
  auto honest = MiniRing::Start(1);
  ASSERT_TRUE(honest.ok()) << honest.status().ToString();
  auto shedding = ServerThread::Start([](MsgType, std::string_view) {
    return Result<std::string>(Status::ResourceExhausted("work queue full"));
  });
  ASSERT_TRUE(shedding.ok()) << shedding.status().ToString();

  RingClientOptions options = SmallLshOptions();
  options.descriptor_replication = 2;
  auto client = RingClient::Make({(*shedding)->address(), honest->members()[0]},
                                 options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const PartitionKey published{"T", "a", Range(100, 200)};
  ASSERT_TRUE((*client)->Publish(published, honest->members()[0]).ok());

  auto outcome = (*client)->Lookup(published);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->probes_failed, 0);
  ASSERT_FALSE(outcome->ranked.empty());
  EXPECT_EQ(outcome->ranked.front().descriptor.key, published);
  EXPECT_EQ((*client)->transport().rpc_stats().retransmits, 0u);
}

}  // namespace
}  // namespace rpc
}  // namespace p2prange
