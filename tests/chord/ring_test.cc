#include "chord/ring.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/random.h"

namespace p2prange {
namespace chord {
namespace {

TEST(ChordRingTest, MakeRejectsZeroNodes) {
  EXPECT_TRUE(ChordRing::Make(0, 1).status().IsInvalidArgument());
}

TEST(ChordRingTest, MakeRejectsBadSuccessorListLen) {
  overlay::OverlayParams cfg;
  cfg.successor_list_len = 0;
  EXPECT_TRUE(ChordRing::Make(5, 1, cfg).status().IsInvalidArgument());
}

TEST(ChordRingTest, NodesHaveUniqueIds) {
  auto ring = ChordRing::Make(200, 7);
  ASSERT_TRUE(ring.ok());
  const auto nodes = ring->AlivePeersOrdered();
  ASSERT_EQ(nodes.size(), 200u);
  std::set<ChordId> ids;
  for (const overlay::PeerInfo& n : nodes) ids.insert(n.id);
  EXPECT_EQ(ids.size(), 200u);
  for (size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_LT(nodes[i - 1].id, nodes[i].id) << "must be sorted";
  }
}

TEST(ChordRingTest, SingleNodeRingOwnsEverything) {
  auto ring = ChordRing::Make(1, 3);
  ASSERT_TRUE(ring.ok());
  const overlay::PeerInfo only = ring->AlivePeersOrdered().front();
  for (ChordId target : {0u, 1u, 0x80000000u, 0xFFFFFFFFu, only.id}) {
    auto result = ring->RouteToOwner(only.addr, target);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->owner, only);
    EXPECT_EQ(result->hops, 0);
  }
}

TEST(ChordRingTest, OracleFindsCorrectSuccessor) {
  auto ring = ChordRing::Make(50, 11);
  ASSERT_TRUE(ring.ok());
  const auto nodes = ring->AlivePeersOrdered();
  // Target exactly at a node id -> that node.
  for (const overlay::PeerInfo& n : nodes) {
    auto owner = ring->OwnerOracle(n.id);
    ASSERT_TRUE(owner.ok());
    EXPECT_EQ(owner->id, n.id);
  }
  // Target one past a node -> the next node (wrapping).
  for (size_t i = 0; i < nodes.size(); ++i) {
    const overlay::PeerInfo& next = nodes[(i + 1) % nodes.size()];
    if (nodes[i].id + 1 == next.id) continue;
    auto owner = ring->OwnerOracle(nodes[i].id + 1);
    ASSERT_TRUE(owner.ok());
    EXPECT_EQ(owner->id, next.id);
  }
}

class RingLookupTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(RingSizes, RingLookupTest,
                         ::testing::Values(1, 2, 3, 8, 64, 300));

TEST_P(RingLookupTest, ProtocolLookupAgreesWithOracle) {
  auto ring = ChordRing::Make(GetParam(), 13);
  ASSERT_TRUE(ring.ok());
  Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    const ChordId target = rng.Next32();
    auto origin = ring->RandomAliveAddress();
    ASSERT_TRUE(origin.ok());
    auto expected = ring->OwnerOracle(target);
    ASSERT_TRUE(expected.ok());
    auto actual = ring->RouteToOwner(*origin, target);
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_EQ(actual->owner, *expected) << "target=" << target;
  }
}

TEST_P(RingLookupTest, HopsBoundedByLogarithm) {
  const size_t n = GetParam();
  auto ring = ChordRing::Make(n, 19);
  ASSERT_TRUE(ring.ok());
  Rng rng(23);
  const double log2n = std::log2(static_cast<double>(std::max<size_t>(n, 2)));
  for (int trial = 0; trial < 50; ++trial) {
    auto origin = ring->RandomAliveAddress();
    ASSERT_TRUE(origin.ok());
    auto result = ring->RouteToOwner(*origin, rng.Next32());
    ASSERT_TRUE(result.ok());
    // With perfect fingers, path length is at most ~log2 N (+ slack).
    EXPECT_LE(result->hops, static_cast<int>(2.0 * log2n) + 2);
  }
}

TEST(ChordRingTest, MeanPathLengthScalesAsHalfLog) {
  auto ring = ChordRing::Make(1024, 29);
  ASSERT_TRUE(ring.ok());
  Rng rng(31);
  double total_hops = 0;
  const int kLookups = 500;
  for (int i = 0; i < kLookups; ++i) {
    auto origin = ring->RandomAliveAddress();
    ASSERT_TRUE(origin.ok());
    auto result = ring->RouteToOwner(*origin, rng.Next32());
    ASSERT_TRUE(result.ok());
    total_hops += result->hops;
  }
  const double mean = total_hops / kLookups;
  // 0.5 * log2(1024) = 5; accept a broad band around it.
  EXPECT_GT(mean, 3.0);
  EXPECT_LT(mean, 7.5);
}

TEST(ChordRingTest, LookupChargesNetworkMessages) {
  auto ring = ChordRing::Make(128, 37);
  ASSERT_TRUE(ring.ok());
  ring->ResetNetStats();
  auto origin = ring->RandomAliveAddress();
  ASSERT_TRUE(origin.ok());
  auto result = ring->RouteToOwner(*origin, 0x12345678);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ring->net_stats().messages, static_cast<uint64_t>(result->hops));
}

TEST(ChordRingTest, SameSeedRingsReplayIdentically) {
  // Two rings, same seed: every owner, hop count and latency draw of
  // the simulated network must be exactly reproducible.
  auto ring1 = ChordRing::Make(32, 99);
  auto ring2 = ChordRing::Make(32, 99);
  ASSERT_TRUE(ring1.ok());
  ASSERT_TRUE(ring2.ok());
  auto origin1 = ring1->RandomAliveAddress();
  auto origin2 = ring2->RandomAliveAddress();
  ASSERT_TRUE(origin1.ok());
  ASSERT_TRUE(origin2.ok());
  ASSERT_EQ(*origin1, *origin2);
  for (uint32_t target = 0; target < 2000000000u; target += 123456789u) {
    auto r1 = ring1->RouteToOwner(*origin1, target);
    auto r2 = ring2->RouteToOwner(*origin2, target);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r1->owner.addr, r2->owner.addr);
    EXPECT_EQ(r1->hops, r2->hops);
    EXPECT_EQ(r1->latency_ms, r2->latency_ms);
  }
  EXPECT_EQ(ring1->net_stats().messages,
            ring2->net_stats().messages);
  EXPECT_EQ(ring1->net_stats().total_latency_ms,
            ring2->net_stats().total_latency_ms);
}

TEST(ChordRingTest, LookupFromDeadOriginFails) {
  auto ring = ChordRing::Make(10, 41);
  ASSERT_TRUE(ring.ok());
  const auto nodes = ring->AlivePeersOrdered();
  ASSERT_TRUE(ring->Fail(nodes[0].addr).ok());
  EXPECT_TRUE(ring->RouteToOwner(nodes[0].addr, 5).status().IsInvalidArgument());
}

TEST(ChordRingTest, AddNodeJoinsAndResolvesCorrectly) {
  auto ring = ChordRing::Make(32, 43);
  ASSERT_TRUE(ring.ok());
  for (int i = 0; i < 8; ++i) {
    auto added = ring->AddNode();
    ASSERT_TRUE(added.ok()) << added.status();
    ring->Stabilize(2);
  }
  ring->RepairRouting();
  ring->Stabilize(1);
  EXPECT_EQ(ring->num_alive(), 40u);
  // After maintenance, protocol lookups agree with the oracle.
  Rng rng(47);
  for (int trial = 0; trial < 60; ++trial) {
    const ChordId target = rng.Next32();
    auto origin = ring->RandomAliveAddress();
    ASSERT_TRUE(origin.ok());
    auto expected = ring->OwnerOracle(target);
    auto actual = ring->RouteToOwner(*origin, target);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_EQ(actual->owner, *expected);
  }
}

TEST(ChordRingTest, GracefulLeavePatchesNeighbors) {
  auto ring = ChordRing::Make(64, 53);
  ASSERT_TRUE(ring.ok());
  const auto nodes = ring->AlivePeersOrdered();
  const NetAddress leaver = nodes[10].addr;
  ASSERT_TRUE(ring->Leave(leaver).ok());
  EXPECT_EQ(ring->num_alive(), 63u);
  EXPECT_TRUE(ring->Leave(leaver).IsInvalidArgument()) << "already gone";
  ring->Stabilize(2);
  // Identifiers previously owned by the leaver now resolve to its
  // successor.
  auto owner = ring->OwnerOracle(nodes[10].id);
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(owner->id, nodes[11].id);
  auto origin = ring->RandomAliveAddress();
  ASSERT_TRUE(origin.ok());
  auto result = ring->RouteToOwner(*origin, nodes[10].id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->owner.id, nodes[11].id);
}

TEST(ChordRingTest, LookupsRouteAroundAbruptFailures) {
  overlay::OverlayParams cfg;
  cfg.successor_list_len = 16;
  auto ring = ChordRing::Make(128, 59, cfg);
  ASSERT_TRUE(ring.ok());
  // Fail 12 random peers without any repair.
  Rng rng(61);
  auto nodes = ring->AlivePeersOrdered();
  std::set<size_t> failed;
  while (failed.size() < 12) failed.insert(rng.NextBounded(nodes.size()));
  for (size_t idx : failed) ASSERT_TRUE(ring->Fail(nodes[idx].addr).ok());

  for (int trial = 0; trial < 100; ++trial) {
    const ChordId target = rng.Next32();
    auto origin = ring->RandomAliveAddress();
    ASSERT_TRUE(origin.ok());
    auto expected = ring->OwnerOracle(target);
    auto actual = ring->RouteToOwner(*origin, target);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_EQ(actual->owner, *expected) << "target=" << target;
  }
}

TEST(ChordRingTest, StabilizationRepairsAfterFailures) {
  auto ring = ChordRing::Make(100, 67);
  ASSERT_TRUE(ring.ok());
  auto nodes = ring->AlivePeersOrdered();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ring->Fail(nodes[i * 7].addr).ok());
  }
  ring->Stabilize(3);
  ring->RepairRouting();
  // After repair, successors/predecessors are consistent: each live
  // node's successor is the next live node.
  const auto alive = ring->AlivePeersOrdered();
  for (size_t i = 0; i < alive.size(); ++i) {
    const ChordNode* n = ring->node(alive[i].addr);
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->successor().id, alive[(i + 1) % alive.size()].id)
        << "node " << n->id();
  }
}

TEST(ChordRingTest, GrowFromSingleNodeViaProtocolJoins) {
  // Bootstrap a 1-node system and grow it to 12 entirely through the
  // join protocol + stabilization — the hardest regime for ring
  // pointers (self-loops must break correctly).
  auto ring = chord::ChordRing::Make(1, 97);
  ASSERT_TRUE(ring.ok());
  for (int i = 0; i < 11; ++i) {
    auto added = ring->AddNode();
    ASSERT_TRUE(added.ok()) << "join " << i << ": " << added.status();
    ring->Stabilize(3);
    ring->RepairRouting();
  }
  EXPECT_EQ(ring->num_alive(), 12u);
  const auto alive = ring->AlivePeersOrdered();
  for (size_t i = 0; i < alive.size(); ++i) {
    const ChordNode* n = ring->node(alive[i].addr);
    EXPECT_EQ(n->successor().id, alive[(i + 1) % alive.size()].id)
        << "successor chain broken at " << n->id();
  }
  Rng rng(101);
  for (int trial = 0; trial < 50; ++trial) {
    const ChordId target = rng.Next32();
    auto origin = ring->RandomAliveAddress();
    ASSERT_TRUE(origin.ok());
    auto expected = ring->OwnerOracle(target);
    auto actual = ring->RouteToOwner(*origin, target);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_EQ(actual->owner, *expected);
  }
}

TEST(ChordRingTest, SuccessorListLongerThanRing) {
  // successor_list_len > N must clamp, not wrap duplicates.
  overlay::OverlayParams cfg;
  cfg.successor_list_len = 16;
  auto ring = chord::ChordRing::Make(3, 103, cfg);
  ASSERT_TRUE(ring.ok());
  for (const overlay::PeerInfo& info : ring->AlivePeersOrdered()) {
    const ChordNode* n = ring->node(info.addr);
    EXPECT_LE(n->successors().size(), 3u);
    // No duplicates.
    std::set<uint32_t> ids;
    for (const overlay::PeerInfo& s : n->successors()) ids.insert(s.id);
    EXPECT_EQ(ids.size(), n->successors().size());
  }
}

TEST(ChordRingTest, RandomAliveAddressFailsOnDeadRing) {
  auto ring = ChordRing::Make(2, 71);
  ASSERT_TRUE(ring.ok());
  for (const overlay::PeerInfo& n : ring->AlivePeersOrdered()) {
    ASSERT_TRUE(ring->Fail(n.addr).ok());
  }
  EXPECT_TRUE(ring->RandomAliveAddress().status().IsNotFound());
}

TEST(ChordRingTest, PerfectStateHasCorrectFingers) {
  auto ring = ChordRing::Make(64, 73);
  ASSERT_TRUE(ring.ok());
  for (const overlay::PeerInfo& info : ring->AlivePeersOrdered()) {
    const ChordNode* n = ring->node(info.addr);
    for (int k = 0; k < FingerTable::size(); ++k) {
      ASSERT_TRUE(n->fingers().entry(k).has_value());
      auto expected = ring->OwnerOracle(FingerStart(n->id(), k));
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(n->fingers().entry(k)->id, expected->id)
          << "node " << n->id() << " finger " << k;
    }
  }
}

}  // namespace
}  // namespace chord
}  // namespace p2prange
