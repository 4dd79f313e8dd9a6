// The Overlay contract, exercised identically against all three
// substrates: ownership agrees between the routed path and the
// oracle, replica candidates exclude the owner, every call hands out
// one identity per peer, membership churn (join / leave / fail /
// recover) keeps the routing surface sound, and every hop lands in the
// accounted network stats.
#include "overlay/overlay.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

namespace p2prange {
namespace overlay {
namespace {

class OverlayContractTest : public ::testing::TestWithParam<Kind> {
 protected:
  std::unique_ptr<Overlay> MakeNet(size_t n, uint64_t seed = 11) {
    OverlayParams params;
    params.kind = GetParam();
    auto net = MakeOverlay(params, n, seed);
    EXPECT_TRUE(net.ok()) << net.status();
    return std::move(net).ValueUnsafe();
  }
};

TEST_P(OverlayContractTest, KindNamesRoundTrip) {
  auto net = MakeNet(8);
  EXPECT_EQ(net->kind(), GetParam());
  auto back = KindFromName(net->name());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, GetParam());
  EXPECT_FALSE(KindFromName("pastry").ok());
}

TEST_P(OverlayContractTest, AlivePeersOrderedIsSortedAndComplete) {
  auto net = MakeNet(24);
  const std::vector<PeerInfo> peers = net->AlivePeersOrdered();
  ASSERT_EQ(peers.size(), 24u);
  EXPECT_EQ(net->num_alive(), 24u);
  std::set<std::string> addrs;
  for (size_t i = 0; i < peers.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(peers[i - 1].id, peers[i].id);
    }
    EXPECT_TRUE(net->IsAlive(peers[i].addr));
    addrs.insert(peers[i].addr.ToString());
  }
  EXPECT_EQ(addrs.size(), 24u) << "duplicate addresses in the peer list";
}

TEST_P(OverlayContractTest, RouteAgreesWithOracle) {
  auto net = MakeNet(32);
  for (uint32_t i = 0; i < 64; ++i) {
    const uint32_t id = i * 0x9E3779B9u;
    auto oracle = net->OwnerOracle(id);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    auto origin = net->RandomAliveAddress();
    ASSERT_TRUE(origin.ok());
    auto routed = net->RouteToOwner(*origin, id);
    ASSERT_TRUE(routed.ok()) << routed.status();
    EXPECT_EQ(routed->owner.addr, oracle->addr) << "id " << id;
    EXPECT_GE(routed->hops, 0);
    EXPECT_GE(routed->latency_ms, 0.0);
  }
}

TEST_P(OverlayContractTest, ReplicaCandidatesExcludeOwnerAndAreDistinct) {
  auto net = MakeNet(16);
  for (const PeerInfo& peer : net->AlivePeersOrdered()) {
    const std::vector<PeerInfo> replicas = net->ReplicaCandidates(peer.addr);
    EXPECT_FALSE(replicas.empty());
    std::set<std::string> seen;
    for (const PeerInfo& r : replicas) {
      EXPECT_NE(r.addr, peer.addr) << "owner listed as its own replica";
      EXPECT_TRUE(seen.insert(r.addr.ToString()).second);
    }
  }
}

TEST_P(OverlayContractTest, MembershipLifecycle) {
  auto net = MakeNet(12);
  auto joined = net->AddNode();
  ASSERT_TRUE(joined.ok()) << joined.status();
  net->Stabilize(2);
  EXPECT_EQ(net->num_alive(), 13u);
  EXPECT_TRUE(net->IsAlive(joined->addr));

  ASSERT_TRUE(net->Leave(joined->addr).ok());
  net->Stabilize(1);
  EXPECT_EQ(net->num_alive(), 12u);
  EXPECT_FALSE(net->IsAlive(joined->addr));

  // Abrupt failure and recovery of an existing peer.
  const PeerInfo victim = net->AlivePeersOrdered().front();
  ASSERT_TRUE(net->Fail(victim.addr).ok());
  net->Stabilize(1);
  EXPECT_FALSE(net->IsAlive(victim.addr));
  EXPECT_EQ(net->num_alive(), 11u);

  ASSERT_TRUE(net->Recover(victim.addr).ok());
  net->Stabilize(1);
  net->RepairRouting();
  EXPECT_TRUE(net->IsAlive(victim.addr));
  EXPECT_EQ(net->num_alive(), 12u);

  // The routing surface survived the churn: every probe still lands
  // on the oracle's owner.
  for (uint32_t i = 0; i < 16; ++i) {
    const uint32_t id = 0x1234567u + i * 0x01000193u;
    auto oracle = net->OwnerOracle(id);
    ASSERT_TRUE(oracle.ok());
    auto origin = net->RandomAliveAddress();
    ASSERT_TRUE(origin.ok());
    auto routed = net->RouteToOwner(*origin, id);
    ASSERT_TRUE(routed.ok()) << routed.status();
    EXPECT_EQ(routed->owner.addr, oracle->addr);
  }
}

TEST_P(OverlayContractTest, OnePeerInfoPerAddress) {
  auto net = MakeNet(24);
  auto joined = net->AddNode();
  ASSERT_TRUE(joined.ok()) << joined.status();
  net->Stabilize(2);

  // Every PeerInfo the contract hands out for a live address must be
  // that address's AlivePeersOrdered entry, id included.
  auto check = [&](const std::string& phase) {
    std::map<std::string, PeerInfo> listed;
    for (const PeerInfo& p : net->AlivePeersOrdered()) {
      listed.emplace(p.addr.ToString(), p);
    }
    auto expect_listed = [&](const PeerInfo& p, const char* source) {
      auto it = listed.find(p.addr.ToString());
      ASSERT_NE(it, listed.end())
          << phase << ": " << source << " named a peer that is not alive";
      EXPECT_EQ(p, it->second) << phase << ": " << source << " for "
                               << p.addr.ToString();
    };
    expect_listed(*joined, "AddNode");
    for (uint32_t i = 0; i < 16; ++i) {
      const uint32_t id = 0x2545F491u * i + 17;
      auto oracle = net->OwnerOracle(id);
      ASSERT_TRUE(oracle.ok()) << oracle.status();
      expect_listed(*oracle, "OwnerOracle");
      auto origin = net->RandomAliveAddress();
      ASSERT_TRUE(origin.ok());
      auto routed = net->RouteToOwner(*origin, id);
      ASSERT_TRUE(routed.ok()) << routed.status();
      expect_listed(routed->owner, "RouteToOwner");
    }
    for (const auto& [text, peer] : listed) {
      for (const PeerInfo& r : net->ReplicaCandidates(peer.addr)) {
        if (net->IsAlive(r.addr)) expect_listed(r, "ReplicaCandidates");
      }
    }
  };
  check("before churn");

  const std::vector<PeerInfo> before = net->AlivePeersOrdered();
  const PeerInfo victim =
      before[0].addr == joined->addr ? before[1] : before[0];
  ASSERT_TRUE(net->Fail(victim.addr).ok());
  net->Stabilize(1);
  ASSERT_TRUE(net->Recover(victim.addr).ok());
  net->Stabilize(1);
  net->RepairRouting();
  check("after fail/recover");
  EXPECT_EQ(net->AlivePeersOrdered(), before)
      << "a recovered peer keeps its identity";
}

TEST_P(OverlayContractTest, RoutingAroundFailedOwner) {
  auto net = MakeNet(16);
  const uint32_t id = 0xDEADBEEF;
  auto before = net->OwnerOracle(id);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(net->Fail(before->addr).ok());
  net->Stabilize(2);
  net->RepairRouting();
  auto after = net->OwnerOracle(id);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->addr, before->addr);
  auto origin = net->RandomAliveAddress();
  ASSERT_TRUE(origin.ok());
  auto routed = net->RouteToOwner(*origin, id);
  ASSERT_TRUE(routed.ok()) << routed.status();
  EXPECT_EQ(routed->owner.addr, after->addr);
}

TEST_P(OverlayContractTest, DeliverBytesIsAccounted) {
  auto net = MakeNet(8);
  net->ResetNetStats();
  const std::vector<PeerInfo> peers = net->AlivePeersOrdered();
  auto latency = net->DeliverBytes(peers[0].addr, peers[1].addr, 128);
  ASSERT_TRUE(latency.ok()) << latency.status();
  EXPECT_GE(*latency, 0.0);
  EXPECT_EQ(net->net_stats().messages, 1u);
  EXPECT_GE(net->net_stats().bytes, 128u);
}

TEST_P(OverlayContractTest, DeterministicUnderSeed) {
  auto a = MakeNet(20, 99);
  auto b = MakeNet(20, 99);
  const auto pa = a->AlivePeersOrdered();
  const auto pb = b->AlivePeersOrdered();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
  for (uint32_t i = 0; i < 8; ++i) {
    const uint32_t id = i * 0x61C88647u;
    auto oa = a->OwnerOracle(id);
    auto ob = b->OwnerOracle(id);
    ASSERT_TRUE(oa.ok() && ob.ok());
    EXPECT_EQ(oa->addr, ob->addr);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, OverlayContractTest,
                         ::testing::Values(Kind::kChord, Kind::kCan,
                                           Kind::kTapestry),
                         [](const ::testing::TestParamInfo<Kind>& param) {
                           return std::string(KindName(param.param));
                         });

}  // namespace
}  // namespace overlay
}  // namespace p2prange
