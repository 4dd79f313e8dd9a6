#include "can/network.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "stats/summary.h"

namespace p2prange {
namespace can {
namespace {

TEST(CanNetworkTest, MakeRejectsBadConfigs) {
  EXPECT_TRUE(CanNetwork::Make(0, 1).status().IsInvalidArgument());
  overlay::OverlayParams cfg;
  cfg.can_dims = 0;
  EXPECT_TRUE(CanNetwork::Make(4, 1, cfg).status().IsInvalidArgument());
  cfg.can_dims = kMaxDims + 1;
  EXPECT_TRUE(CanNetwork::Make(4, 1, cfg).status().IsInvalidArgument());
}

TEST(CanNetworkTest, SingleNodeOwnsEverything) {
  auto net = CanNetwork::Make(1, 3);
  ASSERT_TRUE(net.ok());
  ASSERT_TRUE(net->CheckInvariants().ok());
  auto origin = net->RandomAliveAddress();
  ASSERT_TRUE(origin.ok());
  auto result = net->RouteToOwner(*origin, 0xCAFEBABE);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->owner.addr, *origin);
  EXPECT_EQ(result->hops, 0);
}

class CanSizeTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, CanSizeTest, ::testing::Values(2, 5, 16, 64, 200));

TEST_P(CanSizeTest, InvariantsHoldAfterGrowth) {
  auto net = CanNetwork::Make(GetParam(), 7);
  ASSERT_TRUE(net.ok()) << net.status();
  EXPECT_EQ(net->num_alive(), GetParam());
  EXPECT_TRUE(net->CheckInvariants().ok()) << net->CheckInvariants();
}

TEST_P(CanSizeTest, LookupsAgreeWithOracle) {
  auto net = CanNetwork::Make(GetParam(), 11);
  ASSERT_TRUE(net.ok());
  Rng rng(13);
  for (int trial = 0; trial < 60; ++trial) {
    const uint32_t id = rng.Next32();
    auto origin = net->RandomAliveAddress();
    ASSERT_TRUE(origin.ok());
    auto result = net->RouteToOwner(*origin, id);
    ASSERT_TRUE(result.ok()) << result.status();
    auto oracle = net->OwnerOracle(id);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(result->owner, *oracle);
  }
}

TEST(CanNetworkTest, PathLengthScalesAsDTimesRootN) {
  // CAN routing is O(d * n^(1/d)); with d=2 and n=256 expect means in
  // the ~(1/2)*d*n^(1/d) = 16-hop ballpark, far above log2(n).
  auto net = CanNetwork::Make(256, 17);
  ASSERT_TRUE(net.ok());
  Rng rng(19);
  Summary hops;
  for (int i = 0; i < 300; ++i) {
    auto origin = net->RandomAliveAddress();
    ASSERT_TRUE(origin.ok());
    auto result = net->RouteToOwner(*origin, rng.Next32());
    ASSERT_TRUE(result.ok());
    hops.AddCount(static_cast<uint64_t>(result->hops));
  }
  const double expected = 0.5 * 2.0 * std::sqrt(256.0);  // ~16
  EXPECT_GT(hops.Mean(), expected * 0.3);
  EXPECT_LT(hops.Mean(), expected * 2.0);
}

TEST(CanNetworkTest, HigherDimensionalityShortensRoutes) {
  Summary hops2, hops4;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    overlay::OverlayParams d2;
    d2.can_dims = 2;
    overlay::OverlayParams d4;
    d4.can_dims = 4;
    auto net2 = CanNetwork::Make(256, seed, d2);
    auto net4 = CanNetwork::Make(256, seed, d4);
    ASSERT_TRUE(net2.ok());
    ASSERT_TRUE(net4.ok());
    Rng rng(seed * 100);
    for (int i = 0; i < 100; ++i) {
      const uint32_t id = rng.Next32();
      auto o2 = net2->RandomAliveAddress();
      auto o4 = net4->RandomAliveAddress();
      ASSERT_TRUE(o2.ok());
      ASSERT_TRUE(o4.ok());
      auto r2 = net2->RouteToOwner(*o2, id);
      auto r4 = net4->RouteToOwner(*o4, id);
      ASSERT_TRUE(r2.ok());
      ASSERT_TRUE(r4.ok());
      hops2.AddCount(static_cast<uint64_t>(r2->hops));
      hops4.AddCount(static_cast<uint64_t>(r4->hops));
    }
  }
  EXPECT_LT(hops4.Mean(), hops2.Mean());
}

TEST(CanNetworkTest, NeighborCountsGrowWithDimension) {
  overlay::OverlayParams d2;
  d2.can_dims = 2;
  overlay::OverlayParams d6;
  d6.can_dims = 6;
  auto net2 = CanNetwork::Make(128, 23, d2);
  auto net6 = CanNetwork::Make(128, 23, d6);
  ASSERT_TRUE(net2.ok());
  ASSERT_TRUE(net6.ok());
  Summary n2, n6;
  for (size_t c : net2->RoutingStateSizes()) n2.AddCount(c);
  for (size_t c : net6->RoutingStateSizes()) n6.AddCount(c);
  EXPECT_GT(n6.Mean(), n2.Mean());
  // CAN's per-node state is O(d): ~2d for balanced zones.
  EXPECT_GT(n2.Mean(), 2.0);
}

TEST(CanNetworkTest, VolumesTileAndAreBalanced) {
  auto net = CanNetwork::Make(128, 29);
  ASSERT_TRUE(net.ok());
  const auto volumes = net->Volumes();
  ASSERT_EQ(volumes.size(), 128u);
  double total = 0;
  for (double v : volumes) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Random splitting gives volumes within a few binary orders of the
  // mean (CAN's known imbalance without load-aware joins).
  for (double v : volumes) {
    EXPECT_GT(v, 1.0 / 128.0 / 64.0);
    EXPECT_LT(v, 64.0 / 128.0);
  }
}

TEST(CanNetworkTest, LeaveMergesOrHandsOverZones) {
  auto net = CanNetwork::Make(32, 31);
  ASSERT_TRUE(net.ok());
  Rng rng(37);
  for (int round = 0; round < 10; ++round) {
    auto victim = net->RandomAliveAddress();
    ASSERT_TRUE(victim.ok());
    if (net->num_alive() == 1) break;
    ASSERT_TRUE(net->Leave(*victim).ok());
    ASSERT_TRUE(net->CheckInvariants().ok()) << net->CheckInvariants();
  }
  EXPECT_EQ(net->num_alive(), 22u);
  // Lookups still resolve after the departures.
  for (int i = 0; i < 40; ++i) {
    auto origin = net->RandomAliveAddress();
    ASSERT_TRUE(origin.ok());
    auto result = net->RouteToOwner(*origin, rng.Next32());
    ASSERT_TRUE(result.ok()) << result.status();
  }
}

TEST(CanNetworkTest, LeaveRejectsLastNodeAndDeadNodes) {
  auto net = CanNetwork::Make(2, 41);
  ASSERT_TRUE(net.ok());
  auto a = net->RandomAliveAddress();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(net->Leave(*a).ok());
  EXPECT_TRUE(net->Leave(*a).IsInvalidArgument());
  auto last = net->RandomAliveAddress();
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(net->Leave(*last).IsInvalidArgument());
}

TEST(CanNetworkTest, ChurnStress) {
  auto net = CanNetwork::Make(48, 43);
  ASSERT_TRUE(net.ok());
  Rng rng(47);
  for (int round = 0; round < 20; ++round) {
    if (rng.NextBernoulli(0.5)) {
      auto added = net->AddNode();
      ASSERT_TRUE(added.ok()) << added.status();
    } else if (net->num_alive() > 2) {
      auto victim = net->RandomAliveAddress();
      ASSERT_TRUE(victim.ok());
      ASSERT_TRUE(net->Leave(*victim).ok());
    }
    ASSERT_TRUE(net->CheckInvariants().ok())
        << "round " << round << ": " << net->CheckInvariants();
  }
}

TEST(CanNetworkTest, LookupFromDeadOriginFails) {
  auto net = CanNetwork::Make(4, 53);
  ASSERT_TRUE(net.ok());
  auto victim = net->RandomAliveAddress();
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(net->Leave(*victim).ok());
  EXPECT_TRUE(net->RouteToOwner(*victim, 1).status().IsInvalidArgument());
}

}  // namespace
}  // namespace can
}  // namespace p2prange
