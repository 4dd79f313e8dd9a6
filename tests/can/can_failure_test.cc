// CAN failure-path edges: abrupt Fail leaves zones orphaned until
// TakeoverDeadZones reassigns them, Recover either resumes the old
// zones or re-joins through the protocol, and split/merge keeps exact
// fixed-point boundaries down to width-2 slivers and across the torus
// wrap. These are the paths the scenario engine's churn regimes lean
// on, so their edge behavior is pinned here against the real
// substrate.
#include <gtest/gtest.h>

#include <set>

#include "can/network.h"

namespace p2prange {
namespace can {
namespace {

CanNetwork MakeNet(size_t n, uint64_t seed = 21, int dims = 2) {
  overlay::OverlayParams cfg;
  cfg.can_dims = dims;
  auto net = CanNetwork::Make(n, seed, cfg);
  EXPECT_TRUE(net.ok()) << net.status();
  return std::move(net).ValueUnsafe();
}

TEST(CanFailureTest, FailedZonesStayOrphanedUntilTakeover) {
  CanNetwork net = MakeNet(16);
  auto victim = net.RandomAliveAddress();
  ASSERT_TRUE(victim.ok());
  const size_t victim_zones = net.node(*victim)->zones().size();
  ASSERT_GE(victim_zones, 1u);

  ASSERT_TRUE(net.Fail(*victim).ok());
  EXPECT_EQ(net.num_alive(), 15u);
  // The dead node still nominally holds its zones (CAN's takeover
  // timer has not fired): the oracle cannot resolve points inside.
  const Point inside = [&] {
    const Zone& z = net.node(*victim)->zones().front();
    Point p;
    for (int d = 0; d < z.dims(); ++d) {
      p.coords[d] = z.lo(d) + static_cast<uint32_t>(z.width(d) / 2);
    }
    return p;
  }();
  EXPECT_FALSE(net.FindOwnerOracle(inside).ok());

  const size_t transferred = net.TakeoverDeadZones();
  EXPECT_GE(transferred, victim_zones);
  auto owner = net.FindOwnerOracle(inside);
  ASSERT_TRUE(owner.ok()) << owner.status();
  EXPECT_NE(owner->addr, *victim);
  EXPECT_TRUE(net.CheckInvariants().ok());
  // Idempotent once everything is reassigned.
  EXPECT_EQ(net.TakeoverDeadZones(), 0u);
}

TEST(CanFailureTest, RecoverBeforeTakeoverResumesZones) {
  CanNetwork net = MakeNet(12);
  auto victim = net.RandomAliveAddress();
  ASSERT_TRUE(victim.ok());
  const std::vector<Zone> before = net.node(*victim)->zones();
  ASSERT_TRUE(net.Fail(*victim).ok());
  ASSERT_TRUE(net.Recover(*victim).ok());
  EXPECT_EQ(net.num_alive(), 12u);
  EXPECT_EQ(net.node(*victim)->zones(), before);
  EXPECT_TRUE(net.CheckInvariants().ok());
}

TEST(CanFailureTest, RecoverAfterTakeoverRejoinsThroughProtocol) {
  CanNetwork net = MakeNet(12);
  auto victim = net.RandomAliveAddress();
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(net.Fail(*victim).ok());
  ASSERT_GT(net.TakeoverDeadZones(), 0u);
  ASSERT_TRUE(net.Recover(*victim).ok());
  EXPECT_EQ(net.num_alive(), 12u);
  // Re-joined with the same address and a fresh (split) zone.
  ASSERT_FALSE(net.node(*victim)->zones().empty());
  EXPECT_TRUE(net.CheckInvariants().ok());
}

TEST(CanFailureTest, FailValidation) {
  CanNetwork net = MakeNet(3);
  auto victim = net.RandomAliveAddress();
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(net.Fail(*victim).ok());
  EXPECT_FALSE(net.Fail(*victim).ok());  // already dead
  EXPECT_FALSE(net.Fail(NetAddress{}).ok());
  EXPECT_FALSE(net.Recover(NetAddress{}).ok());
}

TEST(CanFailureTest, MassFailureWithTakeoverKeepsSpaceTiled) {
  CanNetwork net = MakeNet(32, 9);
  std::set<std::string> downed;
  for (int i = 0; i < 12; ++i) {
    auto victim = net.RandomAliveAddress();
    ASSERT_TRUE(victim.ok());
    ASSERT_TRUE(net.Fail(*victim).ok());
    downed.insert(victim->ToString());
  }
  net.TakeoverDeadZones();
  EXPECT_EQ(net.num_alive(), 32u - downed.size());
  EXPECT_TRUE(net.CheckInvariants().ok());
  // Every identifier resolves to a live owner again.
  for (uint32_t i = 0; i < 64; ++i) {
    auto owner = net.FindOwnerOracle(IdentifierToPoint(i * 0x9E3779B9u, 2));
    ASSERT_TRUE(owner.ok()) << owner.status();
    EXPECT_EQ(downed.count(owner->addr.ToString()), 0u);
  }
}

TEST(CanZoneEdgeTest, SplitToMinimumWidthSlivers) {
  // A width-2 axis still splits exactly once more; the halves are
  // width-1 and merge back losslessly.
  Zone z = Zone::Root(1);
  for (int i = 0; i < 31; ++i) z = z.Split(0).first;
  EXPECT_EQ(z.width(0), 2u);
  auto [lo, hi] = z.Split(0);
  EXPECT_EQ(lo.width(0), 1u);
  EXPECT_EQ(hi.width(0), 1u);
  EXPECT_EQ(hi.lo(0), lo.lo(0) + 1);
  int dim = -1;
  ASSERT_TRUE(lo.CanMergeWith(hi, &dim));
  EXPECT_EQ(dim, 0);
  EXPECT_EQ(lo.MergeWith(hi), z);
}

TEST(CanZoneEdgeTest, WraparoundNeighborsAcrossHighBoundary) {
  // Zones touching coordinate 2^32 - 1 wrap to neighbors at 0 in the
  // same dimension — the torus edge the scenario grids exercise.
  auto [left, right] = Zone::Root(2).Split(0);
  auto [ll, lr] = left.Split(0);
  auto [rl, rr] = right.Split(0);
  EXPECT_TRUE(rr.IsNeighbor(ll));  // wraps past 2^32
  EXPECT_TRUE(ll.IsNeighbor(rr));
  EXPECT_FALSE(rr.IsNeighbor(lr));  // interior, not adjacent
  int dim = -1;
  EXPECT_FALSE(rr.CanMergeWith(ll, &dim));  // adjacency via wrap: no merge
}

TEST(CanZoneEdgeTest, DistanceWrapsAtHighEdge) {
  auto [left, right] = Zone::Root(1).Split(0);
  // Point just past the torus wrap (coordinate 1) is nearly on top of
  // `right`'s high edge going the wrapped way.
  Point p;
  p.coords[0] = 1;
  EXPECT_LT(right.DistanceTo(p), 1e-6);
  EXPECT_EQ(left.DistanceTo(p), 0.0);  // contained
}

TEST(CanZoneEdgeTest, MaxDimsSplitCycle) {
  Zone z = Zone::Root(kMaxDims);
  // One split per dimension, widest-first, visits every axis once.
  std::set<int> split_dims;
  for (int i = 0; i < kMaxDims; ++i) {
    const int d = z.WidestDim();
    split_dims.insert(d);
    z = z.Split(d).first;
  }
  EXPECT_EQ(split_dims.size(), static_cast<size_t>(kMaxDims));
  EXPECT_NEAR(z.Volume(), 1.0 / 256.0, 1e-12);
}

}  // namespace
}  // namespace can
}  // namespace p2prange
