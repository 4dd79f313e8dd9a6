#include "chord/node.h"

#include <gtest/gtest.h>

namespace p2prange {
namespace chord {
namespace {

overlay::PeerInfo Info(ChordId id) {
  return overlay::PeerInfo{id, NetAddress{id, static_cast<uint16_t>(id & 0xFFFF)}};
}

TEST(FingerTableTest, EntriesStartUnset) {
  FingerTable ft;
  for (int i = 0; i < FingerTable::size(); ++i) {
    EXPECT_FALSE(ft.entry(i).has_value());
  }
}

TEST(FingerTableTest, SetClearRoundTrip) {
  FingerTable ft;
  ft.set_entry(3, Info(77));
  ASSERT_TRUE(ft.entry(3).has_value());
  EXPECT_EQ(ft.entry(3)->id, 77u);
  ft.clear_entry(3);
  EXPECT_FALSE(ft.entry(3).has_value());
}

TEST(ChordNodeTest, SuccessorDefaultsToSelf) {
  ChordNode n(100, NetAddress{1, 1});
  EXPECT_EQ(n.successor(), n.info());
}

TEST(ChordNodeTest, OwnsIdUsesPredecessor) {
  ChordNode n(1000, NetAddress{1, 1});
  n.set_predecessor(Info(500));
  EXPECT_TRUE(n.OwnsId(1000));
  EXPECT_TRUE(n.OwnsId(501));
  EXPECT_TRUE(n.OwnsId(750));
  EXPECT_FALSE(n.OwnsId(500));
  EXPECT_FALSE(n.OwnsId(1001));
  EXPECT_FALSE(n.OwnsId(0));
}

TEST(ChordNodeTest, OwnsIdWrapsAroundZero) {
  ChordNode n(10, NetAddress{1, 1});
  n.set_predecessor(Info(0xFFFFFF00));
  EXPECT_TRUE(n.OwnsId(0));
  EXPECT_TRUE(n.OwnsId(10));
  EXPECT_TRUE(n.OwnsId(0xFFFFFFFF));
  EXPECT_FALSE(n.OwnsId(11));
  EXPECT_FALSE(n.OwnsId(0xFFFFFF00));
}

TEST(ChordNodeTest, ClosestPrecedingPicksLargestBeforeTarget) {
  ChordNode n(0, NetAddress{0, 0});
  n.mutable_fingers().set_entry(4, Info(16));
  n.mutable_fingers().set_entry(7, Info(128));
  n.mutable_fingers().set_entry(10, Info(1024));
  auto best = n.ClosestPrecedingNode(/*target=*/500, nullptr);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->id, 128u);  // 1024 overshoots, 128 is the closest below
}

TEST(ChordNodeTest, ClosestPrecedingConsidersSuccessorList) {
  ChordNode n(0, NetAddress{0, 0});
  n.mutable_successors().push_back(Info(100));
  n.mutable_successors().push_back(Info(300));
  auto best = n.ClosestPrecedingNode(350, nullptr);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->id, 300u);
}

TEST(ChordNodeTest, ClosestPrecedingRespectsUsablePredicate) {
  ChordNode n(0, NetAddress{0, 0});
  n.mutable_fingers().set_entry(7, Info(128));
  n.mutable_fingers().set_entry(4, Info(16));
  auto best = n.ClosestPrecedingNode(
      500, [](const overlay::PeerInfo& cand) { return cand.id != 128; });
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->id, 16u);
}

TEST(ChordNodeTest, ClosestPrecedingNoneWhenNothingImproves) {
  ChordNode n(100, NetAddress{0, 0});
  n.mutable_fingers().set_entry(0, Info(600));  // beyond the target
  EXPECT_FALSE(n.ClosestPrecedingNode(400, nullptr).has_value());
}

TEST(ChordNodeTest, ClosestPrecedingIgnoresSelfEntries) {
  ChordNode n(100, NetAddress{0, 0});
  n.mutable_fingers().set_entry(0, overlay::PeerInfo{100, NetAddress{0, 0}});
  EXPECT_FALSE(n.ClosestPrecedingNode(400, nullptr).has_value());
}

TEST(ChordNodeTest, ClosestPrecedingWrapsTarget) {
  // Node high on the ring routing toward a target past zero.
  ChordNode n(0xFFFFF000, NetAddress{0, 0});
  n.mutable_fingers().set_entry(10, Info(0xFFFFFF00));
  n.mutable_fingers().set_entry(20, Info(0x00000100));  // past the target
  auto best = n.ClosestPrecedingNode(/*target=*/0x80, nullptr);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->id, 0xFFFFFF00u);
}

}  // namespace
}  // namespace chord
}  // namespace p2prange
