#include "core/peer.h"

#include <gtest/gtest.h>

#include "rel/generator.h"

namespace p2prange {
namespace {

Peer MakePeer(uint16_t port = 7, size_t capacity = 0) {
  return Peer(overlay::PeerInfo{123, NetAddress{1, port}}, capacity);
}

Relation SomeRows(int n) {
  Catalog cat = MakeNumbersCatalog(n, 0, 100, 3);
  return **cat.GetBaseData("Numbers");
}

TEST(PeerTest, IdentityAccessors) {
  Peer p = MakePeer(9);
  EXPECT_EQ(p.info().id, 123u);
  EXPECT_EQ(p.addr().port, 9u);
}

TEST(PeerTest, PartitionDataRoundTrip) {
  Peer p = MakePeer();
  const PartitionKey key{"Numbers", "key", Range(10, 20)};
  EXPECT_EQ(p.GetPartitionData(key), nullptr);
  p.StorePartitionData(key, SomeRows(5));
  const Relation* data = p.GetPartitionData(key);
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->num_rows(), 5u);
  EXPECT_EQ(p.num_materialized(), 1u);
  // Overwrite replaces.
  p.StorePartitionData(key, SomeRows(8));
  EXPECT_EQ(p.GetPartitionData(key)->num_rows(), 8u);
  EXPECT_EQ(p.num_materialized(), 1u);
  // Distinct keys are independent.
  EXPECT_EQ(p.GetPartitionData(PartitionKey{"Numbers", "key", Range(10, 21)}),
            nullptr);
}

TEST(PeerTest, EqDescriptorInsertFindRefresh) {
  Peer p = MakePeer();
  EXPECT_FALSE(p.FindEqDescriptor(42, "k").has_value());
  p.StoreEqDescriptor(42, EqDescriptor{"k", NetAddress{5, 5}});
  p.StoreEqDescriptor(42, EqDescriptor{"other", NetAddress{6, 6}});
  auto found = p.FindEqDescriptor(42, "k");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->holder.host, 5u);
  // Same key refreshes the holder instead of duplicating.
  p.StoreEqDescriptor(42, EqDescriptor{"k", NetAddress{9, 9}});
  found = p.FindEqDescriptor(42, "k");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->holder.host, 9u);
  // Different bucket id is a different namespace.
  EXPECT_FALSE(p.FindEqDescriptor(43, "k").has_value());
}

TEST(PeerTest, EqDataRoundTrip) {
  Peer p = MakePeer();
  EXPECT_EQ(p.GetEqData("q1"), nullptr);
  p.StoreEqData("q1", SomeRows(3));
  ASSERT_NE(p.GetEqData("q1"), nullptr);
  EXPECT_EQ(p.GetEqData("q1")->num_rows(), 3u);
}

TEST(PeerTest, StoreCapacityIsWiredThrough) {
  Peer p = MakePeer(7, /*capacity=*/2);
  for (uint32_t i = 0; i < 5; ++i) {
    p.store().Insert(i, PartitionDescriptor{
                            PartitionKey{"N", "k", Range(i, i + 1)},
                            NetAddress{1, 1}});
  }
  EXPECT_EQ(p.store().num_descriptors(), 2u);
  EXPECT_EQ(p.store().evictions(), 3u);
}

}  // namespace
}  // namespace p2prange
