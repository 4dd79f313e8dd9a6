// Edge cases and error paths of the core system.
#include <gtest/gtest.h>

#include "core/system.h"
#include "rel/generator.h"

namespace p2prange {
namespace {

SystemConfig Cfg(uint64_t seed = 1) {
  SystemConfig cfg;
  cfg.num_peers = 8;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, seed);
  cfg.seed = seed;
  return cfg;
}

RangeCacheSystem MakeSys(SystemConfig cfg) {
  auto sys = RangeCacheSystem::Make(cfg, MakeNumbersCatalog(100, 0, 1000, 1));
  CHECK(sys.ok()) << sys.status();
  return std::move(sys).ValueUnsafe();
}

TEST(SystemEdgeTest, SourcePeerCannotLeave) {
  auto sys = MakeSys(Cfg());
  EXPECT_TRUE(sys.RemovePeer(sys.source_address()).IsInvalidArgument());
}

TEST(SystemEdgeTest, RemoveUnknownPeer) {
  auto sys = MakeSys(Cfg());
  EXPECT_TRUE(sys.RemovePeer(NetAddress{99, 99}).IsNotFound());
}

TEST(SystemEdgeTest, LookupOnUnknownRelationFailsWithPadding) {
  SystemConfig cfg = Cfg();
  cfg.padding = 0.2;  // padding needs the attribute domain
  auto sys = MakeSys(cfg);
  EXPECT_FALSE(
      sys.LookupRange(PartitionKey{"Nope", "key", Range(0, 10)}).ok());
}

TEST(SystemEdgeTest, SingleElementRangeWorks) {
  auto sys = MakeSys(Cfg(3));
  const PartitionKey key{"Numbers", "key", Range(500, 500)};
  ASSERT_TRUE(sys.LookupRange(key).ok());
  auto second = sys.LookupRange(key);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->match.has_value());
  EXPECT_TRUE(second->match->exact);
}

TEST(SystemEdgeTest, FullDomainRangeWorks) {
  auto sys = MakeSys(Cfg(5));
  const PartitionKey key{"Numbers", "key", Range(0, 1000)};
  ASSERT_TRUE(sys.LookupRange(key).ok());
  auto outcome =
      sys.ExecuteQuery("SELECT * FROM Numbers WHERE key >= 0 AND key <= 1000");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.num_rows(), 100u);
}

TEST(SystemEdgeTest, PublishToUnknownHolderRejected) {
  auto sys = MakeSys(Cfg(7));
  EXPECT_TRUE(sys.PublishPartition(PartitionKey{"Numbers", "key", Range(0, 5)},
                                   NetAddress{99, 99})
                  .IsInvalidArgument());
  EXPECT_TRUE(sys.MaterializePartition(PartitionKey{"Numbers", "key", Range(0, 5)},
                                       NetAddress{99, 99})
                  .IsInvalidArgument());
}

TEST(SystemEdgeTest, MaterializeUnknownRelationIsNotFound) {
  auto sys = MakeSys(Cfg(9));
  auto holder = sys.overlay().RandomAliveAddress();
  ASSERT_TRUE(holder.ok());
  EXPECT_TRUE(
      sys.MaterializePartition(PartitionKey{"Ghost", "key", Range(0, 5)}, *holder)
          .IsNotFound());
}

TEST(SystemEdgeTest, TwoPeerSystemEndToEnd) {
  SystemConfig cfg = Cfg(11);
  cfg.num_peers = 2;
  auto sys = MakeSys(cfg);
  for (int i = 0; i < 5; ++i) {
    auto outcome =
        sys.ExecuteQuery("SELECT * FROM Numbers WHERE key >= 100 AND key <= 300");
    ASSERT_TRUE(outcome.ok()) << outcome.status();
  }
  EXPECT_GT(sys.metrics().cache_fetches, 0u);
}

TEST(SystemEdgeTest, SelectStarWithoutPredicatesFetchesBase) {
  auto sys = MakeSys(Cfg(13));
  auto outcome = sys.ExecuteQuery("SELECT * FROM Numbers");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.num_rows(), 100u);
  EXPECT_TRUE(outcome->leaves[0].from_source);
}

TEST(SystemEdgeTest, MetricsToStringMentionsEveryCounter) {
  auto sys = MakeSys(Cfg(15));
  const std::string s = sys.metrics().ToString();
  for (const char* field :
       {"range_lookups=", "exact_hits=", "approx_hits=", "misses=", "published=",
        "descriptors=", "eq_lookups=", "eq_hits=", "result_cache_lookups=",
        "lookups_skipped=", "coverage_assemblies=", "source_fetches=",
        "cache_fetches=", "bytes_from_source=", "bytes_from_cache=",
        "chord_hops="}) {
    EXPECT_NE(s.find(field), std::string::npos) << field;
  }
}

}  // namespace
}  // namespace p2prange
