#include "core/system.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "rel/generator.h"

namespace p2prange {
namespace {

SystemConfig SmallConfig(uint64_t seed = 1) {
  SystemConfig cfg;
  cfg.num_peers = 32;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, seed);
  cfg.seed = seed;
  return cfg;
}

PartitionKey NumbersKey(uint32_t lo, uint32_t hi) {
  return PartitionKey{"Numbers", "key", Range(lo, hi)};
}

class SystemTest : public ::testing::Test {
 protected:
  RangeCacheSystem MakeSystem(SystemConfig cfg) {
    auto sys = RangeCacheSystem::Make(cfg, MakeNumbersCatalog(2000, 0, 1000, 5));
    EXPECT_TRUE(sys.ok()) << sys.status();
    return std::move(sys).ValueUnsafe();
  }
};

TEST_F(SystemTest, MakeRejectsNegativePadding) {
  // Negative and non-finite fractions alike: a NaN or infinite pad
  // would reach the double -> integer cast in Range::Padded.
  for (double bad : {-0.1, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    SystemConfig cfg = SmallConfig();
    cfg.padding = bad;
    EXPECT_TRUE(RangeCacheSystem::Make(cfg, MakeNumbersCatalog(10, 0, 10, 1))
                    .status()
                    .IsInvalidArgument())
        << "padding " << bad;
    cfg = SmallConfig();
    cfg.adaptive.initial = bad;
    EXPECT_TRUE(RangeCacheSystem::Make(cfg, MakeNumbersCatalog(10, 0, 10, 1))
                    .status()
                    .IsInvalidArgument())
        << "adaptive.initial " << bad;
  }
}

TEST_F(SystemTest, FirstLookupMissesAndCaches) {
  auto sys = MakeSystem(SmallConfig());
  auto outcome = sys.LookupRange(NumbersKey(100, 200));
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->match.has_value());
  EXPECT_EQ(outcome->identifiers.size(), 5u);
  EXPECT_EQ(sys.metrics().misses, 1u);
  EXPECT_EQ(sys.metrics().partitions_published, 1u);
  EXPECT_EQ(sys.metrics().descriptors_stored, 5u);
}

TEST_F(SystemTest, SecondIdenticalLookupIsExactHit) {
  auto sys = MakeSystem(SmallConfig());
  ASSERT_TRUE(sys.LookupRange(NumbersKey(100, 200)).ok());
  auto outcome = sys.LookupRange(NumbersKey(100, 200));
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->match.has_value());
  EXPECT_TRUE(outcome->match->exact);
  EXPECT_DOUBLE_EQ(outcome->match->jaccard, 1.0);
  EXPECT_DOUBLE_EQ(outcome->match->recall, 1.0);
  EXPECT_EQ(sys.metrics().exact_hits, 1u);
  // An exact hit does not republish.
  EXPECT_EQ(sys.metrics().partitions_published, 1u);
}

TEST_F(SystemTest, VerySimilarRangeFindsApproximateMatch) {
  auto sys = MakeSystem(SmallConfig());
  ASSERT_TRUE(sys.LookupRange(NumbersKey(100, 200)).ok());
  // Jaccard([101,200],[100,200]) = 100/101 ~ 0.99. Under ideal
  // min-wise independence the hit probability would be ~0.9998; the
  // paper's one-round bit-shuffle family is weaker in practice, so we
  // assert a solid but not near-certain hit rate across seeds.
  int found = 0;
  for (uint64_t seed = 10; seed < 20; ++seed) {
    auto s = MakeSystem(SmallConfig(seed));
    ASSERT_TRUE(s.LookupRange(NumbersKey(100, 200)).ok());
    auto outcome = s.LookupRange(NumbersKey(101, 200));
    ASSERT_TRUE(outcome.ok());
    if (outcome->match && outcome->match->jaccard > 0.9) ++found;
  }
  EXPECT_GE(found, 4);
}

TEST_F(SystemTest, DissimilarRangeDoesNotMatch) {
  auto sys = MakeSystem(SmallConfig());
  ASSERT_TRUE(sys.LookupRange(NumbersKey(100, 200)).ok());
  auto outcome = sys.LookupRange(NumbersKey(600, 900));
  ASSERT_TRUE(outcome.ok());
  // Jaccard 0 -> collision essentially impossible.
  EXPECT_FALSE(outcome->match.has_value());
}

TEST_F(SystemTest, LookupFromSpecificOriginChargesHops) {
  auto sys = MakeSystem(SmallConfig());
  const auto origin = sys.overlay().RandomAliveAddress();
  ASSERT_TRUE(origin.ok());
  auto outcome = sys.LookupRangeFrom(*origin, NumbersKey(10, 50));
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome->hops, 0);
  EXPECT_GE(outcome->peers_contacted, 1);
  EXPECT_LE(outcome->peers_contacted, 5);
  EXPECT_EQ(sys.metrics().chord_hops, static_cast<uint64_t>(outcome->hops));
}

TEST_F(SystemTest, UnknownOriginRejected) {
  auto sys = MakeSystem(SmallConfig());
  EXPECT_TRUE(sys.LookupRangeFrom(NetAddress{1, 2}, NumbersKey(0, 5))
                  .status()
                  .IsInvalidArgument());
}

TEST_F(SystemTest, CacheOnMissDisabled) {
  SystemConfig cfg = SmallConfig();
  cfg.cache_on_miss = false;
  auto sys = MakeSystem(cfg);
  ASSERT_TRUE(sys.LookupRange(NumbersKey(100, 200)).ok());
  auto outcome = sys.LookupRange(NumbersKey(100, 200));
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->match.has_value()) << "nothing should have been stored";
  EXPECT_EQ(sys.metrics().descriptors_stored, 0u);
}

TEST_F(SystemTest, PaddingExpandsEffectiveQuery) {
  SystemConfig cfg = SmallConfig();
  cfg.padding = 0.2;
  auto sys = MakeSystem(cfg);
  auto outcome = sys.LookupRange(NumbersKey(100, 199));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->query, Range(100, 199));
  EXPECT_EQ(outcome->effective_query, Range(80, 219));
  // Padded partitions are what get published.
  auto second = sys.LookupRange(NumbersKey(100, 199));
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->match.has_value());
  EXPECT_EQ(second->match->matched.range, Range(80, 219));
  EXPECT_TRUE(second->match->exact) << "same padded range is an exact identifier hit";
  EXPECT_DOUBLE_EQ(second->match->recall, 1.0);
}

TEST_F(SystemTest, PaddingClampedAtDomainEdges) {
  SystemConfig cfg = SmallConfig();
  cfg.padding = 0.5;
  auto sys = MakeSystem(cfg);
  auto outcome = sys.LookupRange(NumbersKey(0, 99));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->effective_query, Range(0, 149));
  auto high = sys.LookupRange(NumbersKey(950, 1000));
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(high->effective_query, Range(925, 1000));
}

TEST_F(SystemTest, ContainmentCriterionPrefersCoveringPartition) {
  SystemConfig cfg = SmallConfig(77);
  cfg.criterion = MatchCriterion::kContainment;
  auto sys = MakeSystem(cfg);
  const auto origin = sys.overlay().RandomAliveAddress();
  ASSERT_TRUE(origin.ok());
  // Publish a broad partition, then query a strict subrange. With the
  // peer-index disabled the query still has to land in the right
  // bucket, so publish under the query's own identifiers by storing
  // the query first and the broad range under the same bucket ids via
  // direct store access.
  ASSERT_TRUE(sys.PublishPartition(NumbersKey(0, 1000), *origin).ok());
  const auto ids = sys.lsh().Identifiers(Range(100, 110));
  for (uint32_t id : ids) {
    auto owner = sys.overlay().OwnerOracle(id);
    ASSERT_TRUE(owner.ok());
    sys.peer(owner->addr)->store().Insert(
        id, PartitionDescriptor{NumbersKey(0, 1000), *origin});
  }
  auto outcome = sys.LookupRangeFrom(*origin, NumbersKey(100, 110));
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->match.has_value());
  EXPECT_EQ(outcome->match->matched.range, Range(0, 1000));
  EXPECT_DOUBLE_EQ(outcome->match->recall, 1.0);
}

TEST_F(SystemTest, PeerIndexFindsMatchesAcrossBuckets) {
  // With use_peer_index, a partition stored in *any* bucket of the
  // probed peer is considered (§5.3).
  SystemConfig cfg = SmallConfig(88);
  cfg.use_peer_index = true;
  auto sys = MakeSystem(cfg);
  const auto origin = sys.overlay().RandomAliveAddress();
  ASSERT_TRUE(origin.ok());
  // Store a broad partition into an arbitrary bucket of every peer.
  for (const auto& info : sys.overlay().AlivePeersOrdered()) {
    sys.peer(info.addr)->store().Insert(
        info.id, PartitionDescriptor{NumbersKey(0, 1000), *origin});
  }
  auto outcome = sys.LookupRangeFrom(*origin, NumbersKey(400, 500));
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->match.has_value());
  EXPECT_EQ(outcome->match->matched.range, Range(0, 1000));
}

TEST_F(SystemTest, PeerIndexLookupSkipsARepublishedKeysDeadHolder) {
  // Re-publishing a key with a new holder refreshes the owners'
  // entries in place. Once the first holder dies, the peer-wide match
  // must serve the new holder: a match naming the dead one would be
  // evicted without removing anything, and the lookup would not end.
  SystemConfig cfg = SmallConfig(5);
  cfg.num_peers = 16;
  cfg.use_peer_index = true;
  auto sys = MakeSystem(cfg);
  std::vector<NetAddress> peers;
  for (const auto& info : sys.overlay().AlivePeersOrdered()) {
    if (!(info.addr == sys.source_address())) peers.push_back(info.addr);
  }
  ASSERT_GE(peers.size(), 3u);
  const NetAddress a = peers[0];
  const NetAddress c = peers[1];
  const NetAddress origin = peers[2];
  const PartitionKey key = NumbersKey(300, 400);
  ASSERT_TRUE(sys.PublishPartition(key, a).ok());
  ASSERT_TRUE(sys.PublishPartition(key, c).ok());
  ASSERT_TRUE(sys.RemovePeer(a, /*graceful=*/false).ok());
  auto outcome = sys.LookupRangeFrom(origin, key);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->match.has_value());
  EXPECT_EQ(outcome->match->matched, key);
  EXPECT_EQ(outcome->match->holder, c);
}

TEST_F(SystemTest, PublishThenMaterializeServesData) {
  auto sys = MakeSystem(SmallConfig());
  const auto holder = sys.overlay().RandomAliveAddress();
  ASSERT_TRUE(holder.ok());
  const PartitionKey key = NumbersKey(200, 300);
  ASSERT_TRUE(sys.PublishPartition(key, *holder).ok());
  ASSERT_TRUE(sys.MaterializePartition(key, *holder).ok());
  const Relation* data = sys.peer(*holder)->GetPartitionData(key);
  ASSERT_NE(data, nullptr);
  for (const Row& row : data->rows()) {
    EXPECT_GE(row[0].AsInt(), 200);
    EXPECT_LE(row[0].AsInt(), 300);
  }
  EXPECT_EQ(sys.metrics().source_fetches, 1u);
}

TEST_F(SystemTest, DescriptorCountsSumToStored) {
  auto sys = MakeSystem(SmallConfig());
  for (uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(sys.LookupRange(NumbersKey(i * 10, i * 10 + 100)).ok());
  }
  const auto counts = sys.DescriptorCountsPerPeer();
  EXPECT_EQ(counts.size(), 32u);
  size_t total = 0;
  for (size_t c : counts) total += c;
  EXPECT_EQ(total, sys.metrics().descriptors_stored);
}

TEST_F(SystemTest, MetricsResetClearsCounters) {
  auto sys = MakeSystem(SmallConfig());
  ASSERT_TRUE(sys.LookupRange(NumbersKey(1, 5)).ok());
  EXPECT_GT(sys.metrics().range_lookups, 0u);
  sys.ResetMetrics();
  EXPECT_EQ(sys.metrics().range_lookups, 0u);
  EXPECT_EQ(sys.metrics().ToString().find("range_lookups=0"), 0u);
}

TEST_F(SystemTest, StoreCapacityBoundsPerPeerState) {
  SystemConfig cfg = SmallConfig();
  cfg.store_capacity = 3;
  auto sys = MakeSystem(cfg);
  for (uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(sys.LookupRange(NumbersKey(i, i + 50)).ok());
  }
  for (size_t c : sys.DescriptorCountsPerPeer()) {
    EXPECT_LE(c, 3u);
  }
}

}  // namespace
}  // namespace p2prange
