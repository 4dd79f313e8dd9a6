// Tests for the §6 / robustness extensions: whole-query result caching
// and descriptor replication under churn.
#include <gtest/gtest.h>

#include "core/system.h"
#include "rel/generator.h"

namespace p2prange {
namespace {

SystemConfig BaseConfig(uint64_t seed) {
  SystemConfig cfg;
  cfg.num_peers = 40;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, seed);
  cfg.criterion = MatchCriterion::kContainment;
  cfg.seed = seed;
  return cfg;
}

RangeCacheSystem MakeMedicalSystem(SystemConfig cfg) {
  Catalog cat = MakeMedicalCatalog();
  MedicalDataSpec spec;
  spec.num_patients = 300;
  CHECK(PopulateMedicalData(spec, &cat).ok());
  auto sys = RangeCacheSystem::Make(cfg, std::move(cat));
  CHECK(sys.ok()) << sys.status();
  return std::move(sys).ValueUnsafe();
}

TEST(ResultCacheTest, SecondIdenticalQueryReturnsCachedResult) {
  SystemConfig cfg = BaseConfig(81);
  cfg.cache_query_results = true;
  auto sys = MakeMedicalSystem(cfg);
  const std::string sql = "SELECT * FROM Patient WHERE age > 30 AND age < 50";
  auto first = sys.ExecuteQuery(sql);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_result_cache);
  EXPECT_EQ(sys.metrics().result_cache_lookups, 1u);
  EXPECT_EQ(sys.metrics().result_cache_hits, 0u);

  auto second = sys.ExecuteQuery(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_result_cache);
  EXPECT_TRUE(second->leaves.empty());
  EXPECT_EQ(second->result.num_rows(), first->result.num_rows());
  EXPECT_EQ(sys.metrics().result_cache_hits, 1u);
}

TEST(ResultCacheTest, EquivalentSpellingsShareTheCacheEntry) {
  SystemConfig cfg = BaseConfig(83);
  cfg.cache_query_results = true;
  auto sys = MakeMedicalSystem(cfg);
  // Same plan, different literal arrangement: "30 < age" vs "age > 30"
  // and BETWEEN both normalize to the same leaf range.
  ASSERT_TRUE(
      sys.ExecuteQuery("SELECT * FROM Patient WHERE 30 <= age AND age <= 50")
          .ok());
  auto other =
      sys.ExecuteQuery("SELECT * FROM Patient WHERE age BETWEEN 30 AND 50");
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other->from_result_cache);
}

TEST(ResultCacheTest, DifferentQueriesDoNotCollide) {
  SystemConfig cfg = BaseConfig(85);
  cfg.cache_query_results = true;
  auto sys = MakeMedicalSystem(cfg);
  ASSERT_TRUE(
      sys.ExecuteQuery("SELECT * FROM Patient WHERE age > 30 AND age < 50").ok());
  auto other =
      sys.ExecuteQuery("SELECT * FROM Patient WHERE age > 30 AND age < 51");
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->from_result_cache);
}

TEST(ResultCacheTest, JoinResultsAreCachedToo) {
  SystemConfig cfg = BaseConfig(87);
  cfg.cache_query_results = true;
  auto sys = MakeMedicalSystem(cfg);
  const std::string sql =
      "SELECT Patient.name FROM Patient, Diagnosis "
      "WHERE age > 30 AND diagnosis = 'Glaucoma' "
      "AND Patient.patient_id = Diagnosis.patient_id";
  auto first = sys.ExecuteQuery(sql);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = sys.ExecuteQuery(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_result_cache);
  EXPECT_EQ(second->result.num_rows(), first->result.num_rows());
}

TEST(ResultCacheTest, DisabledByDefault) {
  auto sys = MakeMedicalSystem(BaseConfig(89));
  const std::string sql = "SELECT * FROM Patient WHERE age > 30 AND age < 50";
  ASSERT_TRUE(sys.ExecuteQuery(sql).ok());
  auto second = sys.ExecuteQuery(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->from_result_cache);
  EXPECT_EQ(sys.metrics().result_cache_lookups, 0u);
}

TEST(ByteAccountingTest, CacheHitsMoveTrafficOffTheSource) {
  auto sys = MakeMedicalSystem(BaseConfig(95));
  const std::string sql = "SELECT * FROM Patient WHERE age > 20 AND age < 70";
  ASSERT_TRUE(sys.ExecuteQuery(sql).ok());
  const uint64_t src_after_cold = sys.metrics().bytes_from_source;
  EXPECT_GT(src_after_cold, 0u);
  EXPECT_EQ(sys.metrics().bytes_from_cache, 0u);
  ASSERT_TRUE(sys.ExecuteQuery(sql).ok());
  EXPECT_EQ(sys.metrics().bytes_from_source, src_after_cold)
      << "warm query must not touch the source";
  EXPECT_GT(sys.metrics().bytes_from_cache, 0u);
  // The same partition moved both times, so the byte volumes match.
  EXPECT_EQ(sys.metrics().bytes_from_cache, src_after_cold);
}

TEST(ReplicationTest, ReplicationMultipliesStoredDescriptors) {
  SystemConfig plain = BaseConfig(91);
  SystemConfig replicated = BaseConfig(91);
  replicated.descriptor_replication = 3;
  auto sys1 = MakeMedicalSystem(plain);
  auto sys3 = MakeMedicalSystem(replicated);
  const PartitionKey key{"Patient", "age", Range(30, 50)};
  ASSERT_TRUE(sys1.LookupRange(key).ok());
  ASSERT_TRUE(sys3.LookupRange(key).ok());
  EXPECT_EQ(sys1.metrics().descriptors_stored, 5u);
  EXPECT_EQ(sys3.metrics().descriptors_stored, 15u);
}

TEST(ReplicationTest, CachedMatchesSurviveOwnerDepartureWithReplication) {
  // With replication 3, the identifier's new owner after a departure
  // (the old owner's successor) already holds a replica, so a repeat
  // query still finds the exact match. Without replication the match
  // is lost. Run over several seeds since one seed's owner sets vary.
  int survived_with = 0, survived_without = 0;
  const int kTrials = 8;
  for (int trial = 0; trial < kTrials; ++trial) {
    for (bool replicate : {false, true}) {
      SystemConfig cfg = BaseConfig(1000 + trial);
      cfg.descriptor_replication = replicate ? 3 : 1;
      auto sys = MakeMedicalSystem(cfg);
      const PartitionKey key{"Patient", "age", Range(30, 50)};
      const auto origin = sys.overlay().RandomAliveAddress();
      ASSERT_TRUE(origin.ok());
      ASSERT_TRUE(sys.LookupRangeFrom(*origin, key).ok());  // publishes

      // Fail every identifier owner (except the querying origin).
      for (uint32_t id : sys.lsh().Identifiers(key.range)) {
        auto owner = sys.overlay().OwnerOracle(id);
        ASSERT_TRUE(owner.ok());
        if (owner->addr == *origin || owner->addr == sys.source_address()) {
          continue;
        }
        // Already-removed owners (duplicate identifiers) are fine.
        sys.RemovePeer(owner->addr, /*graceful=*/false).IgnoreError();
      }
      sys.overlay().Stabilize(2);
      sys.overlay().RepairRouting();

      auto again = sys.LookupRangeFrom(*origin, key);
      ASSERT_TRUE(again.ok()) << again.status();
      const bool found_exact = again->match && again->match->exact;
      if (replicate) {
        survived_with += found_exact;
      } else {
        survived_without += found_exact;
      }
    }
  }
  EXPECT_GT(survived_with, survived_without);
  EXPECT_GE(survived_with, kTrials - 1) << "replication should almost always survive";
}

}  // namespace
}  // namespace p2prange
