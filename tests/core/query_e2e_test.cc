// End-to-end SQL over the P2P system: every leaf resolved through the
// overlay (caches or source), joins executed at the querying peer.
#include <gtest/gtest.h>

#include "core/system.h"
#include "query/executor.h"
#include "query/parser.h"
#include "rel/generator.h"

namespace p2prange {
namespace {

Catalog MedicalData(uint64_t seed = 3) {
  Catalog cat = MakeMedicalCatalog();
  MedicalDataSpec spec;
  spec.num_patients = 300;
  spec.num_physicians = 20;
  spec.num_prescriptions = 400;
  spec.num_diagnoses = 500;
  spec.seed = seed;
  CHECK(PopulateMedicalData(spec, &cat).ok());
  return cat;
}

SystemConfig MedConfig(uint64_t seed = 21) {
  SystemConfig cfg;
  cfg.num_peers = 24;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, seed);
  cfg.seed = seed;
  return cfg;
}

/// Ground truth: run the same SQL directly over the base relations.
Relation Reference(const Catalog& cat, const std::string& sql) {
  auto stmt = ParseSelect(sql);
  CHECK(stmt.ok()) << stmt.status();
  auto plan = BuildPlan(*stmt, cat);
  CHECK(plan.ok()) << plan.status();
  std::map<std::string, Relation> inputs;
  for (const TableSelection& leaf : plan->leaves) {
    inputs.emplace(leaf.table, **cat.GetBaseData(leaf.table));
  }
  auto result = ExecutePlan(*plan, inputs);
  CHECK(result.ok()) << result.status();
  return *result;
}

class QueryE2eTest : public ::testing::Test {
 protected:
  QueryE2eTest() : catalog_(MedicalData()) {}

  RangeCacheSystem MakeSystem(SystemConfig cfg) {
    auto sys = RangeCacheSystem::Make(cfg, catalog_);
    CHECK(sys.ok()) << sys.status();
    return std::move(sys).ValueUnsafe();
  }

  Catalog catalog_;
};

TEST_F(QueryE2eTest, ColdSingleTableQueryMatchesReference) {
  auto sys = MakeSystem(MedConfig());
  const std::string sql = "SELECT * FROM Patient WHERE age > 30 AND age < 50";
  auto outcome = sys.ExecuteQuery(sql);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  const Relation ref = Reference(catalog_, sql);
  EXPECT_EQ(outcome->result.num_rows(), ref.num_rows());
  EXPECT_FALSE(outcome->approximate);
  ASSERT_EQ(outcome->leaves.size(), 1u);
  EXPECT_TRUE(outcome->leaves[0].from_source) << "cold cache must hit the source";
  EXPECT_EQ(sys.metrics().source_fetches, 1u);
}

TEST_F(QueryE2eTest, RepeatedQueryServedFromCache) {
  auto sys = MakeSystem(MedConfig());
  const std::string sql = "SELECT * FROM Patient WHERE age > 30 AND age < 50";
  ASSERT_TRUE(sys.ExecuteQuery(sql).ok());
  const uint64_t source_before = sys.metrics().source_fetches;
  auto outcome = sys.ExecuteQuery(sql);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(sys.metrics().source_fetches, source_before)
      << "second run must not touch the source";
  EXPECT_TRUE(outcome->leaves[0].used_cache);
  EXPECT_EQ(outcome->result.num_rows(),
            Reference(catalog_, sql).num_rows());
  EXPECT_GT(sys.metrics().cache_fetches, 0u);
}

TEST_F(QueryE2eTest, PaperJoinQueryMatchesReferenceColdAndWarm) {
  auto sys = MakeSystem(MedConfig());
  const std::string sql =
      "Select Prescription.prescription "
      "from Patient, Diagnosis, Prescription "
      "where 30 < age and age < 50 "
      "and diagnosis = 'Glaucoma' "
      "and Patient.patient_id = Diagnosis.patient_id "
      "and '1995-01-01' < date and date < '2005-12-31' "
      "and Diagnosis.prescription_id = Prescription.prescription_id";
  const Relation ref = Reference(catalog_, sql);
  ASSERT_GT(ref.num_rows(), 0u) << "test data must produce a non-empty answer";

  auto cold = sys.ExecuteQuery(sql);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->result.num_rows(), ref.num_rows());
  EXPECT_FALSE(cold->approximate);

  auto warm = sys.ExecuteQuery(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->result.num_rows(), ref.num_rows());
  // All three leaves cached now (two range leaves + one eq leaf).
  for (const LeafOutcome& leaf : warm->leaves) {
    EXPECT_TRUE(leaf.used_cache) << leaf.table;
  }
}

TEST_F(QueryE2eTest, EqualityLeafUsesExactMatchPath) {
  auto sys = MakeSystem(MedConfig());
  const std::string sql = "SELECT * FROM Diagnosis WHERE diagnosis = 'Asthma'";
  ASSERT_TRUE(sys.ExecuteQuery(sql).ok());
  EXPECT_EQ(sys.metrics().eq_lookups, 1u);
  EXPECT_EQ(sys.metrics().eq_hits, 0u);
  auto warm = sys.ExecuteQuery(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(sys.metrics().eq_lookups, 2u);
  EXPECT_EQ(sys.metrics().eq_hits, 1u);
  EXPECT_EQ(warm->result.num_rows(), Reference(catalog_, sql).num_rows());
}

TEST_F(QueryE2eTest, SimilarQueryAnsweredApproximatelyWhenAccepted) {
  SystemConfig cfg = MedConfig(33);
  cfg.accept_partial_answers = true;
  auto sys = MakeSystem(cfg);
  ASSERT_TRUE(
      sys.ExecuteQuery("SELECT * FROM Patient WHERE age >= 30 AND age <= 50").ok());
  // A slightly different range: the cached [30,50] partition has
  // recall 20/21 for [31,51]... whether the LSH finds it is
  // probabilistic; if found, the answer is the correct subset.
  auto outcome =
      sys.ExecuteQuery("SELECT * FROM Patient WHERE age >= 31 AND age <= 51");
  ASSERT_TRUE(outcome.ok());
  const Relation ref = Reference(
      catalog_, "SELECT * FROM Patient WHERE age >= 31 AND age <= 51");
  if (outcome->approximate) {
    EXPECT_LE(outcome->result.num_rows(), ref.num_rows());
    // No false positives: every returned row satisfies the predicate.
    auto idx = outcome->result.schema().FieldIndex("Patient.age");
    ASSERT_TRUE(idx.ok());
    for (const Row& row : outcome->result.rows()) {
      EXPECT_GE(row[*idx].AsInt(), 31);
      EXPECT_LE(row[*idx].AsInt(), 51);
    }
  } else {
    EXPECT_EQ(outcome->result.num_rows(), ref.num_rows());
  }
}

TEST_F(QueryE2eTest, WithoutPartialAcceptanceAnswersAreAlwaysComplete) {
  auto sys = MakeSystem(MedConfig(44));
  const char* queries[] = {
      "SELECT * FROM Patient WHERE age >= 30 AND age <= 50",
      "SELECT * FROM Patient WHERE age >= 31 AND age <= 51",
      "SELECT * FROM Patient WHERE age >= 29 AND age <= 49",
      "SELECT * FROM Patient WHERE age >= 30 AND age <= 49",
  };
  for (const char* sql : queries) {
    auto outcome = sys.ExecuteQuery(sql);
    ASSERT_TRUE(outcome.ok()) << sql;
    EXPECT_FALSE(outcome->approximate);
    EXPECT_EQ(outcome->result.num_rows(), Reference(catalog_, sql).num_rows())
        << sql;
  }
}

TEST_F(QueryE2eTest, PaddedSystemStillReturnsCorrectRows) {
  SystemConfig cfg = MedConfig(55);
  cfg.padding = 0.2;
  auto sys = MakeSystem(cfg);
  const std::string sql = "SELECT * FROM Patient WHERE age >= 40 AND age <= 60";
  auto cold = sys.ExecuteQuery(sql);
  ASSERT_TRUE(cold.ok());
  // The executor refilters padded partitions back down to the query.
  EXPECT_EQ(cold->result.num_rows(), Reference(catalog_, sql).num_rows());
  auto warm = sys.ExecuteQuery(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->result.num_rows(), Reference(catalog_, sql).num_rows());
}

TEST_F(QueryE2eTest, InvalidSqlSurfacesParseError) {
  auto sys = MakeSystem(MedConfig());
  EXPECT_FALSE(sys.ExecuteQuery("SELEKT oops").ok());
  EXPECT_FALSE(sys.ExecuteQuery("SELECT * FROM NoSuchTable").ok());
}

TEST_F(QueryE2eTest, QueryFromSpecificClientMaterializesThere) {
  auto sys = MakeSystem(MedConfig());
  const auto client = sys.overlay().RandomAliveAddress();
  ASSERT_TRUE(client.ok());
  const std::string sql = "SELECT * FROM Patient WHERE age >= 20 AND age <= 40";
  ASSERT_TRUE(sys.ExecuteQueryFrom(*client, sql).ok());
  EXPECT_GT(sys.peer(*client)->num_materialized(), 0u)
      << "the querying peer becomes the holder of the fetched partition";
}

}  // namespace
}  // namespace p2prange
