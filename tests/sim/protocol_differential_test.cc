// Differential test of the §4 protocol: the object-graph simulator
// (RangeCacheSystem) and the compact engine (ScenarioEngine) run the
// same seeded query stream and must agree on every outcome count.
//
// Held fixed: containment ranking (the engine's criterion), the paper
// LSH parameters and seed, no padding, no churn, unbounded stores.
// Without churn an identifier's owner never changes, so the copies a
// probe sees are exactly the ranges published under that identifier:
// what a query finds depends on the stream and the LSH scheme, not on
// the substrate or the replica placement. Hits, misses, recall and
// publishes must therefore match exactly; only routing cost differs.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "core/system.h"
#include "rel/generator.h"
#include "sim/engine/scenario_engine.h"

namespace p2prange {
namespace sim {
namespace {

constexpr size_t kPeers = 400;
constexpr size_t kQueries = 3000;
constexpr uint32_t kDomain = 1000;

/// (substrate, descriptor replication, seed)
using Param = std::tuple<overlay::Kind, int, uint64_t>;

class ProtocolDifferentialTest : public ::testing::TestWithParam<Param> {};

TEST_P(ProtocolDifferentialTest, SimulatorAndEngineAgree) {
  const auto [kind, replication, seed] = GetParam();

  ScenarioConfig scenario;
  scenario.kind = kind;
  scenario.shape = WorkloadShape::kUniform;
  scenario.churn = ChurnMode::kNone;
  scenario.num_peers = kPeers;
  scenario.num_queries = kQueries;
  scenario.domain = kDomain;
  scenario.replication = replication;
  scenario.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise);
  scenario.seed = seed;
  auto engine = ScenarioEngine::Make(scenario);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto report = engine->Run();
  ASSERT_TRUE(report.ok()) << report.status();

  SystemConfig config;
  config.overlay.kind = kind;
  config.num_peers = kPeers;
  config.lsh = scenario.lsh;
  config.seed = seed;
  config.criterion = MatchCriterion::kContainment;
  config.padding = 0.0;
  config.descriptor_replication = replication;
  auto sys =
      RangeCacheSystem::Make(config, MakeNumbersCatalog(10, 0, kDomain, seed));
  ASSERT_TRUE(sys.ok()) << sys.status();

  // The simulator's outcomes, classified the way the engine counts them.
  ScenarioReport core;
  std::set<std::pair<uint32_t, uint32_t>> asked;
  uint64_t repeats = 0;
  auto next_query = MakeQueryStream(scenario);
  for (size_t i = 0; i < kQueries; ++i) {
    const Range q = next_query();
    if (!asked.emplace(q.lo(), q.hi()).second) ++repeats;
    auto outcome = sys->LookupRange(PartitionKey{"Numbers", "key", q});
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    // The simulator reports a zero-overlap top candidate as a match;
    // the engine counts it as a miss.
    const double recall = outcome->match ? outcome->match->recall : 0.0;
    if (outcome->match && outcome->match->exact) {
      ++core.exact_hits;
    } else if (recall > 0.0) {
      ++core.approx_hits;
    } else {
      ++core.misses;
    }
    core.recall_sum += recall;
  }
  core.publishes = sys->metrics().partitions_published;

  EXPECT_EQ(core.exact_hits, report->exact_hits);
  EXPECT_EQ(core.approx_hits, report->approx_hits);
  EXPECT_EQ(core.misses, report->misses);
  EXPECT_EQ(core.publishes, report->publishes);
  EXPECT_EQ(core.recall_sum, report->recall_sum);  // bit-for-bit
  // Both executors call the same rule, so a wrong rule could make them
  // agree on a wrong answer. Pin exactness to the stream: every
  // non-exact answer publishes its range under the range's own l
  // identifiers, so a range is found exactly iff it was asked before.
  EXPECT_EQ(report->exact_hits, repeats);
  EXPECT_GT(repeats, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSubstrates, ProtocolDifferentialTest,
    ::testing::Combine(::testing::Values(overlay::Kind::kChord,
                                         overlay::Kind::kCan,
                                         overlay::Kind::kTapestry),
                       ::testing::Values(1, 3),
                       ::testing::Values(uint64_t{5}, uint64_t{11})),
    [](const ::testing::TestParamInfo<Param>& i) {
      return std::string(overlay::KindName(std::get<0>(i.param))) + "_r" +
             std::to_string(std::get<1>(i.param)) + "_seed" +
             std::to_string(std::get<2>(i.param));
    });

}  // namespace
}  // namespace sim
}  // namespace p2prange
