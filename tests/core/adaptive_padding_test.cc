#include "core/adaptive_padding.h"

#include <gtest/gtest.h>

#include "core/system.h"
#include "rel/generator.h"
#include "workload/range_workload.h"

namespace p2prange {
namespace {

TEST(AdaptivePaddingControllerTest, StartsAtInitial) {
  AdaptivePaddingController c;
  EXPECT_DOUBLE_EQ(c.Get("T.a"), c.config().initial);
}

TEST(AdaptivePaddingControllerTest, IncreasesOnIncompleteAnswers) {
  AdaptivePaddingController c;
  const double before = c.Get("T.a");
  c.Observe("T.a", 0.5);
  EXPECT_GT(c.Get("T.a"), before);
}

TEST(AdaptivePaddingControllerTest, DecaysOnCompleteAnswers) {
  AdaptivePaddingController c;
  c.Observe("T.a", 0.0);
  c.Observe("T.a", 0.0);
  const double high = c.Get("T.a");
  c.Observe("T.a", 1.0);
  EXPECT_LT(c.Get("T.a"), high);
}

TEST(AdaptivePaddingControllerTest, ClampsToBounds) {
  AdaptivePaddingController c;
  for (int i = 0; i < 50; ++i) c.Observe("T.a", 0.0);
  EXPECT_DOUBLE_EQ(c.Get("T.a"), AdaptivePaddingController::kMax);
  for (int i = 0; i < 500; ++i) c.Observe("T.a", 1.0);
  EXPECT_GE(c.Get("T.a"), 0.0);
  EXPECT_LT(c.Get("T.a"), 0.01);
}

TEST(AdaptivePaddingControllerTest, IncreaseFromZeroUsesStepFloor) {
  AdaptivePaddingConfig cfg;
  cfg.initial = 0.0;
  AdaptivePaddingController c(cfg);
  c.Observe("T.a", 0.2);
  EXPECT_DOUBLE_EQ(c.Get("T.a"), AdaptivePaddingController::kStepFloor);
}

TEST(AdaptivePaddingControllerTest, ColumnsAreIndependent) {
  AdaptivePaddingController c;
  c.Observe("T.a", 0.0);
  c.Observe("T.a", 0.0);
  EXPECT_GT(c.Get("T.a"), c.Get("T.b"));
}

TEST(AdaptivePaddingSystemTest, PaddingRespondsToWorkload) {
  SystemConfig cfg;
  cfg.num_peers = 64;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, 19);
  cfg.criterion = MatchCriterion::kContainment;
  cfg.adaptive_padding = true;
  cfg.seed = 19;
  auto sys = RangeCacheSystem::Make(cfg, MakeNumbersCatalog(10, 0, 1000, 1));
  ASSERT_TRUE(sys.ok());
  // A fresh system misses constantly: padding must climb.
  UniformRangeGenerator gen(0, 1000, 20);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        sys->LookupRange(PartitionKey{"Numbers", "key", gen.Next()}).ok());
  }
  const double after_misses = sys->padding_controller().Get("Numbers.key");
  EXPECT_GT(after_misses, cfg.adaptive.initial);
  // A long run of exact repeats: padding must decay again.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        sys->LookupRange(PartitionKey{"Numbers", "key", Range(100, 200)}).ok());
  }
  EXPECT_LT(sys->padding_controller().Get("Numbers.key"), after_misses);
}

TEST(AdaptivePaddingSystemTest, AdaptiveBeatsNoPaddingOnCompletion) {
  auto run = [](bool adaptive) {
    SystemConfig cfg;
    cfg.num_peers = 64;
    cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, 23);
    cfg.criterion = MatchCriterion::kContainment;
    cfg.adaptive_padding = adaptive;
    if (adaptive) cfg.adaptive.initial = 0.0;  // must earn its padding
    cfg.seed = 23;
    auto sys = RangeCacheSystem::Make(cfg, MakeNumbersCatalog(10, 0, 1000, 1));
    CHECK(sys.ok());
    UniformRangeGenerator gen(0, 1000, 24);
    size_t complete = 0, measured = 0;
    for (int i = 0; i < 2000; ++i) {
      auto outcome = sys->LookupRange(PartitionKey{"Numbers", "key", gen.Next()});
      CHECK(outcome.ok());
      if (i < 400) continue;
      ++measured;
      if (outcome->match && outcome->match->recall >= 1.0) ++complete;
    }
    return static_cast<double>(complete) / static_cast<double>(measured);
  };
  const double fixed_zero = run(false);
  const double adaptive = run(true);
  EXPECT_GT(adaptive, fixed_zero);
}

}  // namespace
}  // namespace p2prange
