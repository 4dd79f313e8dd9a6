// Integration tests that replay the paper's §5 evaluation protocol at
// reduced scale and assert the qualitative findings hold.
#include <gtest/gtest.h>

#include "core/system.h"
#include "rel/generator.h"
#include "stats/summary.h"
#include "workload/range_workload.h"

namespace p2prange {
namespace {

struct RunStats {
  double frac_good_match = 0;     // matched with jaccard in [0.9, 1]
  double frac_mid_match = 0;      // matched with jaccard in [0.1, 0.8)
  double frac_no_match = 0;       // no same-column candidate at all
  double frac_full_recall = 0;    // recall == 1
  double mean_recall = 0;
};

/// Replays the §5.1/§5.2 protocol: `n` uniform ranges over [0,1000],
/// cache-on-miss, first 20% treated as warmup.
RunStats RunWorkload(HashFamilyType family, MatchCriterion criterion,
                     double padding, size_t n, uint64_t seed,
                     uint64_t linear_prime = LinearHashFunction::kPrime) {
  SystemConfig cfg;
  cfg.num_peers = 64;
  cfg.lsh = LshParams::Paper(family, seed);
  cfg.lsh.linear_prime = linear_prime;
  cfg.criterion = criterion;
  cfg.padding = padding;
  cfg.seed = seed;
  auto sys = RangeCacheSystem::Make(cfg, MakeNumbersCatalog(10, 0, 1000, 1));
  CHECK(sys.ok()) << sys.status();

  UniformRangeGenerator gen(0, 1000, seed ^ 0x9e37);
  const size_t warmup = n / 5;
  RunStats stats;
  Summary recalls;
  size_t good = 0, mid = 0, none = 0, full = 0, measured = 0;
  for (size_t i = 0; i < n; ++i) {
    const Range q = gen.Next();
    auto outcome = sys->LookupRange(PartitionKey{"Numbers", "key", q});
    CHECK(outcome.ok()) << outcome.status();
    if (i < warmup) continue;
    ++measured;
    const double jaccard = outcome->match ? outcome->match->jaccard : 0.0;
    const double recall = outcome->match ? outcome->match->recall : 0.0;
    if (!outcome->match) ++none;
    if (jaccard >= 0.9) ++good;
    if (outcome->match && jaccard >= 0.1 && jaccard < 0.8) ++mid;
    if (recall >= 1.0) ++full;
    recalls.Add(recall);
  }
  stats.frac_good_match = static_cast<double>(good) / static_cast<double>(measured);
  stats.frac_mid_match = static_cast<double>(mid) / static_cast<double>(measured);
  stats.frac_no_match = static_cast<double>(none) / static_cast<double>(measured);
  stats.frac_full_recall = static_cast<double>(full) / static_cast<double>(measured);
  stats.mean_recall = recalls.Mean();
  return stats;
}

TEST(PaperWorkflowTest, MinwiseConcentratesMatchesAboveNinety) {
  // Figure 6(a): matches found by min-wise hashing are high-similarity
  // or absent — a step-like behavior.
  const RunStats s =
      RunWorkload(HashFamilyType::kMinwise, MatchCriterion::kJaccard, 0.0,
                  /*n=*/1500, /*seed=*/101);
  EXPECT_GT(s.frac_good_match, 0.10);
  EXPECT_GT(s.frac_no_match, 0.05) << "min-wise leaves low-sim queries unmatched";
}

TEST(PaperWorkflowTest, LinearWithFullPrimeIsAllOrNothing) {
  // Linear permutations over the full 32-bit prime are the sharpest
  // family: matches are near-identical or absent — mid-quality
  // matches essentially never occur.
  const RunStats s =
      RunWorkload(HashFamilyType::kLinear, MatchCriterion::kJaccard, 0.0,
                  /*n=*/1500, /*seed=*/103);
  EXPECT_LT(s.frac_mid_match, 0.02);
  EXPECT_GT(s.frac_no_match, 0.15);
}

TEST(PaperWorkflowTest, LinearWithDomainPrimeGivesPoorQualityMatches) {
  // Figure 7, paper mode: a Broder-style permutation of the attribute
  // universe collapses the XOR signature to ~10 bits, buckets collide
  // across dissimilar ranges, and the matcher frequently returns
  // low-quality candidates — the paper's "quality of matches obtained
  // by them is not good".
  const RunStats s = RunWorkload(HashFamilyType::kLinear,
                                 MatchCriterion::kJaccard, 0.0,
                                 /*n=*/1500, /*seed=*/103,
                                 NextPrimeAtLeast(1001));
  EXPECT_LT(s.frac_no_match, 0.1) << "crowded buckets always offer a candidate";
  EXPECT_GT(s.frac_mid_match, 0.05) << "low/mid-quality matches appear";
}

TEST(PaperWorkflowTest, ContainmentMatchingImprovesRecall) {
  // Figure 9: containment best-match raises recall over Jaccard
  // best-match under the same hashing.
  const RunStats jaccard =
      RunWorkload(HashFamilyType::kApproxMinwise, MatchCriterion::kJaccard, 0.0,
                  2000, 107);
  const RunStats containment =
      RunWorkload(HashFamilyType::kApproxMinwise, MatchCriterion::kContainment,
                  0.0, 2000, 107);
  EXPECT_GE(containment.frac_full_recall, jaccard.frac_full_recall);
  EXPECT_GE(containment.mean_recall, jaccard.mean_recall - 0.02);
}

TEST(PaperWorkflowTest, PaddingImprovesCompleteAnswers) {
  // Figure 10: padded queries complete more often.
  const RunStats plain =
      RunWorkload(HashFamilyType::kApproxMinwise, MatchCriterion::kContainment,
                  0.0, 2000, 109);
  const RunStats padded =
      RunWorkload(HashFamilyType::kApproxMinwise, MatchCriterion::kContainment,
                  0.2, 2000, 109);
  EXPECT_GT(padded.frac_full_recall, plain.frac_full_recall);
}

TEST(PaperWorkflowTest, LoadSpreadsAcrossPeers) {
  // Figure 11's premise: descriptors spread over many peers rather
  // than piling up at a few.
  SystemConfig cfg;
  cfg.num_peers = 100;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, 211);
  cfg.seed = 211;
  auto sys = RangeCacheSystem::Make(cfg, MakeNumbersCatalog(10, 0, 1000, 1));
  ASSERT_TRUE(sys.ok());
  UniformRangeGenerator gen(0, 1000, 212);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        sys->LookupRange(PartitionKey{"Numbers", "key", gen.Next()}).ok());
  }
  const auto counts = sys->DescriptorCountsPerPeer();
  size_t nonempty = 0;
  for (size_t c : counts) nonempty += (c > 0);
  EXPECT_GT(nonempty, 50u) << "most peers should hold some descriptors";
}

TEST(PaperWorkflowTest, LookupPathLengthIsLogarithmic) {
  // Figure 12's premise at small scale.
  SystemConfig cfg;
  cfg.num_peers = 256;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, 301);
  cfg.seed = 301;
  auto sys = RangeCacheSystem::Make(cfg, MakeNumbersCatalog(10, 0, 1000, 1));
  ASSERT_TRUE(sys.ok());
  UniformRangeGenerator gen(0, 1000, 302);
  Summary hops;
  for (int i = 0; i < 200; ++i) {
    auto outcome = sys->LookupRange(PartitionKey{"Numbers", "key", gen.Next()});
    ASSERT_TRUE(outcome.ok());
    // 5 identifiers per lookup -> per-identifier hop count.
    hops.Add(static_cast<double>(outcome->hops) / 5.0);
  }
  // 0.5*log2(256) = 4; generous band.
  EXPECT_GT(hops.Mean(), 2.0);
  EXPECT_LT(hops.Mean(), 6.5);
}

TEST(PaperWorkflowTest, ChurnDoesNotBreakTheProtocol) {
  // Nodes joining and leaving between queries; lookups keep working
  // and previously cached descriptors on surviving peers remain
  // reachable-or-replaced (the protocol re-publishes on miss).
  SystemConfig cfg;
  cfg.num_peers = 48;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, 401);
  cfg.seed = 401;
  auto sys = RangeCacheSystem::Make(cfg, MakeNumbersCatalog(10, 0, 1000, 1));
  ASSERT_TRUE(sys.ok());
  UniformRangeGenerator gen(0, 1000, 402);
  Rng churn_rng(403);
  for (int round = 0; round < 10; ++round) {
    for (int q = 0; q < 20; ++q) {
      auto outcome =
          sys->LookupRange(PartitionKey{"Numbers", "key", gen.Next()});
      ASSERT_TRUE(outcome.ok()) << outcome.status();
    }
    // Churn: one leave (graceful or abrupt) and one join per round.
    const auto nodes = sys->overlay().AlivePeersOrdered();
    const auto victim = nodes[churn_rng.NextBounded(nodes.size())].addr;
    if (victim != sys->source_address()) {
      ASSERT_TRUE(sys->RemovePeer(victim, /*graceful=*/round % 2 == 0).ok());
    }
    auto joined = sys->AddPeer();
    ASSERT_TRUE(joined.ok()) << joined.status();
    sys->overlay().Stabilize(2);
    sys->overlay().RepairRouting();
  }
  // The overlay is still fully routable after ten churn rounds.
  for (int q = 0; q < 30; ++q) {
    auto outcome = sys->LookupRange(PartitionKey{"Numbers", "key", gen.Next()});
    ASSERT_TRUE(outcome.ok()) << outcome.status();
  }
  EXPECT_GE(sys->overlay().num_alive(), 47u);
}

}  // namespace
}  // namespace p2prange
