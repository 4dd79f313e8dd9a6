#include "store/bucket_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/random.h"

namespace p2prange {
namespace {

PartitionKey Key(uint32_t lo, uint32_t hi, const std::string& rel = "Numbers",
                 const std::string& attr = "key") {
  return PartitionKey{rel, attr, Range(lo, hi)};
}

PartitionDescriptor Desc(uint32_t lo, uint32_t hi, uint16_t holder_port = 1) {
  return PartitionDescriptor{Key(lo, hi), NetAddress{1, holder_port}};
}

TEST(PartitionKeyTest, EqualityAndColumnIdentity) {
  EXPECT_EQ(Key(1, 5), Key(1, 5));
  EXPECT_NE(Key(1, 5), Key(1, 6));
  EXPECT_TRUE(Key(1, 5).SameColumn(Key(9, 20)));
  EXPECT_FALSE(Key(1, 5).SameColumn(Key(1, 5, "Other")));
  EXPECT_FALSE(Key(1, 5).SameColumn(Key(1, 5, "Numbers", "payload")));
}

TEST(PartitionKeyTest, ToStringFormat) {
  EXPECT_EQ(Key(3, 9).ToString(), "Numbers.key[3, 9]");
}

TEST(PartitionKeyTest, HashDiffersAcrossRanges) {
  PartitionKeyHash h;
  EXPECT_NE(h(Key(1, 5)), h(Key(1, 6)));
  EXPECT_NE(h(Key(1, 5)), h(Key(2, 5)));
}

TEST(BucketStoreTest, EmptyBucketGivesNoMatch) {
  BucketStore store;
  EXPECT_FALSE(store.BestMatch(42, Key(0, 10), MatchCriterion::kJaccard));
  EXPECT_FALSE(store.BestMatchAnywhere(Key(0, 10), MatchCriterion::kJaccard));
}

TEST(BucketStoreTest, InsertAndExactMatch) {
  BucketStore store;
  store.Insert(42, Desc(30, 50));
  EXPECT_TRUE(store.ContainsExact(42, Key(30, 50)));
  EXPECT_FALSE(store.ContainsExact(42, Key(30, 49)));
  EXPECT_FALSE(store.ContainsExact(43, Key(30, 50)));
  auto m = store.BestMatch(42, Key(30, 50), MatchCriterion::kJaccard);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(m->exact);
  EXPECT_DOUBLE_EQ(m->similarity, 1.0);
}

TEST(BucketStoreTest, BestMatchPicksHighestJaccard) {
  BucketStore store;
  store.Insert(7, Desc(0, 99));     // vs [40,60]: jaccard 21/100
  store.Insert(7, Desc(30, 70));    // vs [40,60]: jaccard 21/41
  store.Insert(7, Desc(500, 600));  // vs [40,60]: 0
  auto m = store.BestMatch(7, Key(40, 60), MatchCriterion::kJaccard);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->descriptor.key.range, Range(30, 70));
  EXPECT_FALSE(m->exact);
  EXPECT_DOUBLE_EQ(m->similarity, 21.0 / 41.0);
}

TEST(BucketStoreTest, CriterionChangesTheWinner) {
  BucketStore store;
  // Query [40,60]. Candidate A = [42,58]: close but does not contain.
  // Candidate B = [0,200]: contains fully but low Jaccard.
  store.Insert(7, Desc(42, 58));
  store.Insert(7, Desc(0, 200));
  auto jaccard = store.BestMatch(7, Key(40, 60), MatchCriterion::kJaccard);
  ASSERT_TRUE(jaccard.has_value());
  EXPECT_EQ(jaccard->descriptor.key.range, Range(42, 58));
  auto containment = store.BestMatch(7, Key(40, 60), MatchCriterion::kContainment);
  ASSERT_TRUE(containment.has_value());
  EXPECT_EQ(containment->descriptor.key.range, Range(0, 200));
  EXPECT_DOUBLE_EQ(containment->similarity, 1.0);
  EXPECT_FALSE(containment->exact);
}

TEST(BucketStoreTest, ExactCopyWinsContainmentTieWithSuperset) {
  // Under containment a superset of the query scores 1 as well; the
  // exact copy must still win even though the superset came first.
  BucketStore store;
  store.Insert(7, Desc(0, 100));
  store.Insert(7, Desc(40, 60));
  const auto in_bucket =
      store.BestMatch(7, Key(40, 60), MatchCriterion::kContainment);
  const auto anywhere =
      store.BestMatchAnywhere(Key(40, 60), MatchCriterion::kContainment);
  for (const auto& m : {in_bucket, anywhere}) {
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->descriptor.key.range, Range(40, 60));
    EXPECT_TRUE(m->exact);
    EXPECT_DOUBLE_EQ(m->similarity, 1.0);
  }
}

TEST(BucketStoreTest, MatchIgnoresOtherColumns) {
  BucketStore store;
  store.Insert(7, PartitionDescriptor{Key(40, 60, "Other"), NetAddress{1, 1}});
  store.Insert(7, PartitionDescriptor{Key(40, 60, "Numbers", "payload"),
                                      NetAddress{1, 1}});
  EXPECT_FALSE(store.BestMatch(7, Key(40, 60), MatchCriterion::kJaccard));
}

TEST(BucketStoreTest, BucketsAreIndependent) {
  BucketStore store;
  store.Insert(1, Desc(0, 10));
  store.Insert(2, Desc(100, 110));
  auto m = store.BestMatch(1, Key(100, 110), MatchCriterion::kJaccard);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(m->similarity, 0.0);  // only [0,10] lives in bucket 1
}

TEST(BucketStoreTest, BestMatchAnywhereSearchesAllBuckets) {
  BucketStore store;
  store.Insert(1, Desc(0, 10));
  store.Insert(2, Desc(100, 110));
  store.Insert(3, Desc(40, 60));
  auto m = store.BestMatchAnywhere(Key(41, 61), MatchCriterion::kJaccard);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->descriptor.key.range, Range(40, 60));
}

TEST(BucketStoreTest, DuplicateInsertRefreshesInsteadOfGrowing) {
  BucketStore store;
  store.Insert(5, Desc(0, 10, /*holder_port=*/1));
  store.Insert(5, Desc(0, 10, /*holder_port=*/2));
  EXPECT_EQ(store.num_descriptors(), 1u);
  auto contents = store.BucketContents(5);
  ASSERT_EQ(contents.size(), 1u);
  EXPECT_EQ(contents[0].holder.port, 2u) << "holder must be updated";
}

TEST(BucketStoreTest, SameKeyInDifferentBucketsCountsTwice) {
  BucketStore store;
  store.Insert(5, Desc(0, 10));
  store.Insert(6, Desc(0, 10));
  EXPECT_EQ(store.num_descriptors(), 2u);
  EXPECT_EQ(store.num_buckets(), 2u);
}

TEST(BucketStoreTest, LruEvictionDropsOldest) {
  BucketStore store(/*max_descriptors=*/3);
  store.Insert(1, Desc(0, 10));
  store.Insert(2, Desc(20, 30));
  store.Insert(3, Desc(40, 50));
  store.Insert(4, Desc(60, 70));  // evicts (1, [0,10])
  EXPECT_EQ(store.num_descriptors(), 3u);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_FALSE(store.ContainsExact(1, Key(0, 10)));
  EXPECT_TRUE(store.ContainsExact(4, Key(60, 70)));
}

TEST(BucketStoreTest, RefreshProtectsFromEviction) {
  BucketStore store(/*max_descriptors=*/3);
  store.Insert(1, Desc(0, 10));
  store.Insert(2, Desc(20, 30));
  store.Insert(3, Desc(40, 50));
  store.Insert(1, Desc(0, 10));   // refresh -> most recent
  store.Insert(4, Desc(60, 70));  // evicts (2, [20,30]) instead
  EXPECT_TRUE(store.ContainsExact(1, Key(0, 10)));
  EXPECT_FALSE(store.ContainsExact(2, Key(20, 30)));
}

TEST(BucketStoreTest, EvictionRemovesEmptyBuckets) {
  BucketStore store(/*max_descriptors=*/1);
  store.Insert(1, Desc(0, 10));
  store.Insert(2, Desc(20, 30));
  EXPECT_EQ(store.num_buckets(), 1u);
  EXPECT_EQ(store.BucketContents(1).size(), 0u);
}

TEST(BucketStoreTest, UnboundedStoreNeverEvicts) {
  BucketStore store;
  for (uint32_t i = 0; i < 500; ++i) {
    store.Insert(i % 10, Desc(i * 10, i * 10 + 5));
  }
  EXPECT_EQ(store.num_descriptors(), 500u);
  EXPECT_EQ(store.evictions(), 0u);
}

TEST(BucketStoreTest, PeerWideMatchReportsTheRefreshedHolder) {
  // A refresh adopts the new holder. The peer-wide match must report
  // it as the bucket match does, and erasing that (key, holder) must
  // leave nothing for a stale-eviction loop to find again.
  BucketStore store;
  store.Insert(7, Desc(0, 10, /*holder_port=*/1));
  store.Insert(7, Desc(0, 10, /*holder_port=*/2));
  const auto anywhere = store.BestMatchAnywhere(Key(0, 10), MatchCriterion::kJaccard);
  const auto in_bucket = store.BestMatch(7, Key(0, 10), MatchCriterion::kJaccard);
  ASSERT_TRUE(anywhere.has_value());
  ASSERT_TRUE(in_bucket.has_value());
  EXPECT_EQ(anywhere->descriptor.holder.port, 2u);
  EXPECT_EQ(in_bucket->descriptor.holder.port, 2u);
  EXPECT_EQ(store.EraseStale(Key(0, 10), NetAddress{1, 2}), 1u);
  EXPECT_FALSE(store.BestMatchAnywhere(Key(0, 10), MatchCriterion::kJaccard));
}

TEST(BucketStoreTest, PeerWideMatchTieBreaks) {
  BucketStore store;
  // [50,70] and [30,50] both score 11/31 against [40,60]: the larger
  // (lo, hi) wins although [30,50] is the more recent entry.
  store.Insert(1, Desc(50, 70));
  store.Insert(2, Desc(30, 50));
  auto tie = store.BestMatchAnywhere(Key(40, 60), MatchCriterion::kJaccard);
  ASSERT_TRUE(tie.has_value());
  EXPECT_EQ(tie->descriptor.key.range, Range(50, 70));
  EXPECT_DOUBLE_EQ(tie->similarity, 11.0 / 31.0);
  // Nothing overlaps [500,600]: the smallest (lo, hi) at score 0.
  auto none = store.BestMatchAnywhere(Key(500, 600), MatchCriterion::kJaccard);
  ASSERT_TRUE(none.has_value());
  EXPECT_EQ(none->descriptor.key.range, Range(30, 50));
  EXPECT_DOUBLE_EQ(none->similarity, 0.0);
  EXPECT_FALSE(none->exact);
  // One key in two buckets: the most recently inserted or refreshed
  // entry's holder.
  store.Insert(3, Desc(0, 100, /*holder_port=*/3));
  store.Insert(4, Desc(0, 100, /*holder_port=*/4));
  auto held = store.BestMatchAnywhere(Key(0, 100), MatchCriterion::kJaccard);
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(held->descriptor.holder.port, 4u);
  store.Insert(3, Desc(0, 100, /*holder_port=*/3));
  held = store.BestMatchAnywhere(Key(0, 100), MatchCriterion::kJaccard);
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(held->descriptor.holder.port, 3u);
}

TEST(BucketStoreIndexTest, BestMatchAnywhereAgreesWithLinearScan) {
  Rng rng(99);
  BucketStore store;
  std::vector<std::pair<chord::ChordId, PartitionDescriptor>> shadow;
  for (int i = 0; i < 500; ++i) {
    const uint32_t lo = static_cast<uint32_t>(rng.NextBounded(1000));
    const uint32_t hi = lo + static_cast<uint32_t>(rng.NextBounded(150));
    const chord::ChordId bucket = static_cast<chord::ChordId>(rng.NextBounded(40));
    const PartitionDescriptor d = Desc(lo, hi);
    store.Insert(bucket, d);
    shadow.emplace_back(bucket, d);
  }
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t lo = static_cast<uint32_t>(rng.NextBounded(1000));
    const PartitionKey q = Key(lo, lo + static_cast<uint32_t>(rng.NextBounded(200)));
    for (MatchCriterion criterion :
         {MatchCriterion::kJaccard, MatchCriterion::kContainment}) {
      // Reference: linear scan over every stored descriptor.
      double best_score = -1.0;
      for (const auto& [bucket, d] : shadow) {
        if (!d.key.SameColumn(q)) continue;
        const double score = criterion == MatchCriterion::kJaccard
                                 ? q.range.Jaccard(d.key.range)
                                 : q.range.ContainmentIn(d.key.range);
        best_score = std::max(best_score, score);
      }
      const auto got = store.BestMatchAnywhere(q, criterion);
      if (best_score < 0) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_DOUBLE_EQ(got->similarity, best_score);
      }
    }
  }
}

TEST(BucketStoreIndexTest, EvictionKeepsIndexConsistent) {
  BucketStore store(/*max_descriptors=*/5);
  for (uint32_t i = 0; i < 30; ++i) {
    store.Insert(i % 3, Desc(i * 10, i * 10 + 15));
  }
  EXPECT_EQ(store.num_descriptors(), 5u);
  // The surviving 5 descriptors are the most recent: i = 25..29, i.e.
  // ranges [250,265] .. [290,305]. Older ranges must be gone from the
  // peer-wide matcher.
  auto old = store.BestMatchAnywhere(Key(0, 50), MatchCriterion::kJaccard);
  ASSERT_TRUE(old.has_value()) << "zero-score fallback still reports something";
  EXPECT_DOUBLE_EQ(old->similarity, 0.0);
  auto fresh = store.BestMatchAnywhere(Key(250, 265), MatchCriterion::kJaccard);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_DOUBLE_EQ(fresh->similarity, 1.0);
}

TEST(BucketStoreIndexTest, SameKeyInTwoBucketsSurvivesOneEviction) {
  BucketStore bounded(/*max_descriptors=*/2);
  bounded.Insert(1, Desc(100, 200));
  bounded.Insert(2, Desc(100, 200));
  bounded.Insert(3, Desc(500, 600));  // evicts (1, [100,200])
  auto match = bounded.BestMatchAnywhere(Key(100, 200), MatchCriterion::kJaccard);
  ASSERT_TRUE(match.has_value());
  EXPECT_DOUBLE_EQ(match->similarity, 1.0)
      << "the key still lives in bucket 2, so the peer-wide match must find it";
}

TEST(MatchRuleTest, RankCandidatesIsBestFirstAndStable) {
  auto candidate = [](uint32_t lo, uint32_t hi, double score, bool exact) {
    return MatchCandidate{Desc(lo, hi), score, exact};
  };
  std::vector<MatchCandidate> ranked = {
      candidate(0, 9, 0.5, false), candidate(0, 100, 1.0, false),
      candidate(1, 9, 0.5, false), candidate(40, 60, 1.0, true)};
  RankCandidates(&ranked);
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0].descriptor.key.range, Range(40, 60));  // exact wins a tie
  EXPECT_EQ(ranked[1].descriptor.key.range, Range(0, 100));
  EXPECT_EQ(ranked[2].descriptor.key.range, Range(0, 9));  // arrival order kept
  EXPECT_EQ(ranked[3].descriptor.key.range, Range(1, 9));
  EXPECT_FALSE(Outranks(1.0, true, 1.0, true));
  EXPECT_TRUE(Outranks(0.6, false, 0.5, true));
}

TEST(MatchCriterionTest, Names) {
  EXPECT_STREQ(MatchCriterionName(MatchCriterion::kJaccard), "jaccard");
  EXPECT_STREQ(MatchCriterionName(MatchCriterion::kContainment), "containment");
}

}  // namespace
}  // namespace p2prange
