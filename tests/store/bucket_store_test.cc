#include "store/bucket_store.h"

#include <gtest/gtest.h>

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
