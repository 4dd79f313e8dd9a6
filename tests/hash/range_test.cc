#include "hash/range.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/random.h"

namespace p2prange {
namespace {

TEST(RangeTest, MakeValidatesOrder) {
  EXPECT_TRUE(Range::Make(3, 7).ok());
  EXPECT_TRUE(Range::Make(5, 5).ok());
  EXPECT_TRUE(Range::Make(7, 3).status().IsInvalidArgument());
}

TEST(RangeTest, SizeIsInclusive) {
  EXPECT_EQ(Range(3, 7).size(), 5u);
  EXPECT_EQ(Range(5, 5).size(), 1u);
  // Full 32-bit domain: 2^32 elements needs 64-bit size.
  const uint32_t max = std::numeric_limits<uint32_t>::max();
  EXPECT_EQ(Range(0, max).size(), 1ULL << 32);
}

TEST(RangeTest, ContainsElementAndRange) {
  const Range r(10, 20);
  EXPECT_TRUE(r.Contains(10u));
  EXPECT_TRUE(r.Contains(20u));
  EXPECT_FALSE(r.Contains(9u));
  EXPECT_FALSE(r.Contains(21u));
  EXPECT_TRUE(r.Contains(Range(12, 18)));
  EXPECT_TRUE(r.Contains(Range(10, 20)));
  EXPECT_FALSE(r.Contains(Range(9, 20)));
  EXPECT_FALSE(r.Contains(Range(10, 21)));
}

TEST(RangeTest, IntersectionSize) {
  EXPECT_EQ(Range(0, 10).IntersectionSize(Range(5, 15)), 6u);
  EXPECT_EQ(Range(0, 10).IntersectionSize(Range(10, 20)), 1u);
  EXPECT_EQ(Range(0, 10).IntersectionSize(Range(11, 20)), 0u);
  EXPECT_EQ(Range(0, 10).IntersectionSize(Range(0, 10)), 11u);
  EXPECT_EQ(Range(5, 7).IntersectionSize(Range(0, 100)), 3u);
}

TEST(RangeTest, UnionSizeIsSetUnion) {
  // Disjoint ranges: union is the sum, not the hull.
  EXPECT_EQ(Range(0, 9).UnionSize(Range(100, 109)), 20u);
  EXPECT_EQ(Range(0, 10).UnionSize(Range(5, 15)), 16u);
  EXPECT_EQ(Range(0, 10).UnionSize(Range(0, 10)), 11u);
}

TEST(RangeTest, IntersectionRange) {
  auto inter = Range(0, 10).Intersection(Range(5, 15));
  ASSERT_TRUE(inter.has_value());
  EXPECT_EQ(*inter, Range(5, 10));
  EXPECT_FALSE(Range(0, 10).Intersection(Range(20, 30)).has_value());
}

TEST(RangeTest, JaccardKnownValues) {
  EXPECT_DOUBLE_EQ(Range(0, 9).Jaccard(Range(0, 9)), 1.0);
  EXPECT_DOUBLE_EQ(Range(0, 9).Jaccard(Range(100, 109)), 0.0);
  // [0,9] vs [5,14]: inter 5, union 15.
  EXPECT_DOUBLE_EQ(Range(0, 9).Jaccard(Range(5, 14)), 5.0 / 15.0);
  // The paper's motivating pair: [30,50] vs [30,49].
  EXPECT_DOUBLE_EQ(Range(30, 50).Jaccard(Range(30, 49)), 20.0 / 21.0);
}

TEST(RangeTest, JaccardIsSymmetric) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.NextBounded(1000));
    const uint32_t b = a + static_cast<uint32_t>(rng.NextBounded(100));
    const uint32_t c = static_cast<uint32_t>(rng.NextBounded(1000));
    const uint32_t d = c + static_cast<uint32_t>(rng.NextBounded(100));
    const Range q(a, b), r(c, d);
    EXPECT_DOUBLE_EQ(q.Jaccard(r), r.Jaccard(q));
  }
}

TEST(RangeTest, JaccardDistanceSatisfiesTriangleInequality) {
  // §3.2: d = 1 - Jaccard is a metric; spot-check random triples.
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    auto rand_range = [&] {
      const uint32_t lo = static_cast<uint32_t>(rng.NextBounded(500));
      return Range(lo, lo + static_cast<uint32_t>(rng.NextBounded(200)));
    };
    const Range q = rand_range(), r = rand_range(), s = rand_range();
    const double dqr = 1.0 - q.Jaccard(r);
    const double drs = 1.0 - r.Jaccard(s);
    const double dqs = 1.0 - q.Jaccard(s);
    EXPECT_LE(dqs, dqr + drs + 1e-12);
  }
}

TEST(RangeTest, ContainmentDistanceViolatesTriangleInequality) {
  // §3.2's reason containment admits no LSH family. Counterexample:
  // Q=[0,99] subset of R=[0,199]; S=[100,199] subset of R as well.
  const Range q(0, 99), r(0, 199), s(100, 199);
  const double dqr = 1.0 - q.ContainmentIn(r);  // 0: Q fully inside R
  const double drs = 1.0 - r.ContainmentIn(s);  // 0.5
  const double dqs = 1.0 - q.ContainmentIn(s);  // 1: disjoint
  EXPECT_GT(dqs, dqr + drs);
}

TEST(RangeTest, ContainmentKnownValues) {
  EXPECT_DOUBLE_EQ(Range(30, 49).ContainmentIn(Range(30, 50)), 1.0);
  EXPECT_DOUBLE_EQ(Range(30, 50).ContainmentIn(Range(30, 49)), 20.0 / 21.0);
  EXPECT_DOUBLE_EQ(Range(0, 9).ContainmentIn(Range(5, 100)), 0.5);
  EXPECT_DOUBLE_EQ(Range(0, 9).ContainmentIn(Range(50, 100)), 0.0);
}

TEST(RangeTest, RecallEqualsContainment) {
  const Range q(10, 29), r(0, 19);
  EXPECT_DOUBLE_EQ(q.RecallFrom(r), q.ContainmentIn(r));
  EXPECT_DOUBLE_EQ(q.RecallFrom(r), 0.5);
}

TEST(RangeTest, PaddedExpandsBothEdges) {
  // Size 100, 20% padding = 20 per edge.
  const Range padded = Range(100, 199).Padded(0.2, 0, 1000);
  EXPECT_EQ(padded, Range(80, 219));
}

TEST(RangeTest, PaddedClampsAtDomainBounds) {
  EXPECT_EQ(Range(5, 104).Padded(0.2, 0, 1000), Range(0, 124));
  EXPECT_EQ(Range(900, 999).Padded(0.2, 0, 1000), Range(880, 1000));
  EXPECT_EQ(Range(0, 1000).Padded(0.5, 0, 1000), Range(0, 1000));
}

TEST(RangeTest, PaddedZeroFractionIsIdentity) {
  EXPECT_EQ(Range(7, 42).Padded(0.0, 0, 100), Range(7, 42));
}

TEST(RangeTest, PaddedNearUint32Extremes) {
  const uint32_t max = std::numeric_limits<uint32_t>::max();
  const Range top(max - 9, max);
  EXPECT_EQ(top.Padded(0.5, 0, max), Range(max - 14, max));
  const Range bottom(0, 9);
  EXPECT_EQ(bottom.Padded(0.5, 0, max), Range(0, 14));
  // A pad wider than any uint64_t still saturates at the domain bounds.
  EXPECT_EQ(Range(10, 20).Padded(1e30, 0, 1000), Range(0, 1000));
  EXPECT_EQ(top.Padded(std::numeric_limits<double>::max(), 0, max),
            Range(0, max));
}

TEST(RangeTest, PaddedSmallRangeRoundsDown) {
  // Size 4, 20% padding = 0.8 -> pad 0 (rounded down).
  EXPECT_EQ(Range(10, 13).Padded(0.2, 0, 100), Range(10, 13));
  // Size 5, 20% -> pad 1.
  EXPECT_EQ(Range(10, 14).Padded(0.2, 0, 100), Range(9, 15));
}

TEST(RangeTest, ToString) {
  EXPECT_EQ(Range(3, 9).ToString(), "[3, 9]");
}

}  // namespace
}  // namespace p2prange
