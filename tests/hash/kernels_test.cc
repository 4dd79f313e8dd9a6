// Differential-testing harness for the sublinear range min-hash
// kernels (hash/kernels.h): the kernels must be *bit-identical* to the
// naive element-by-element scan, because LSH signatures — and with
// them bucket placement and every reproduced figure — depend on exact
// hash values. Property tests pin the primitives; fuzz-style seeded
// sweeps pin kernel == naive over >= 10^5 random ranges per family,
// including domain-edge ranges at lo = 0 and hi = 2^32 - 1.
#include "hash/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/bit_utils.h"
#include "common/random.h"
#include "hash/bit_permutation.h"
#include "hash/lsh.h"
#include "hash/minwise.h"

namespace p2prange {
namespace {

constexpr uint32_t kDomainMax = std::numeric_limits<uint32_t>::max();

// ---------------------------------------------------------------------------
// NextMatchingPattern: the feasibility primitive of the GF(2) kernel.
// ---------------------------------------------------------------------------

// Brute-force oracle over the low 10-bit space.
std::optional<uint32_t> NextMatchingPatternBrute(uint32_t lo, uint32_t mask,
                                                 uint32_t value,
                                                 uint32_t space = 1u << 10) {
  for (uint32_t x = lo; x < space; ++x) {
    if ((x & mask) == value) return x;
  }
  return std::nullopt;
}

TEST(NextMatchingPatternTest, MatchesBruteForceOnSmallSpace) {
  Rng rng(101);
  for (int trial = 0; trial < 20000; ++trial) {
    const uint32_t lo = static_cast<uint32_t>(rng.NextBounded(1u << 10));
    const uint32_t mask = static_cast<uint32_t>(rng.NextBounded(1u << 10));
    const uint32_t value = static_cast<uint32_t>(rng.Next32()) & mask;
    const auto got = NextMatchingPattern(lo, mask, value);
    const auto want = NextMatchingPatternBrute(lo, mask, value);
    if (want.has_value()) {
      ASSERT_TRUE(got.has_value()) << "lo=" << lo << " mask=" << mask
                                   << " value=" << value;
      EXPECT_EQ(*got, *want) << "lo=" << lo << " mask=" << mask
                             << " value=" << value;
    } else if (got.has_value()) {
      // The oracle's space is truncated at 2^10; a result above it is
      // fine as long as it actually matches the pattern and bound.
      EXPECT_GE(*got, 1u << 10);
      EXPECT_EQ(*got & mask, value);
    }
  }
}

TEST(NextMatchingPatternTest, DomainEdges) {
  // Fully constrained: the only candidate is `value` itself.
  EXPECT_EQ(NextMatchingPattern(0, kDomainMax, 123u), 123u);
  EXPECT_EQ(NextMatchingPattern(124u, kDomainMax, 123u), std::nullopt);
  // Unconstrained: the next value is lo itself, at both extremes.
  EXPECT_EQ(NextMatchingPattern(0, 0, 0), 0u);
  EXPECT_EQ(NextMatchingPattern(kDomainMax, 0, 0), kDomainMax);
  // Top bit forced to 0 while lo has it set: infeasible.
  EXPECT_EQ(NextMatchingPattern(0x80000000u, 0x80000000u, 0), std::nullopt);
  // Top bit forced to 1 below lo: jump to the bit, clear the rest.
  EXPECT_EQ(NextMatchingPattern(5u, 0x80000000u, 0x80000000u), 0x80000000u);
}

TEST(NextMatchingPatternTest, ResultAlwaysValidOn32BitSamples) {
  Rng rng(103);
  for (int trial = 0; trial < 20000; ++trial) {
    const uint32_t lo = rng.Next32();
    const uint32_t mask = rng.Next32();
    const uint32_t value = rng.Next32() & mask;
    const auto got = NextMatchingPattern(lo, mask, value);
    if (!got.has_value()) continue;
    EXPECT_GE(*got, lo);
    EXPECT_EQ(*got & mask, value);
    // Minimality: no smaller match in [lo, got). Spot-check got-1 and
    // the pattern-cleared prefix instead of scanning (space is 2^32).
    if (*got > lo) {
      EXPECT_NE((*got - 1) & mask, value);
    }
  }
}

// ---------------------------------------------------------------------------
// Differential sweeps: kernel == naive, >= 10^5 random ranges/family.
// ---------------------------------------------------------------------------

struct SweepCase {
  HashFamilyType family;
  bool pre_xor;
  uint64_t linear_prime;
  const char* name;
};

class KernelSweepTest : public ::testing::TestWithParam<SweepCase> {};

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, KernelSweepTest,
    ::testing::Values(
        SweepCase{HashFamilyType::kMinwise, false, 0, "Minwise"},
        SweepCase{HashFamilyType::kMinwise, true, 0, "MinwisePreXor"},
        SweepCase{HashFamilyType::kApproxMinwise, false, 0, "ApproxMinwise"},
        SweepCase{HashFamilyType::kApproxMinwise, true, 0, "ApproxMinwisePreXor"},
        SweepCase{HashFamilyType::kLinear, false, LinearHashFunction::kPrime,
                  "LinearFullPrime"},
        SweepCase{HashFamilyType::kLinear, false, 1009, "LinearDomainPrime"}),
    [](const auto& name_info) { return name_info.param.name; });

// A range with width in [1, 256] whose placement mixes interior
// positions with the domain edges (lo = 0 and hi = 2^32 - 1), so the
// naive oracle stays affordable while the sweep still exercises the
// kernels' boundary handling.
Range RandomNarrowRange(Rng& rng) {
  const uint32_t width = static_cast<uint32_t>(rng.NextInRange(1, 256));
  const uint64_t coin = rng.NextBounded(16);
  if (coin == 0) return Range(0, width - 1);                     // at lo = 0
  if (coin == 1) return Range(kDomainMax - width + 1, kDomainMax);  // at hi max
  const uint32_t lo =
      static_cast<uint32_t>(rng.NextBounded(uint64_t{kDomainMax} - width + 2));
  return Range(lo, lo + width - 1);
}

// >= 10^5 random ranges per family parameterization, fresh functions
// every 1000 ranges, zero tolerated mismatches.
TEST_P(KernelSweepTest, KernelMatchesNaiveOver100kRandomRanges) {
  const SweepCase& c = GetParam();
  Rng rng(0xD1FFu ^ (static_cast<uint64_t>(c.family) << 8) ^
          static_cast<uint64_t>(c.pre_xor) ^ c.linear_prime);
  constexpr int kRanges = 100000;
  constexpr int kRangesPerFunction = 1000;
  std::unique_ptr<RangeHashFunction> fn;
  for (int i = 0; i < kRanges; ++i) {
    if (i % kRangesPerFunction == 0) {
      fn = MakeHashFunction(c.family, rng, c.pre_xor, c.linear_prime);
    }
    const Range q = RandomNarrowRange(rng);
    const uint32_t kernel = fn->HashRange(q);
    const uint32_t naive = fn->HashRangeNaive(q);
    ASSERT_EQ(kernel, naive)
        << "family=" << HashFamilyName(c.family) << " pre_xor=" << c.pre_xor
        << " q=" << q.ToString() << " at range #" << i;
  }
}

// Medium widths probe deeper recursion levels of the linear kernel and
// longer prefix descents of the GF(2) kernel.
TEST_P(KernelSweepTest, KernelMatchesNaiveOnMediumWidths) {
  const SweepCase& c = GetParam();
  Rng rng(0xBEEF ^ static_cast<uint64_t>(c.family));
  for (int i = 0; i < 200; ++i) {
    auto fn = MakeHashFunction(c.family, rng, c.pre_xor, c.linear_prime);
    const uint32_t width = static_cast<uint32_t>(rng.NextInRange(1000, 50000));
    const uint32_t lo =
        static_cast<uint32_t>(rng.NextBounded(uint64_t{kDomainMax} - width + 2));
    const Range q(lo, lo + width - 1);
    ASSERT_EQ(fn->HashRange(q), fn->HashRangeNaive(q))
        << "q=" << q.ToString();
  }
}

// ---------------------------------------------------------------------------
// Wide and full-domain ranges: the regression the naive scan could not
// survive (a [0, 2^32-1] query used to spin for ~4 billion iterations
// per function). Exact values are forced by bijectivity, so no oracle
// scan is needed; the whole test completes in milliseconds.
// ---------------------------------------------------------------------------

TEST_P(KernelSweepTest, FullDomainRangeHashesToZeroInstantly) {
  const SweepCase& c = GetParam();
  Rng rng(0xF00D ^ static_cast<uint64_t>(c.family));
  const Range full(0, kDomainMax);
  for (int i = 0; i < 25; ++i) {
    auto fn = MakeHashFunction(c.family, rng, c.pre_xor, c.linear_prime);
    // Any bijection of [0, 2^32) attains 0 somewhere; the linear
    // family covers every residue of [0, p) once the width reaches p.
    EXPECT_EQ(fn->HashRange(full), 0u);
  }
}

TEST(KernelWideRangeTest, AlmostFullDomainExactValues) {
  Rng rng(0xCAFE);
  const Range all_but_zero(1, kDomainMax);
  for (int i = 0; i < 25; ++i) {
    // Without the pre-XOR mask, a bit-position permutation fixes 0 and
    // maps [1, 2^32) onto [1, 2^32), so the min over x >= 1 is exactly 1.
    MinwiseHashFunction full(rng);
    ApproxMinwiseHashFunction approx(rng);
    EXPECT_EQ(full.HashRange(all_but_zero), 1u);
    EXPECT_EQ(approx.HashRange(all_but_zero), 1u);
    // Linear with the full 32-bit prime: [1, 2^32) still spans >= p
    // elements, hence every residue, hence 0.
    LinearHashFunction linear(rng);
    EXPECT_EQ(linear.HashRange(all_but_zero), 0u);
  }
}

TEST(KernelWideRangeTest, WideHalfDomainMatchesPermutedProbe) {
  // A width-2^31 range: far beyond any scannable size. Sanity-check the
  // kernel result is a lower bound actually attained nearby: the
  // kernel's value must be <= every probed element's hash.
  Rng rng(0x5EED);
  const Range q(1u << 30, (1u << 30) + (1u << 31));
  for (HashFamilyType family :
       {HashFamilyType::kMinwise, HashFamilyType::kApproxMinwise,
        HashFamilyType::kLinear}) {
    auto fn = MakeHashFunction(family, rng);
    const uint32_t kernel = fn->HashRange(q);
    for (int i = 0; i < 10000; ++i) {
      const uint32_t x = q.lo() + static_cast<uint32_t>(rng.NextBounded(q.size()));
      ASSERT_LE(kernel, fn->Permute(x)) << HashFamilyName(family);
    }
  }
}

// ---------------------------------------------------------------------------
// Scheme-level differentials: the batched identifier path must XOR the
// same per-function values the naive scan produces, across (k, l).
// ---------------------------------------------------------------------------

struct SchemeCase {
  int k;
  int l;
  HashFamilyType family;
  bool pre_xor;
  const char* name;
};

class KernelSchemeTest : public ::testing::TestWithParam<SchemeCase> {};

INSTANTIATE_TEST_SUITE_P(
    KlGrid, KernelSchemeTest,
    ::testing::Values(
        SchemeCase{1, 1, HashFamilyType::kApproxMinwise, false, "K1L1"},
        SchemeCase{4, 7, HashFamilyType::kMinwise, false, "K4L7"},
        SchemeCase{20, 5, HashFamilyType::kApproxMinwise, false, "PaperK20L5"},
        SchemeCase{3, 2, HashFamilyType::kLinear, false, "LinearK3L2"},
        // l*k = 15 and 100: a partly filled last block of eight lanes.
        SchemeCase{5, 3, HashFamilyType::kMinwise, true, "MinwisePreXorK5L3"},
        SchemeCase{20, 5, HashFamilyType::kApproxMinwise, true,
                   "PaperK20L5PreXor"}),
    [](const auto& name_info) { return name_info.param.name; });

TEST_P(KernelSchemeTest, BatchedIdentifiersMatchNaivePerFunctionXor) {
  const SchemeCase& c = GetParam();
  LshParams p;
  p.k = c.k;
  p.l = c.l;
  p.family = c.family;
  p.pre_xor_mask = c.pre_xor;
  p.seed = 77;
  auto scheme = LshScheme::Make(p);
  ASSERT_TRUE(scheme.ok());
  Rng rng(0xABCD);
  for (int trial = 0; trial < 50; ++trial) {
    const Range q = RandomNarrowRange(rng);
    const auto ids = scheme->Identifiers(q);
    ASSERT_EQ(ids.size(), static_cast<size_t>(c.l));
    for (int g = 0; g < c.l; ++g) {
      uint32_t expected = 0;
      for (int i = 0; i < c.k; ++i) {
        expected ^= scheme->function(g, i).HashRangeNaive(q);
      }
      EXPECT_EQ(ids[g], bits::Mix32(expected))
          << "group " << g << " q=" << q.ToString();
      EXPECT_EQ(ids[g], scheme->GroupIdentifier(g, q));
    }
  }
}

TEST_P(KernelSchemeTest, IdentifiersIntoReusesBufferAndMatches) {
  const SchemeCase& c = GetParam();
  LshParams p;
  p.k = c.k;
  p.l = c.l;
  p.family = c.family;
  p.pre_xor_mask = c.pre_xor;
  p.seed = 78;
  auto scheme = LshScheme::Make(p);
  ASSERT_TRUE(scheme.ok());
  std::vector<uint32_t> buffer(99, 0xFFFFFFFFu);  // stale oversized buffer
  scheme->IdentifiersInto(Range(500, 900), &buffer);
  EXPECT_EQ(buffer, scheme->Identifiers(Range(500, 900)));
}

// IdentifiersInto (the lane kernel for the shuffle families) against
// the per-function XOR, 10^4 seeded ranges per width class: narrow
// ones against the naive scan, ranges in the engine's [0, 10^6] domain
// and anywhere in the 32-bit domain against the scalar kernel.
TEST_P(KernelSchemeTest, IdentifiersIntoMatchesPerFunctionXorOnSeededRanges) {
  const SchemeCase& c = GetParam();
  LshParams p;
  p.k = c.k;
  p.l = c.l;
  p.family = c.family;
  p.pre_xor_mask = c.pre_xor;
  p.seed = 79;
  auto scheme = LshScheme::Make(p);
  ASSERT_TRUE(scheme.ok());
  auto expect_ids = [&](const Range& q, bool naive) {
    std::vector<uint32_t> ids;
    scheme->IdentifiersInto(q, &ids);
    ASSERT_EQ(ids.size(), static_cast<size_t>(c.l));
    for (int g = 0; g < c.l; ++g) {
      uint32_t expected = 0;
      for (int i = 0; i < c.k; ++i) {
        const RangeHashFunction& fn = scheme->function(g, i);
        expected ^= naive ? fn.HashRangeNaive(q) : fn.HashRange(q);
      }
      ASSERT_EQ(ids[g], bits::Mix32(expected))
          << "group " << g << " q=" << q.ToString();
    }
  };
  Rng rng(0x1A9E ^ static_cast<uint64_t>(c.k * 31 + c.l));
  constexpr int kRanges = 10000;
  for (int i = 0; i < kRanges; ++i) {
    const uint32_t width = static_cast<uint32_t>(rng.NextInRange(1, 64));
    const uint32_t lo = static_cast<uint32_t>(
        rng.NextBounded(uint64_t{kDomainMax} - width + 2));
    expect_ids(Range(lo, lo + width - 1), /*naive=*/true);
  }
  for (int i = 0; i < kRanges; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.NextInRange(0, 1000000));
    const uint32_t b = static_cast<uint32_t>(rng.NextInRange(0, 1000000));
    expect_ids(Range(std::min(a, b), std::max(a, b)), /*naive=*/false);
  }
  for (const Range& edge : {Range(0, kDomainMax), Range(0, 0),
                            Range(kDomainMax, kDomainMax)}) {
    expect_ids(edge, /*naive=*/false);
  }
  for (int i = 0; i < kRanges; ++i) {
    const uint32_t a = rng.Next32();
    const uint32_t b = rng.Next32();
    expect_ids(Range(std::min(a, b), std::max(a, b)), /*naive=*/false);
  }
}

// The lane kernel on its own: eight functions of both shuffle families,
// with and without an output XOR, lane by lane against the scalar
// kernel; lanes left unset in a block must not disturb the set ones.
TEST(LaneKernelTest, EveryLaneMatchesTheScalarKernel) {
  Rng rng(0x1A4E5);
  for (int round = 0; round < 20; ++round) {
    std::vector<BitPermutation> perms;
    std::vector<uint32_t> out_xor;
    PermutedLaneBlock block;
    const int lanes =
        round % 2 == 0 ? PermutedLaneBlock::kLanes : 1 + round % 7;
    for (int i = 0; i < lanes; ++i) {
      const BitShuffleKeys keys = BitShuffleKeys::Sample(32, rng);
      perms.emplace_back(keys, i % 2 == 0 ? keys.num_levels() : 1);
      out_xor.push_back(i % 4 < 2 ? 0u : rng.Next32());
      block.Set(i, perms.back(), out_xor.back());
    }
    std::array<uint32_t, PermutedLaneBlock::kLanes> mins;
    for (int trial = 0; trial < 5000; ++trial) {
      uint32_t a = rng.Next32();
      uint32_t b = rng.Next32();
      if (trial % 2 == 0) {  // the engine's domain
        a %= 1000001;
        b %= 1000001;
      }
      const Range q(std::min(a, b), std::max(a, b));
      MinPermutedOverRangeLanes(block, q, &mins);
      for (int i = 0; i < lanes; ++i) {
        ASSERT_EQ(mins[i], MinPermutedOverRange(perms[i], out_xor[i], q))
            << "lane " << i << " q=" << q.ToString();
      }
    }
  }
}

// The kernels change no signature bits, so kernel-built schemes must
// reproduce the 1-(1-p^k)^l collision sigmoid exactly as well as the
// naive path: both estimates are computed in the same trials and must
// agree hit-for-hit, and both must track the analytic curve with the
// slack real linear permutations have (they are only *approximately*
// min-wise, and k-fold amplification compounds the per-function
// deficit — true of the naive scan too, which is the point).
TEST(KernelCollisionRateTest, KernelSignaturesReproduceAnalyticSigmoid) {
  struct Pair {
    Range q, r;
  };
  const Pair pairs[] = {
      {Range(100, 199), Range(100, 199)},  // sim 1.0 -> always collide
      {Range(100, 199), Range(110, 209)},  // sim ~0.818
      {Range(100, 199), Range(150, 249)},  // sim ~0.333
      {Range(100, 199), Range(300, 399)},  // sim 0 -> never collide
  };
  const int kK = 4, kL = 2, kTrials = 400;
  std::vector<double> kernel_rate, naive_rate;
  for (const Pair& pr : pairs) {
    int kernel_hits = 0, naive_hits = 0;
    for (int t = 0; t < kTrials; ++t) {
      LshParams p;
      p.k = kK;
      p.l = kL;
      p.family = HashFamilyType::kLinear;
      p.seed = 5000 + static_cast<uint64_t>(t);
      auto scheme = LshScheme::Make(p);
      ASSERT_TRUE(scheme.ok());
      const auto a = scheme->Identifiers(pr.q);
      const auto b = scheme->Identifiers(pr.r);
      bool kernel_hit = false, naive_hit = false;
      for (int g = 0; g < kL; ++g) {
        if (a[g] == b[g]) kernel_hit = true;
        uint32_t qa = 0, qb = 0;
        for (int i = 0; i < kK; ++i) {
          qa ^= scheme->function(g, i).HashRangeNaive(pr.q);
          qb ^= scheme->function(g, i).HashRangeNaive(pr.r);
        }
        if (bits::Mix32(qa) == bits::Mix32(qb)) naive_hit = true;
      }
      kernel_hits += kernel_hit ? 1 : 0;
      naive_hits += naive_hit ? 1 : 0;
    }
    kernel_rate.push_back(static_cast<double>(kernel_hits) / kTrials);
    naive_rate.push_back(static_cast<double>(naive_hits) / kTrials);
  }
  // Kernel and naive estimates agree exactly, pair by pair.
  for (size_t i = 0; i < kernel_rate.size(); ++i) {
    EXPECT_DOUBLE_EQ(kernel_rate[i], naive_rate[i]) << "pair " << i;
  }
  // ...and both track the analytic sigmoid: exact at the endpoints,
  // within real-family slack in the middle, monotone throughout.
  EXPECT_DOUBLE_EQ(kernel_rate[0], 1.0);
  EXPECT_NEAR(kernel_rate[1],
              LshScheme::CollisionProbability(
                  Range(100, 199).Jaccard(Range(110, 209)), kK, kL),
              0.25);
  EXPECT_NEAR(kernel_rate[2],
              LshScheme::CollisionProbability(
                  Range(100, 199).Jaccard(Range(150, 249)), kK, kL),
              0.1);
  EXPECT_LE(kernel_rate[3], 0.01);
  EXPECT_GT(kernel_rate[1], kernel_rate[2]);
  EXPECT_GE(kernel_rate[2], kernel_rate[3]);
}

}  // namespace
}  // namespace p2prange
