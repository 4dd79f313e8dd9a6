#include "hash/kernels.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "common/logging.h"

namespace p2prange {

namespace {

// min over 0 <= i < n of (b + a*i) mod m, for n >= 1, m >= 1,
// 0 <= a < m, 0 <= b < m.
//
// The sequence climbs by a and drops by m at each wrap. Candidate
// minima are the start value b and the value just after each wrap;
// the value after the j-th wrap is b + a*i - m*j ∈ [0, a), which is
// congruent to b - m*j (mod a). Those post-wrap values therefore form
// another arithmetic progression — first term (b - m) mod a, step
// (-m) mod a — over the smaller modulus a, and the loop descends into
// it. The modulus pair evolves like the Euclidean algorithm
// ((m, a) -> (a, a - m mod a), which at least halves every two
// levels), so the loop runs O(log m) times.
//
// No product here overflows: a < m <= 2^32 - 5 and n <= m at every
// level (at the top level the caller guarantees n < p; below it,
// n' = wraps <= a*n/m < n), so a*(n-1) + b < 2^64.
uint64_t MinModSequence(uint64_t n, uint64_t m, uint64_t a, uint64_t b) {
  uint64_t best = b;
  for (;;) {
    if (b < best) best = b;
    if (best == 0 || a == 0) return best;
    // Wraps reached within the first n terms: the j-th wrap happens at
    // index i = ceil((m*j - b) / a), so i <= n-1 iff j <= (a*(n-1)+b)/m.
    const uint64_t wraps = (a * (n - 1) + b) / m;
    if (wraps == 0) return best;
    // Three 64-bit divisions per level dominate the kernel's cost, so
    // the (< 2a)-sized reductions below use compares, not a fourth and
    // fifth division.
    const uint64_t r = m % a;       // m mod a, in [0, a)
    const uint64_t br = b % a;      // b mod a, in [0, a)
    const uint64_t next_b = br >= r ? br - r : br + a - r;  // (b - m) mod a
    const uint64_t next_a = r == 0 ? 0 : a - r;             // (-m) mod a
    n = wraps;
    m = a;
    a = next_a;
    b = next_b;
  }
}

}  // namespace

uint32_t MinLinearOverRange(uint64_t a, uint64_t b, uint64_t p, const Range& q) {
  DCHECK_GE(a, 1u);
  DCHECK_LT(a, p);
  DCHECK_LT(b, p);
  const uint64_t n = q.size();
  // a is invertible mod prime p, so n >= p terms cover every residue.
  if (n >= p) return 0;
  // (a*x + b) mod p over x = lo + t is (c + a*t) mod p over t < n;
  // domain values >= p alias exactly as in the per-element evaluation.
  const uint64_t c = (a * q.lo() + b) % p;
  return static_cast<uint32_t>(MinModSequence(n, p, a, c));
}

std::optional<uint32_t> NextMatchingPattern(uint32_t lo, uint32_t mask,
                                            uint32_t value) {
  DCHECK_EQ(value & ~mask, 0u);
  const uint64_t free = ~static_cast<uint64_t>(mask) & 0xFFFFFFFFull;
  const uint64_t candidate = (lo & ~mask) | value;
  if (candidate == lo) return lo;
  // candidate agrees with lo on every free bit, so the highest
  // differing bit d is a masked position.
  const int d = 63 - std::countl_zero(candidate ^ static_cast<uint64_t>(lo));
  if (candidate > lo) {
    // Forced 1 over lo's 0 at bit d: anything below d is ours to
    // minimize, so clear every free bit under it.
    return static_cast<uint32_t>(candidate & ~(free & ((1ULL << d) - 1)));
  }
  // Forced 0 under lo's 1 at bit d: to reach lo we must raise the
  // lowest free zero bit above d, then clear every free bit under it.
  const uint64_t risers = free & ~candidate & ~((1ULL << (d + 1)) - 1);
  if (risers == 0) return std::nullopt;
  const uint64_t riser = risers & (~risers + 1);  // lowest set bit
  return static_cast<uint32_t>((candidate | riser) & ~(free & (riser - 1)));
}

uint32_t MinPermutedOverRange(const BitPermutation& perm, uint32_t out_xor,
                              const Range& q) {
  const std::array<int, 64>& inv = perm.inverse_position_map();
  uint32_t mask = 0;   // input bits pinned so far
  uint32_t value = 0;  // their pinned values
  uint32_t result = 0;
  for (int j = perm.width() - 1; j >= 0; --j) {
    const uint32_t in_bit = 1u << inv[j];
    const uint32_t flip = (out_xor >> j) & 1u;
    // Output bit j is input bit inv[j] XOR flip; try to make it 0.
    const uint32_t zero_value = value | (flip ? in_bit : 0u);
    const std::optional<uint32_t> witness =
        NextMatchingPattern(q.lo(), mask | in_bit, zero_value);
    if (witness.has_value() && *witness <= q.hi()) {
      value = zero_value;
    } else {
      // The zero branch is empty; its complement within the (feasible)
      // parent assignment cannot be.
      value |= flip ? 0u : in_bit;
      result |= 1u << j;
    }
    mask |= in_bit;
  }
  return result;
}

namespace {

constexpr uint32_t kBias = 0x80000000u;  // see PermutedLaneBlock
constexpr size_t kLanes = PermutedLaneBlock::kLanes;

// Blocks one chunk walks together. Seven blocks' running rows are 21 of
// AVX-512's 32 zmm registers, which leaves room for the loaded image
// and high_xor rows, and seven blocks of 16 lanes hold the paper's
// l·k = 100 functions.
constexpr size_t kChunkBlocks = PermutedLaneBlock::kChunkBlocks;

// The vector types the entries run a block's 16 lanes in: one zmm value
// (AVX-512), two ymm values (AVX2) or four xmm values (baseline SSE2).
using Lanes16 = int32_t __attribute__((vector_size(64)));
using Lanes8 = int32_t __attribute__((vector_size(32)));
using Lanes4 = int32_t __attribute__((vector_size(16)));
static_assert(sizeof(Lanes16) == kLanes * sizeof(int32_t));

// Folds biased candidates into biased minima: signed order on biased
// values is unsigned order on the values themselves.
template <class V>
[[gnu::always_inline]] inline void TakeMin(V& best, const V& biased_candidate) {
  best = biased_candidate < best ? biased_candidate : best;
}

// MinPermutedOverRangeLanes over exactly N blocks, in vectors of type V;
// d is the top bit where lo and hi differ, or -1 if lo == hi. N is a
// constant and every loop over a chunk's vectors is unrolled, so the
// running rows are values that the register allocator keeps in
// registers (all of them, where they fit), not array slots reloaded and
// stored at every bit.
template <class V, size_t N>
[[gnu::always_inline]] inline void MinOverChunk(const PermutedLaneBlock* blocks,
                                                uint32_t lo, uint32_t hi,
                                                int d, uint32_t* out) {
  constexpr size_t kPartLanes = sizeof(V) / sizeof(int32_t);
  constexpr size_t kParts = kLanes / kPartLanes;  // vectors per block row
  std::array<V, N * kParts> lo_prefix;  // P(lo's bits above i)
  std::array<V, N * kParts> hi_prefix;  // P(hi's bits above i)
  std::array<V, N * kParts> best;       // biased
#pragma GCC unroll 64
  for (size_t v = 0; v < N * kParts; ++v) {
    lo_prefix[v] = V{};
    hi_prefix[v] = V{};
    best[v] = V{} + std::numeric_limits<int32_t>::max();
  }
  // Runs step(image, high_xor, lo_prefix, hi_prefix, best) at input bit
  // i on every vector of the chunk.
  const auto each_part = [&](int i, auto step) __attribute__((always_inline)) {
#pragma GCC unroll 64
    for (size_t v = 0; v < N * kParts; ++v) {
      const size_t lane = v % kParts * kPartLanes;
      V image;
      V high_xor;
      std::memcpy(&image, blocks[v / kParts].image[i].data() + lane,
                  sizeof image);
      std::memcpy(&high_xor, blocks[v / kParts].high_xor[i].data() + lane,
                  sizeof high_xor);
      step(image, high_xor, lo_prefix[v], hi_prefix[v], best[v]);
    }
  };
  // Down to d the prefixes only take bits: lo and hi agree above d, and
  // at d only hi has a 1.
  for (int i = PermutedLaneBlock::kWidth - 1; i >= std::max(d, 0); --i) {
    if (((lo >> i) & 1u) != 0) {
      each_part(i, [](const V& image, const V&, V& lp, V& hp, V&) {
        lp ^= image;
        hp ^= image;
      });
    } else if (((hi >> i) & 1u) != 0) {
      each_part(i, [](const V& image, const V&, V&, V& hp, V&) {
        hp ^= image;
      });
    }
  }
  // Below d: the minimum over A_i where lo has a 0 and over B_i where hi
  // has a 1, then each prefix takes its bit. One branch per bit for
  // every lane: branching per block on random bits mispredicts.
  for (int i = d - 1; i >= 0; --i) {
    switch ((((lo >> i) & 1u) << 1) | ((hi >> i) & 1u)) {
      case 0b00:
        each_part(i, [](const V& image, const V& high_xor, V& lp, V&, V& m) {
          TakeMin(m, lp ^ image ^ high_xor);
        });
        break;
      case 0b01:
        each_part(i, [](const V& image, const V& high_xor, V& lp, V& hp,
                        V& m) {
          TakeMin(m, lp ^ image ^ high_xor);
          TakeMin(m, hp ^ high_xor);
          hp ^= image;
        });
        break;
      case 0b10:
        each_part(i, [](const V& image, const V&, V& lp, V&, V&) {
          lp ^= image;
        });
        break;
      default:
        each_part(i, [](const V& image, const V& high_xor, V& lp, V& hp,
                        V& m) {
          TakeMin(m, hp ^ high_xor);
          lp ^= image;
          hp ^= image;
        });
    }
  }
  // The prefixes are now P(lo) and P(hi), and high_xor[0] is P(r): add
  // π(lo) and π(hi) themselves.
  each_part(0, [](const V&, const V& out_xor, V& lp, V& hp, V& m) {
    TakeMin(m, lp ^ out_xor);
    TakeMin(m, hp ^ out_xor);
  });
#pragma GCC unroll 64
  for (size_t v = 0; v < N * kParts; ++v) {
    const V unbiased = best[v] ^ std::numeric_limits<int32_t>::min();
    std::memcpy(out + v * kPartLanes, &unbiased, sizeof unbiased);
  }
}

// The body of every entry: the blocks, one whole chunk at a time.
template <class V>
[[gnu::always_inline]] inline void MinOverBlocks(
    std::span<const PermutedLaneBlock> blocks, uint32_t lo, uint32_t hi,
    int d, uint32_t* out) {
  for (size_t first = 0; first < blocks.size(); first += kChunkBlocks) {
    MinOverChunk<V, kChunkBlocks>(&blocks[first], lo, hi, d,
                                  out + first * kLanes);
  }
}

using LanesEntry = void (*)(std::span<const PermutedLaneBlock>, uint32_t,
                            uint32_t, int, uint32_t*);

void MinOverBlocksBaseline(std::span<const PermutedLaneBlock> blocks,
                           uint32_t lo, uint32_t hi, int d, uint32_t* out) {
  MinOverBlocks<Lanes4>(blocks, lo, hi, d, out);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void MinOverBlocksAvx2(
    std::span<const PermutedLaneBlock> blocks, uint32_t lo, uint32_t hi,
    int d, uint32_t* out) {
  MinOverBlocks<Lanes8>(blocks, lo, hi, d, out);
}

__attribute__((target("avx512f"))) void MinOverBlocksAvx512(
    std::span<const PermutedLaneBlock> blocks, uint32_t lo, uint32_t hi,
    int d, uint32_t* out) {
  MinOverBlocks<Lanes16>(blocks, lo, hi, d, out);
}
#endif

LanesEntry EntryFor(LaneKernelIsa isa) {
  switch (isa) {
#if defined(__x86_64__)
    case LaneKernelIsa::kAvx512:
      return MinOverBlocksAvx512;
    case LaneKernelIsa::kAvx2:
      return MinOverBlocksAvx2;
#endif
    default:
      return MinOverBlocksBaseline;
  }
}

void RunEntry(LanesEntry entry, std::span<const PermutedLaneBlock> blocks,
              const Range& q, std::span<uint32_t> out) {
  CHECK_EQ(blocks.size() % kChunkBlocks, 0u);
  CHECK_EQ(out.size(), blocks.size() * kLanes);
  entry(blocks, q.lo(), q.hi(), std::bit_width(q.lo() ^ q.hi()) - 1,
        out.data());
}

}  // namespace

void PermutedLaneBlock::Set(int lane, const BitPermutation& perm,
                            uint32_t out_xor) {
  CHECK_EQ(perm.width(), kWidth);
  DCHECK_GE(lane, 0);
  DCHECK_LT(lane, kLanes);
  const std::array<int, 64>& pos = perm.position_map();
  uint32_t above = 0;  // P(~(2^i - 1)): the images of input bits >= i
  for (int i = kWidth - 1; i >= 0; --i) {
    image[i][lane] = 1u << pos[i];
    above |= image[i][lane];
    // P(r & ~(2^i - 1)) = P(r) & P(~(2^i - 1)): P moves bits, so it
    // commutes with &.
    high_xor[i][lane] = (out_xor & above) ^ kBias;
  }
}

bool LaneKernelSupported(LaneKernelIsa isa) {
  switch (isa) {
#if defined(__x86_64__)
    case LaneKernelIsa::kAvx512:
      return __builtin_cpu_supports("avx512f");
    case LaneKernelIsa::kAvx2:
      return __builtin_cpu_supports("avx2");
#endif
    case LaneKernelIsa::kBaseline:
      return true;
    default:
      return false;
  }
}

void MinPermutedOverRangeLanes(std::span<const PermutedLaneBlock> blocks,
                               const Range& q, std::span<uint32_t> out) {
  // The widest entry the CPU supports, picked at the first call.
  static const LanesEntry entry = [] {
    for (const LaneKernelIsa isa : {LaneKernelIsa::kAvx512,
                                    LaneKernelIsa::kAvx2}) {
      if (LaneKernelSupported(isa)) return EntryFor(isa);
    }
    return EntryFor(LaneKernelIsa::kBaseline);
  }();
  RunEntry(entry, blocks, q, out);
}

void MinPermutedOverRangeLanes(LaneKernelIsa isa,
                               std::span<const PermutedLaneBlock> blocks,
                               const Range& q, std::span<uint32_t> out) {
  CHECK(LaneKernelSupported(isa));
  RunEntry(EntryFor(isa), blocks, q, out);
}

}  // namespace p2prange
