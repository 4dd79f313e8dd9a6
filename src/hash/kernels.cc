#include "hash/kernels.h"

#include <bit>

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

void PermutedLaneBlock::Set(int lane, const BitPermutation& perm,
                            uint32_t out_xor) {
  CHECK_EQ(perm.width(), kWidth);
  DCHECK_GE(lane, 0);
  DCHECK_LT(lane, kLanes);
  const std::array<int, 64>& inv = perm.inverse_position_map();
  for (int s = 0; s < kWidth; ++s) {
    const int j = kWidth - 1 - s;
    in_bit[s][lane] = 1u << inv[j];
    flip[s][lane] = ((out_xor >> j) & 1u) != 0 ? in_bit[s][lane] : 0u;
  }
}

void MinPermutedOverRangeLanes(
    const PermutedLaneBlock& block, const Range& q,
    std::array<uint32_t, PermutedLaneBlock::kLanes>* out) {
  constexpr int kLanes = PermutedLaneBlock::kLanes;
  const uint32_t lo = q.lo();
  const uint32_t hi = q.hi();
  // Every x in [lo, hi] carries lo's bits above d, the top bit where lo
  // and hi differ; below that, x is either 0 at d with its low bits >=
  // lo's, or 1 at d with its low bits <= hi's. (lo == hi: no d, all
  // bits fixed.) So whether some x in [lo, hi] matches the pins
  // (x & mask) == value comes down to three mask tests and two compares
  // — NextMatchingPattern's answer without its per-pin search for d.
  uint32_t low = lo ^ hi;  // becomes: bits at and below d
  low |= low >> 1;
  low |= low >> 2;
  low |= low >> 4;
  low |= low >> 8;
  low |= low >> 16;
  const uint32_t fixed = ~low;      // bits shared by all of [lo, hi]
  const uint32_t below = low >> 1;  // bits under d (< 2^31: signed-safe)
  const uint32_t bit_d = low ^ below;
  const int32_t lo_below = static_cast<int32_t>(lo & below);
  const int32_t hi_below = static_cast<int32_t>(hi & below);

  std::array<uint32_t, kLanes> mask{};    // input bits pinned so far
  std::array<uint32_t, kLanes> value{};   // their pinned values
  std::array<uint32_t, kLanes> result{};  // output bits decided so far
  for (int s = 0; s < PermutedLaneBlock::kWidth; ++s) {
    // MinPermutedOverRange's step on every lane, with each test a mask
    // so no lane branches: can this output bit be 0?
    for (int i = 0; i < kLanes; ++i) {
      const uint32_t in = block.in_bit[s][i];
      const uint32_t m = mask[i] | in;
      const uint32_t v = value[i] | block.flip[s][i];  // output bit 0
      const uint32_t pinned_zero = m ^ v;
      // Bitwise & and | on the tests, never && or ||: a short circuit
      // is a branch, and a branch stops the loop from vectorizing.
      const bool prefix_ok = ((v ^ lo) & m & fixed) == 0;
      // 0 at d: the largest match below d must reach lo's low bits.
      const int32_t largest = static_cast<int32_t>(below & ~pinned_zero);
      const bool left = ((v & bit_d) == 0) & (largest >= lo_below);
      // 1 at d: the smallest match below d must not pass hi's.
      const int32_t smallest = static_cast<int32_t>(v & below);
      const bool right = ((pinned_zero & bit_d) == 0) & (smallest <= hi_below);
      const uint32_t keep_zero =
          0u - static_cast<uint32_t>(prefix_ok & (left | right));
      // Zero feasible: keep v; else pin the input bit the other way.
      value[i] = v ^ (in & ~keep_zero);
      result[i] = (result[i] << 1) | (~keep_zero & 1u);
      mask[i] = m;
    }
  }
  *out = result;
}

}  // namespace p2prange
