// Exact sublinear range min-hash kernels.
//
// Every probe evaluates h(Q) = min{π(x) : x ∈ Q} for l×k permutations;
// a naive scan costs O(|Q|) per function (the cost the paper's
// Figure 5 measures) and is unusable for wide ranges. Both permutation
// families in use admit exact shortcuts over contiguous ranges:
//
//  * Linear, π(x) = (a·x + b) mod p: the values along [lo, hi] form an
//    arithmetic progression mod p. Its minimum is found by a
//    Euclidean-style recursion on (p, a) — each level rewrites the
//    minimum over the sub-sequence of post-wrap values, which is again
//    an arithmetic progression with a smaller modulus — in O(log p).
//
//  * Bit-shuffle (§3.3, full and approximate): the compiled
//    permutation is a pure bit-position permutation P, optionally
//    composed with an XOR translation, so π(x) = P(x) ⊕ c is
//    GF(2)-linear. The minimum over [lo, hi] is found by fixing output
//    bits from the most significant down, preferring 0 whenever some
//    x ∈ [lo, hi] remains consistent with the partial assignment —
//    O(W) feasibility checks of O(1) bit ops each.
//
// The shuffle kernel comes in two forms with one result. The scalar
// MinPermutedOverRange searches for the next matching input
// (NextMatchingPattern) at every pinned bit and serves single-function
// calls (HashRange, GroupIdentifier, Figure 5). The lane-batched
// MinPermutedOverRangeLanes runs the same greedy for eight functions
// at once: it splits [lo, hi] once at the top bit where lo and hi
// differ, which turns each feasibility test into three mask tests and
// two compares, and it has no branch, so the compiler vectorizes the
// lane loop with no target flags. LshScheme's l×k probe path uses it.
// Because the two forms derive feasibility differently, each is an
// independent reference for the other.
//
// Every kernel returns bit-identical results to the naive scan (the
// differential suite in tests/hash/kernels_test.cc pins this over
// ≥ 10⁵ random ranges per family, and the lane kernel against the
// scalar one and the scan), so LSH signatures, bucket placement, and
// every reproduced figure are unchanged.
#ifndef P2PRANGE_HASH_KERNELS_H_
#define P2PRANGE_HASH_KERNELS_H_

#include <array>
#include <cstdint>
#include <optional>

#include "hash/bit_permutation.h"
#include "hash/range.h"

namespace p2prange {

/// \brief Exact min of (a·x + b) mod p over x ∈ [q.lo(), q.hi()] in
/// O(log p). Requires 1 <= a < p, 0 <= b < p, p prime (primality makes
/// a invertible, so ranges spanning >= p elements cover every residue
/// and the minimum is 0).
uint32_t MinLinearOverRange(uint64_t a, uint64_t b, uint64_t p, const Range& q);

/// \brief Exact min of perm.Apply(x) ^ out_xor over x ∈
/// [q.lo(), q.hi()] in O(W) feasibility checks (W = perm.width()).
/// Covers both shuffle families: a pre-XOR translation r becomes
/// out_xor = perm.Apply(r) by GF(2)-linearity of the position
/// permutation.
uint32_t MinPermutedOverRange(const BitPermutation& perm, uint32_t out_xor,
                              const Range& q);

/// \brief Eight width-32 shuffle-family functions laid out for
/// MinPermutedOverRangeLanes. Step s decides output bit j = 31 - s; for
/// each lane it holds the input-bit mask 1 << inverse_position_map()[j]
/// and the flip mask (that same bit if out_xor has bit j set, else 0).
/// A lane never Set stays all-zero and yields a value to ignore.
struct PermutedLaneBlock {
  static constexpr int kLanes = 8;
  static constexpr int kWidth = 32;

  /// Compiles `perm` (width 32) with output XOR `out_xor` into `lane`.
  void Set(int lane, const BitPermutation& perm, uint32_t out_xor);

  std::array<std::array<uint32_t, kLanes>, kWidth> in_bit{};
  std::array<std::array<uint32_t, kLanes>, kWidth> flip{};
};

/// \brief MinPermutedOverRange for every lane of `block` at once:
/// (*out)[i] is the exact min of lane i's π over [q.lo(), q.hi()].
void MinPermutedOverRangeLanes(
    const PermutedLaneBlock& block, const Range& q,
    std::array<uint32_t, PermutedLaneBlock::kLanes>* out);

/// \brief Smallest x >= lo with (x & mask) == value, if any. The
/// feasibility primitive of MinPermutedOverRange; exposed for its
/// property tests.
std::optional<uint32_t> NextMatchingPattern(uint32_t lo, uint32_t mask,
                                            uint32_t value);

}  // namespace p2prange

#endif  // P2PRANGE_HASH_KERNELS_H_
