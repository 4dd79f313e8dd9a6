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
// The shuffle kernel comes in two forms that use different algorithms
// and must agree. The scalar MinPermutedOverRange is the greedy above:
// it searches for the next matching input (NextMatchingPattern) at
// every pinned bit and serves single-function calls (HashRange,
// GroupIdentifier, Figure 5). The lane-batched
// MinPermutedOverRangeLanes, which LshScheme's l×k probe path uses,
// evaluates the range through its dyadic blocks instead (range-
// efficient min-hashing, Gudmundsson & Pagh): with d the top bit where
// lo and hi differ, [lo, hi] is {lo} ∪ {hi} ∪ the blocks A_i (lo's
// bits above i, bit i set, bits below free) for each i < d where lo
// has a 0, and B_i (hi's bits above i, bit i clear, bits below free)
// for each i < d where hi has a 1. Writing π(x) = P(x ⊕ r) for the
// pre-XOR r, the free bits cancel r's low bits, so the minimum over a
// block with prefix p is P(p) ⊕ P(r & ~(2^i − 1)) in closed form. One
// walk from bit 31 down keeps P(lo's bits above i) and P(hi's bits
// above i) for every function and takes at most 2·d + 2 candidates.
// It branches on lo's and hi's bit once per bit for all functions of
// a chunk, never per lane, so each step is a few vector operations per
// block. A chunk is a compile-time number of blocks and every loop over
// its vectors is unrolled, so each block's three running rows (P(lo),
// P(hi) and the biased minimum, 16 lanes each) are values the register
// allocator can keep in registers for the whole walk, not array slots
// reloaded and stored at every bit; with a run-time count they would
// be. A chunk holds seven blocks: their rows take 21 of AVX-512's 32
// zmm registers, and seven blocks hold the paper's l·k = 100 functions.
// The kernel takes whole chunks only, so each entry builds the one
// chunk shape; LshScheme pads a scheme to whole chunks with empty
// blocks, whose lanes it never reads. On x86-64
// one always-inline body builds three entries: AVX-512 (a row is one
// zmm register), AVX2 (two ymm, some spilled) and baseline SSE2 (four
// xmm, mostly spilled). The first call picks the widest the CPU
// supports; other targets build the baseline entry alone.
// Neither form derives its answer from the other's reasoning, so each
// is an independent reference for the other.
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
#include <span>

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

/// \brief Sixteen width-32 shuffle-family functions laid out for
/// MinPermutedOverRangeLanes. For each input bit i and lane, with P
/// the lane's bit-position permutation and r its pre-XOR (out_xor =
/// P(r)): image holds P(1 << i), and high_xor holds P(r & ~(2^i − 1))
/// XOR 2^31 — the bias lets the kernel's signed 32-bit min order the
/// values as unsigned, which the baseline SSE2 entry has no instruction
/// for. Each row of 16 lanes is one 64-byte cache line. A lane never
/// Set stays all-zero and yields a value to ignore.
struct PermutedLaneBlock {
  static constexpr int kLanes = 16;
  static constexpr int kWidth = 32;
  /// Blocks the lane kernel walks together (see the file comment).
  static constexpr int kChunkBlocks = 7;

  /// Compiles `perm` (width 32) with output XOR `out_xor` into `lane`.
  void Set(int lane, const BitPermutation& perm, uint32_t out_xor);

  alignas(64) std::array<std::array<uint32_t, kLanes>, kWidth> image{};
  alignas(64) std::array<std::array<uint32_t, kLanes>, kWidth> high_xor{};
};

/// \brief MinPermutedOverRange for every lane of every block at once:
/// out[16·b + i] is the exact min of block b's lane i over [q.lo(),
/// q.hi()]. `blocks` must be a whole number of kChunkBlocks-block
/// chunks, and `out` must hold 16 values per block.
void MinPermutedOverRangeLanes(std::span<const PermutedLaneBlock> blocks,
                               const Range& q, std::span<uint32_t> out);

/// \brief The instruction sets the lane kernel has an entry for. Every
/// entry compiles from one body and returns the same values;
/// MinPermutedOverRangeLanes runs the widest the host supports.
enum class LaneKernelIsa { kAvx512, kAvx2, kBaseline };

/// Whether this host can run `isa`'s entry; kBaseline always can, the
/// others only on x86-64 CPUs with the instructions.
bool LaneKernelSupported(LaneKernelIsa isa);

/// \brief MinPermutedOverRangeLanes through `isa`'s entry, which the
/// host must support: the kernel tests run every entry the host has,
/// not only the one the CPU picks.
void MinPermutedOverRangeLanes(LaneKernelIsa isa,
                               std::span<const PermutedLaneBlock> blocks,
                               const Range& q, std::span<uint32_t> out);

/// \brief Smallest x >= lo with (x & mask) == value, if any. The
/// feasibility primitive of MinPermutedOverRange; exposed for its
/// property tests.
std::optional<uint32_t> NextMatchingPattern(uint32_t lo, uint32_t mask,
                                            uint32_t value);

}  // namespace p2prange

#endif  // P2PRANGE_HASH_KERNELS_H_
