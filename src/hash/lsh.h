// The l-groups-of-k LSH amplification of paper §4.
//
// A single min-hash collides for similar ranges with probability equal
// to their Jaccard similarity p. Grouping k independent functions
// (identifier = combination of all k values) sharpens that to p^k, and
// probing l independent groups gives overall hit probability
// 1 − (1 − p^k)^l — a sigmoid the paper tunes (k=20, l=5) to
// approximate a step function at similarity 0.9.
#ifndef P2PRANGE_HASH_LSH_H_
#define P2PRANGE_HASH_LSH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "hash/kernels.h"
#include "hash/minwise.h"
#include "hash/range.h"

namespace p2prange {

/// \brief Parameters of the LSH identifier scheme.
struct LshParams {
  int k = 20;  ///< hash functions per group
  int l = 5;   ///< number of groups (identifiers per range)
  HashFamilyType family = HashFamilyType::kApproxMinwise;
  uint64_t seed = 1;
  /// Compose bit-shuffle permutations with a random XOR translation
  /// (removes the fixed point at 0; see MinwiseHashFunction). Off by
  /// default for paper fidelity.
  bool pre_xor_mask = false;
  /// Modulus for the linear family. The default full-width prime gives
  /// the sharp variant; a domain-sized prime (NextPrimeAtLeast of the
  /// attribute-domain width) reproduces the paper's Figure 7 behavior.
  uint64_t linear_prime = LinearHashFunction::kPrime;

  /// The paper's configuration (§5.1): k=20, l=5.
  static LshParams Paper(HashFamilyType family, uint64_t seed = 1) {
    LshParams p;
    p.family = family;
    p.seed = seed;
    return p;
  }
};

/// \brief l groups of k sampled hash functions mapping a range set to
/// l 32-bit identifiers (the paper's pseudocode combines a group's k
/// values by XOR; we do the same).
class LshScheme {
 public:
  /// Samples the l*k functions deterministically from params.seed.
  /// Rejects k < 1, l < 1, and (for the linear family) a composite or
  /// out-of-range `linear_prime` with InvalidArgument.
  static Result<LshScheme> Make(const LshParams& params);

  int k() const { return params_.k; }
  int l() const { return params_.l; }
  HashFamilyType family() const { return params_.family; }
  const LshParams& params() const { return params_; }

  /// The identifier produced by group `g` (0-based) for range `q`.
  uint32_t GroupIdentifier(int g, const Range& q) const;

  /// All l identifiers for `q`, in group order.
  std::vector<uint32_t> Identifiers(const Range& q) const {
    std::vector<uint32_t> ids;
    IdentifiersInto(q, &ids);
    return ids;
  }

  /// All l identifiers for `q` written into *out (resized to l): one
  /// batched pass over the flat function table, reusing out's storage
  /// — the allocation-free form the probe path uses per lookup. The
  /// shuffle families run eight functions per lane-kernel call
  /// (MinPermutedOverRangeLanes); the linear family one at a time.
  void IdentifiersInto(const Range& q, std::vector<uint32_t>* out) const;

  /// Total number of sampled functions (l * k).
  int num_functions() const { return params_.k * params_.l; }

  /// The i-th function (0-based) of group `g`; sampling order matches
  /// the seeded construction. Exposed for the differential tests and
  /// the kernel-vs-naive benches.
  const RangeHashFunction& function(int g, int i) const {
    return *fns_[static_cast<size_t>(g) * params_.k + i];
  }

  /// \brief The analytic probability 1 − (1 − sim^k)^l that two ranges
  /// of Jaccard similarity `sim` share at least one identifier, under
  /// ideal min-wise independence.
  static double CollisionProbability(double sim, int k, int l);
  double CollisionProbability(double sim) const {
    return CollisionProbability(sim, params_.k, params_.l);
  }

 private:
  LshScheme(LshParams params,
            std::vector<std::unique_ptr<RangeHashFunction>> fns,
            std::vector<PermutedLaneBlock> lanes)
      : params_(params), fns_(std::move(fns)), lanes_(std::move(lanes)) {}

  LshParams params_;
  // fns_[g*k + i]: i-th function of group g (flat: one contiguous
  // table so a batched evaluation is a single pass).
  std::vector<std::unique_ptr<RangeHashFunction>> fns_;
  // Shuffle families only: fns_[8b + i] compiled into lanes_[b] lane i.
  std::vector<PermutedLaneBlock> lanes_;
};

}  // namespace p2prange

#endif  // P2PRANGE_HASH_LSH_H_
