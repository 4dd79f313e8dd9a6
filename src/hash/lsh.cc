#include "hash/lsh.h"

#include <algorithm>
#include <cmath>

#include "common/bit_utils.h"
#include "common/logging.h"

namespace p2prange {

Result<LshScheme> LshScheme::Make(const LshParams& params) {
  if (params.k < 1) {
    return Status::InvalidArgument("LSH k must be >= 1, got " +
                                   std::to_string(params.k));
  }
  if (params.l < 1) {
    return Status::InvalidArgument("LSH l must be >= 1, got " +
                                   std::to_string(params.l));
  }
  if (params.family == HashFamilyType::kLinear) {
    // A composite modulus silently makes the linear permutations
    // non-bijective (multiples of a shared factor collapse), which
    // skews the Figure 7 match-quality comparison.
    if (!IsPrime(params.linear_prime)) {
      return Status::InvalidArgument(
          "linear_prime must be prime, got " +
          std::to_string(params.linear_prime) + " (next prime is " +
          std::to_string(NextPrimeAtLeast(
              params.linear_prime < 2 ? 2 : params.linear_prime)) +
          ")");
    }
    if (params.linear_prime > LinearHashFunction::kPrime) {
      return Status::InvalidArgument(
          "linear_prime " + std::to_string(params.linear_prime) +
          " exceeds the largest 32-bit prime " +
          std::to_string(LinearHashFunction::kPrime));
    }
  }
  Rng rng(params.seed);
  std::vector<std::unique_ptr<RangeHashFunction>> fns;
  fns.reserve(static_cast<size_t>(params.l) * params.k);
  for (int g = 0; g < params.l; ++g) {
    for (int i = 0; i < params.k; ++i) {
      fns.push_back(MakeHashFunction(params.family, rng, params.pre_xor_mask,
                                     params.linear_prime));
    }
  }
  std::vector<PermutedLaneBlock> lanes;
  if (params.family != HashFamilyType::kLinear) {
    constexpr int kLanes = PermutedLaneBlock::kLanes;
    lanes.resize((fns.size() + kLanes - 1) / kLanes);
    for (size_t f = 0; f < fns.size(); ++f) {
      const BitPermutation& perm =
          params.family == HashFamilyType::kMinwise
              ? static_cast<const MinwiseHashFunction&>(*fns[f]).permutation()
              : static_cast<const ApproxMinwiseHashFunction&>(*fns[f])
                    .permutation();
      // Permute(x) = P(x) ^ Permute(0): P fixes 0, so Permute(0) is
      // the output XOR.
      lanes[f / kLanes].Set(static_cast<int>(f % kLanes), perm,
                            fns[f]->Permute(0));
    }
  }
  return LshScheme(params, std::move(fns), std::move(lanes));
}

uint32_t LshScheme::GroupIdentifier(int g, const Range& q) const {
  DCHECK_GE(g, 0);
  DCHECK_LT(g, params_.l);
  uint32_t id = 0;
  const size_t base = static_cast<size_t>(g) * params_.k;
  for (int i = 0; i < params_.k; ++i) {
    id ^= fns_[base + i]->HashRange(q);
  }
  // Spread the bucket signature uniformly over the ring (see Mix32's
  // comment). Identifier equality is exactly signature equality.
  return bits::Mix32(id);
}

void LshScheme::IdentifiersInto(const Range& q,
                                std::vector<uint32_t>* out) const {
  out->assign(static_cast<size_t>(params_.l), 0);
  const size_t k = static_cast<size_t>(params_.k);
  if (lanes_.empty()) {
    for (size_t f = 0; f < fns_.size(); ++f) {
      (*out)[f / k] ^= fns_[f]->HashRange(q);
    }
  } else {
    std::array<uint32_t, PermutedLaneBlock::kLanes> mins;
    for (size_t b = 0; b < lanes_.size(); ++b) {
      MinPermutedOverRangeLanes(lanes_[b], q, &mins);
      const size_t first = b * mins.size();
      const size_t count = std::min(mins.size(), fns_.size() - first);
      for (size_t i = 0; i < count; ++i) (*out)[(first + i) / k] ^= mins[i];
    }
  }
  for (uint32_t& id : *out) id = bits::Mix32(id);
}

double LshScheme::CollisionProbability(double sim, int k, int l) {
  DCHECK_GE(sim, 0.0);
  DCHECK_LE(sim, 1.0);
  return 1.0 - std::pow(1.0 - std::pow(sim, k), l);
}

}  // namespace p2prange
