#include "hash/range.h"

#include <algorithm>

namespace p2prange {

std::optional<Range> Range::Intersection(const Range& other) const {
  const uint32_t lo = std::max(lo_, other.lo_);
  const uint32_t hi = std::min(hi_, other.hi_);
  if (lo > hi) return std::nullopt;
  return Range(lo, hi);
}

Range Range::Padded(double fraction, uint32_t domain_lo, uint32_t domain_hi) const {
  DCHECK_GE(fraction, 0.0);
  DCHECK_LE(domain_lo, domain_hi);
  // A pad of 2^32 already saturates both edges for any bounds, so
  // clamping to it changes no result and keeps the cast below defined
  // (and the sums below from wrapping) for every finite fraction.
  constexpr double kSaturatingPad = 4294967296.0;
  const uint64_t pad = static_cast<uint64_t>(
      std::min(fraction * static_cast<double>(size()), kSaturatingPad));
  uint32_t lo = lo_;
  uint32_t hi = hi_;
  // Widen, saturating at the attribute-domain bounds.
  lo = (static_cast<uint64_t>(lo) >= static_cast<uint64_t>(domain_lo) + pad)
           ? static_cast<uint32_t>(lo - pad)
           : domain_lo;
  hi = (static_cast<uint64_t>(hi) + pad <= domain_hi)
           ? static_cast<uint32_t>(hi + pad)
           : domain_hi;
  return Range(lo, hi);
}

std::string Range::ToString() const {
  return "[" + std::to_string(lo_) + ", " + std::to_string(hi_) + "]";
}

}  // namespace p2prange
