// Integer range sets and the similarity measures of the paper (§3.2).
//
// A selection predicate `lo <= attr <= hi` over an ordered attribute
// domain defines the set {lo, lo+1, ..., hi}. Because ranges are
// contiguous, Jaccard / containment / recall reduce to closed-form
// interval arithmetic — but the semantics are set semantics throughout.
#ifndef P2PRANGE_HASH_RANGE_H_
#define P2PRANGE_HASH_RANGE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>

#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"

namespace p2prange {

/// \brief A non-empty inclusive integer range [lo, hi] over a 32-bit
/// ordered domain — the paper's "range set" for one selection.
class Range {
 public:
  /// Default: the singleton range [0, 0].
  Range() : lo_(0), hi_(0) {}

  /// Requires lo <= hi (checked in debug builds). Use Make() to
  /// validate untrusted input.
  Range(uint32_t lo, uint32_t hi) : lo_(lo), hi_(hi) { DCHECK_LE(lo, hi); }

  /// Validating factory.
  static Result<Range> Make(uint32_t lo, uint32_t hi) {
    if (lo > hi) {
      return Status::InvalidArgument("range lo " + std::to_string(lo) +
                                     " exceeds hi " + std::to_string(hi));
    }
    return Range(lo, hi);
  }

  uint32_t lo() const { return lo_; }
  uint32_t hi() const { return hi_; }

  /// Number of elements; up to 2^32 hence 64-bit.
  uint64_t size() const { return static_cast<uint64_t>(hi_) - lo_ + 1; }

  bool Contains(uint32_t x) const { return lo_ <= x && x <= hi_; }
  bool Contains(const Range& other) const {
    return lo_ <= other.lo_ && other.hi_ <= hi_;
  }
  bool Overlaps(const Range& other) const {
    return lo_ <= other.hi_ && other.lo_ <= hi_;
  }

  /// |this ∩ other| as a count of elements.
  uint64_t IntersectionSize(const Range& other) const {
    const uint32_t lo = std::max(lo_, other.lo_);
    const uint32_t hi = std::min(hi_, other.hi_);
    if (lo > hi) return 0;
    return static_cast<uint64_t>(hi) - lo + 1;
  }

  /// |this ∪ other| as a count of elements (the sets may be disjoint;
  /// this is set union, not interval hull).
  uint64_t UnionSize(const Range& other) const {
    return size() + other.size() - IntersectionSize(other);
  }

  /// The overlapping sub-range, if any.
  std::optional<Range> Intersection(const Range& other) const;

  /// \brief Jaccard set similarity |Q∩R| / |Q∪R| — the measure the LSH
  /// families are built on (§3.2). In [0, 1]; 1 iff identical.
  double Jaccard(const Range& other) const {
    const uint64_t inter = IntersectionSize(other);
    if (inter == 0) return 0.0;
    return static_cast<double>(inter) / static_cast<double>(UnionSize(other));
  }

  /// \brief Containment similarity |Q∩R| / |Q| where Q == *this — the
  /// fraction of this range covered by `other`. Not symmetric; does not
  /// admit an LSH family (no triangle inequality), but is the better
  /// best-match criterion inside a bucket (§5.2, Figure 9).
  double ContainmentIn(const Range& other) const {
    return static_cast<double>(IntersectionSize(other)) /
           static_cast<double>(size());
  }

  /// \brief Recall of answering query `*this` from cached range
  /// `other`: identical to ContainmentIn, named for the §5.2 metric.
  double RecallFrom(const Range& other) const { return ContainmentIn(other); }

  /// \brief The §5.2 padded query: each edge extended by
  /// `fraction * size()` (rounded down), clamped to the domain
  /// [domain_lo, domain_hi].
  Range Padded(double fraction, uint32_t domain_lo, uint32_t domain_hi) const;

  bool operator==(const Range& other) const = default;

  /// "[lo, hi]"
  std::string ToString() const;

 private:
  uint32_t lo_;
  uint32_t hi_;
};

}  // namespace p2prange

#endif  // P2PRANGE_HASH_RANGE_H_
