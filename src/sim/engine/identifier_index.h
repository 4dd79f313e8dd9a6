// Flat identifier -> row index of the scenario engine's descriptor
// buckets.
//
// One engine query looks up its l bucket identifiers and, on a
// non-exact answer, adds the ones it has not seen before. A node-based
// hash map makes each lookup three dependent loads (bucket array, node,
// vector) and each new identifier a heap allocation. This index is a
// single open-addressing array instead: every position is one 8-byte
// slot holding (row + 1) << 32 | id, 0 meaning empty, so a lookup
// touches one cache line and a caller can prefetch it before routing.
// Rows are dense, numbered 0, 1, 2, ... in insertion order; the engine
// keeps its copies in the CopyArena row of the same number.
//
// The array is sized once, for the most identifiers the caller will
// add, and never grows: growing by doubling would re-insert every
// identifier at each of about log2(n) doublings and run the lookups
// between doublings at up to 3/4 load. The engine knows its bound
// before it runs: only a publish adds identifiers, at most l per query.
#ifndef P2PRANGE_SIM_ENGINE_IDENTIFIER_INDEX_H_
#define P2PRANGE_SIM_ENGINE_IDENTIFIER_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.h"

namespace p2prange {
namespace sim {

/// \brief Open-addressing map from a 32-bit identifier to a dense row
/// number: a fixed power-of-two slot array, Fibonacci-hashed home
/// position, linear probing, at most 3/4 full.
class IdentifierIndex {
 public:
  /// An index with room for `max_ids` identifiers: the smallest
  /// power-of-two slot array they fill at most 3/4.
  explicit IdentifierIndex(size_t max_ids = 0);

  /// Row of `id`, or nullopt if it was never added.
  std::optional<uint32_t> Find(uint32_t id) const {
    for (size_t pos = Home(id);; pos = (pos + 1) & mask_) {
      const uint64_t slot = slots_[pos];
      if (slot == 0) return std::nullopt;
      if (static_cast<uint32_t>(slot) == id) {
        return static_cast<uint32_t>(slot >> 32) - 1;
      }
    }
  }

  /// Row of `id`, adding it as row size() first if it is new.
  /// CHECK-fails on a new id once the index holds capacity() ids.
  uint32_t FindOrAdd(uint32_t id) {
    size_t pos = Home(id);
    for (;; pos = (pos + 1) & mask_) {
      const uint64_t slot = slots_[pos];
      if (slot == 0) break;
      if (static_cast<uint32_t>(slot) == id) {
        return static_cast<uint32_t>(slot >> 32) - 1;
      }
    }
    CHECK_LT(size_, max_ids_) << "identifier index full";
    const uint32_t row = static_cast<uint32_t>(size_++);
    slots_[pos] = ((uint64_t{row} + 1) << 32) | id;
    return row;
  }

  /// Starts loading `id`'s home slot, ahead of a Find or FindOrAdd.
  void Prefetch(uint32_t id) const { __builtin_prefetch(&slots_[Home(id)]); }

  /// Number of identifiers (and rows) added so far.
  size_t size() const { return size_; }
  /// Most identifiers the index takes.
  size_t capacity() const { return max_ids_; }

  uint64_t MemoryBytes() const { return slots_.capacity() * sizeof(uint64_t); }

 private:
  size_t Home(uint32_t id) const {
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  size_t max_ids_;
  std::vector<uint64_t> slots_;  ///< (row + 1) << 32 | id; 0 = empty
  size_t mask_ = 0;              ///< slots_.size() - 1
  int shift_ = 0;                ///< 64 - log2(slots_.size())
  size_t size_ = 0;
};

}  // namespace sim
}  // namespace p2prange

#endif  // P2PRANGE_SIM_ENGINE_IDENTIFIER_INDEX_H_
