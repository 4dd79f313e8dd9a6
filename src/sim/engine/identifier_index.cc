#include "sim/engine/identifier_index.h"

namespace p2prange {
namespace sim {

namespace {

/// Slots of an index that has not grown yet.
constexpr int kInitialLog2 = 4;

}  // namespace

IdentifierIndex::IdentifierIndex()
    : slots_(size_t{1} << kInitialLog2, 0),
      mask_(slots_.size() - 1),
      shift_(64 - kInitialLog2) {}

uint32_t IdentifierIndex::FindOrAdd(uint32_t id) {
  size_t pos = Home(id);
  for (;; pos = (pos + 1) & mask_) {
    const uint64_t slot = slots_[pos];
    if (slot == 0) break;
    if (static_cast<uint32_t>(slot) == id) {
      return static_cast<uint32_t>(slot >> 32) - 1;
    }
  }
  if ((size_ + 1) * 4 > slots_.size() * 3) {
    Grow();
    pos = Home(id);
    while (slots_[pos] != 0) pos = (pos + 1) & mask_;
  }
  const uint32_t row = static_cast<uint32_t>(size_++);
  slots_[pos] = ((uint64_t{row} + 1) << 32) | id;
  return row;
}

void IdentifierIndex::Grow() {
  std::vector<uint64_t> old(slots_.size() * 2, 0);
  old.swap(slots_);
  mask_ = slots_.size() - 1;
  --shift_;
  for (const uint64_t slot : old) {
    if (slot == 0) continue;
    size_t pos = Home(static_cast<uint32_t>(slot));
    while (slots_[pos] != 0) pos = (pos + 1) & mask_;
    slots_[pos] = slot;
  }
}

}  // namespace sim
}  // namespace p2prange
