#include "sim/engine/copy_arena.h"

namespace p2prange {
namespace sim {

CopyArena::CopyArena(int replication)
    : replication_(static_cast<size_t>(replication)) {
  CHECK_GE(replication, 1);
}

void CopyArena::AddRow() {
  spans_.emplace_back(Allocate(0), 0, 0);
}

void CopyArena::Store(uint32_t row, const StoredDesc& copy) {
  Span& span = spans_[row];
  const int size_class = span.size_class();
  const uint32_t size = span.size();
  StoredDesc* const first = Block(size_class, span.block);
  StoredDesc* const last = first + size;
  StoredDesc* at = RunStart(first, last, copy.home);
  for (; at != last && at->home == copy.home; ++at) {
    if (at->lo == copy.lo && at->hi == copy.hi) {
      *at = copy;
      return;
    }
  }
  // `at` ends the home's run: the new copy goes there.
  DCHECK(at == last || at->home > copy.home)
      << "row " << row << " out of order";
  if (size < BlockCopies(size_class)) {
    std::copy_backward(at, last, last + 1);
    *at = copy;
    span = Span(span.block, size + 1, size_class);
    return;
  }
  // Full: move to a block of the next class. Pages never move, so
  // `first` stays valid while Allocate adds one.
  const uint32_t grown = Allocate(size_class + 1);
  StoredDesc* const to = Block(size_class + 1, grown);
  StoredDesc* const gap = std::copy(first, at, to);
  *gap = copy;
  std::copy(at, last, gap + 1);
  Release(size_class, span.block);
  span = Span(grown, size + 1, size_class + 1);
}

uint32_t CopyArena::Allocate(int size_class) {
  DCHECK_LE(size_class, static_cast<int>(kClassMask));
  if (classes_.size() <= static_cast<size_t>(size_class)) {
    classes_.resize(static_cast<size_t>(size_class) + 1);
  }
  SizeClass& pool = classes_[size_class];
  if (pool.free_head != kNoBlock) {
    const uint32_t block = pool.free_head;
    pool.free_head = Block(size_class, block)->lo;
    return block;
  }
  const int per_page_log2 = BlocksPerPageLog2(size_class);
  if ((pool.carved & ((uint32_t{1} << per_page_log2) - 1)) == 0) {
    pool.pages.push_back(std::make_unique<StoredDesc[]>(
        BlockCopies(size_class) << per_page_log2));
  }
  return pool.carved++;
}

void CopyArena::Release(int size_class, uint32_t block) {
  SizeClass& pool = classes_[size_class];
  Block(size_class, block)->lo = pool.free_head;
  pool.free_head = block;
}

uint64_t CopyArena::MemoryBytes() const {
  uint64_t bytes = spans_.capacity() * sizeof(Span) +
                   classes_.capacity() * sizeof(SizeClass);
  for (size_t c = 0; c < classes_.size(); ++c) {
    const SizeClass& pool = classes_[c];
    const int size_class = static_cast<int>(c);
    bytes += pool.pages.capacity() * sizeof(pool.pages[0]) +
             pool.pages.size() * sizeof(StoredDesc) *
                 (BlockCopies(size_class) << BlocksPerPageLog2(size_class));
  }
  return bytes;
}

size_t CopyArena::blocks_carved(int size_class) const {
  return static_cast<size_t>(size_class) < classes_.size()
             ? classes_[size_class].carved
             : 0;
}

}  // namespace sim
}  // namespace p2prange
