// Pooled, home-grouped storage of the scenario engine's descriptor
// copies.
//
// The engine keeps one row of replicated descriptor copies per bucket
// identifier ever published under. A heap vector per row would cost a
// 24-byte header, a separately allocated block and a dependent load
// before its copies could be fetched. Here a row is an 8-byte span
// {block, size, size class} into pages that never move. A block of
// class c holds replication << c copies. Every page holds
// 2^kPageLog2 class-0 blocks' worth of copies (15,360 bytes at
// replication 3), so pages are the same size in bytes for every class
// and a small scenario pays for at most one partly used page per class;
// a block bigger than a page gets a page of its own. A row that
// outgrows its block moves to a block of the next class, and the old
// block goes on its class's free list, which is drawn from before a new
// block is carved.
//
// Each row's copies stay sorted by home, the peer slot that stores
// them: a probe binary-searches the probed owner's run and reads only
// the copies that owner holds, a store refreshes or inserts inside its
// home's run, and an eviction closes the gap.
#ifndef P2PRANGE_SIM_ENGINE_COPY_ARENA_H_
#define P2PRANGE_SIM_ENGINE_COPY_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/logging.h"

namespace p2prange {
namespace sim {

/// \brief One replicated descriptor copy: the published range, who
/// holds the data, and where/when this copy was stored (epoch-stamped
/// so a crash invalidates resident copies without an eager sweep).
struct StoredDesc {
  uint32_t lo = 0;
  uint32_t hi = 0;
  uint32_t holder = 0;      ///< peer slot holding the materialized data
  uint32_t home = 0;        ///< peer slot storing this copy
  uint16_t home_epoch = 0;  ///< crash epoch of `home` at store time
};
static_assert(sizeof(StoredDesc) == 20, "descriptor copies must stay packed");

/// \brief Rows of descriptor copies, numbered 0, 1, 2, ... in the
/// order they are added, each sorted by home, in size-classed blocks
/// carved from pooled pages.
class CopyArena {
 public:
  /// A page holds 2^kPageLog2 class-0 blocks' worth of copies:
  /// 2^(kPageLog2 - c) blocks of class c, or one block past that.
  static constexpr int kPageLog2 = 8;

  /// Rows whose smallest block holds `replication` copies.
  explicit CopyArena(int replication);

  /// Adds an empty row, numbered num_rows() before the call.
  void AddRow();
  size_t num_rows() const { return spans_.size(); }

  /// Row `row`'s copies, sorted by home.
  std::span<const StoredDesc> Copies(uint32_t row) const {
    const Span span = spans_[row];
    return {Block(span.size_class(), span.block), span.size()};
  }

  /// Stores `copy` in `row`: overwrites the copy of the same range at
  /// the same home if there is one, else adds it to its home's run.
  void Store(uint32_t row, const StoredDesc& copy);

  /// Calls evict(copy) on each copy of `row` stored at `home`, in
  /// order, erases every copy it returned true for, and returns how
  /// many it erased.
  template <typename Evict>
  size_t ScanHome(uint32_t row, uint32_t home, Evict evict);

  /// Starts loading `row`'s span, ahead of a Prefetch.
  void PrefetchSpan(uint32_t row) const { __builtin_prefetch(&spans_[row]); }

  /// Starts loading every cache line that holds `row`'s copies, ahead
  /// of a ScanHome or Store: a 60-byte class-0 block usually straddles
  /// two lines. A row longer than kPrefetchLines lines is read by a
  /// binary search that lands elsewhere, so only its first lines load.
  void Prefetch(uint32_t row) const {
    constexpr uintptr_t kLine = 64;
    const Span span = spans_[row];
    const auto first = reinterpret_cast<uintptr_t>(
        Block(span.size_class(), span.block));
    const uintptr_t end =
        first + std::max<uintptr_t>(span.size(), 1) * sizeof(StoredDesc);
    const uintptr_t stop = std::min(end, (first & ~(kLine - 1)) +
                                             kPrefetchLines * kLine);
    for (uintptr_t line = first & ~(kLine - 1); line < stop; line += kLine) {
      __builtin_prefetch(reinterpret_cast<const void*>(line));
    }
  }

  /// Resident bytes: every page, the span table and the page tables.
  uint64_t MemoryBytes() const;

  /// Blocks of `size_class` carved from pages so far, in use or free.
  size_t blocks_carved(int size_class) const;

 private:
  /// Most cache lines one Prefetch loads: a class-1 block (120 bytes
  /// at replication 3) at any alignment.
  static constexpr uintptr_t kPrefetchLines = 3;
  static constexpr int kClassBits = 5;
  static constexpr uint32_t kClassMask = (1u << kClassBits) - 1;
  static constexpr uint32_t kNoBlock = ~uint32_t{0};

  /// A row: `size` copies at the front of block `block` of its class.
  struct Span {
    uint32_t block;
    uint32_t size_and_class;  ///< size << kClassBits | size class

    Span(uint32_t block_number, uint32_t size, int size_class)
        : block(block_number),
          size_and_class(size << kClassBits |
                         static_cast<uint32_t>(size_class)) {
      DCHECK_EQ(size >> (32 - kClassBits), 0u) << "row of " << size;
    }
    uint32_t size() const { return size_and_class >> kClassBits; }
    int size_class() const {
      return static_cast<int>(size_and_class & kClassMask);
    }
  };
  static_assert(sizeof(Span) == 8, "row spans must stay packed");

  /// The pages and free blocks of one size class. A free block's first
  /// copy holds, in `lo`, the number of the next free block.
  struct SizeClass {
    std::vector<std::unique_ptr<StoredDesc[]>> pages;
    uint32_t carved = 0;
    uint32_t free_head = kNoBlock;
  };

  static int BlocksPerPageLog2(int size_class) {
    return std::max(0, kPageLog2 - size_class);
  }
  size_t BlockCopies(int size_class) const {
    return replication_ << size_class;
  }
  StoredDesc* Block(int size_class, uint32_t block) const {
    const int per_page_log2 = BlocksPerPageLog2(size_class);
    const size_t in_page = block & ((uint32_t{1} << per_page_log2) - 1);
    return classes_[size_class].pages[block >> per_page_log2].get() +
           in_page * BlockCopies(size_class);
  }
  /// The first copy in [first, last) whose home is not below `home`:
  /// where `home`'s run starts.
  static StoredDesc* RunStart(StoredDesc* first, StoredDesc* last,
                              uint32_t home) {
    return std::lower_bound(
        first, last, home,
        [](const StoredDesc& d, uint32_t h) { return d.home < h; });
  }
  /// A free block of `size_class`, carving a new one (and a new page
  /// when the last is full) only when the free list is empty.
  uint32_t Allocate(int size_class);
  void Release(int size_class, uint32_t block);

  size_t replication_;
  std::vector<Span> spans_;
  std::vector<SizeClass> classes_;
};

template <typename Evict>
size_t CopyArena::ScanHome(uint32_t row, uint32_t home, Evict evict) {
  Span& span = spans_[row];
  StoredDesc* const first = Block(span.size_class(), span.block);
  StoredDesc* const last = first + span.size();
  StoredDesc* kept = RunStart(first, last, home);
  StoredDesc* it = kept;
  for (; it != last && it->home == home; ++it) {
    if (!evict(*it)) *kept++ = *it;
  }
  DCHECK(it == last || it->home > home) << "row " << row << " out of order";
  const size_t erased = static_cast<size_t>(it - kept);
  if (erased > 0) {
    std::copy(it, last, kept);
    span = Span(span.block, span.size() - static_cast<uint32_t>(erased),
                span.size_class());
  }
  return erased;
}

}  // namespace sim
}  // namespace p2prange

#endif  // P2PRANGE_SIM_ENGINE_COPY_ARENA_H_
