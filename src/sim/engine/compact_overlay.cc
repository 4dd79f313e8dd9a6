#include "sim/engine/compact_overlay.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "can/zone.h"
#include "common/logging.h"
#include "tapestry/tapestry.h"

namespace p2prange {
namespace sim {

// ---------------------------------------------------------------- AliveIndex

namespace {

/// Bit position of the r-th (0-based) set bit of `word`; requires
/// popcount(word) > r. Halves the search window six times.
uint32_t SelectInWord(uint64_t word, size_t r) {
  uint32_t pos = 0;
  for (int half = 32; half > 0; half >>= 1) {
    const size_t low = static_cast<size_t>(
        std::popcount(word & ((uint64_t{1} << half) - 1)));
    if (r >= low) {
      r -= low;
      word >>= half;
      pos += static_cast<uint32_t>(half);
    }
  }
  return pos;
}

}  // namespace

AliveIndex::AliveIndex(size_t n)
    : words_((n + 63) / 64, ~uint64_t{0}),
      tree_(words_.size() + 1, 0),
      size_(n),
      num_alive_(n) {
  if (n % 64 != 0) words_.back() = (uint64_t{1} << (n % 64)) - 1;
  // Build the Fenwick tree for the all-alive state in O(n / 64).
  for (size_t i = 1; i < tree_.size(); ++i) {
    tree_[i] += static_cast<uint32_t>(std::popcount(words_[i - 1]));
    const size_t parent = i + (i & (~i + 1));
    if (parent < tree_.size()) tree_[parent] += tree_[i];
  }
}

void AliveIndex::Set(uint32_t slot, bool alive) {
  uint64_t& word = words_[slot >> 6];
  const uint64_t bit = uint64_t{1} << (slot & 63);
  if (((word & bit) != 0) == alive) return;
  word ^= bit;
  const int delta = alive ? 1 : -1;
  num_alive_ += delta;
  for (size_t i = (slot >> 6) + 1; i < tree_.size(); i += i & (~i + 1)) {
    tree_[i] = static_cast<uint32_t>(static_cast<int64_t>(tree_[i]) + delta);
  }
}

size_t AliveIndex::CountBefore(uint32_t end) const {
  DCHECK_LE(end, size_);
  const size_t w = end >> 6;
  size_t sum = 0;
  for (size_t i = w; i > 0; i -= i & (~i + 1)) sum += tree_[i];
  if ((end & 63) != 0) {
    sum += static_cast<size_t>(
        std::popcount(words_[w] & ((uint64_t{1} << (end & 63)) - 1)));
  }
  return sum;
}

size_t AliveIndex::CountIn(uint32_t begin, uint32_t end) const {
  return begin >= end ? 0 : CountBefore(end) - CountBefore(begin);
}

uint32_t AliveIndex::NextAliveWrapping(uint32_t slot) const {
  DCHECK_GT(num_alive_, 0u);
  DCHECK_LT(slot, size_);
  // Common case: a live slot later in the same word, or anywhere in
  // the next one (word 0 after the last: the wrap).
  const size_t w = slot >> 6;
  const uint64_t here = words_[w] & (~uint64_t{0} << (slot & 63));
  if (here != 0) {
    return static_cast<uint32_t>((w << 6) + std::countr_zero(here));
  }
  const size_t next = w + 1 < words_.size() ? w + 1 : 0;
  if (words_[next] != 0) {
    return static_cast<uint32_t>((next << 6) + std::countr_zero(words_[next]));
  }
  // `before` alive slots precede `slot`; the next alive slot is the
  // (before)-th overall unless we ran off the end — then wrap.
  const size_t before = CountBefore(slot);
  return SelectAlive(before < num_alive_ ? before : 0);
}

uint32_t AliveIndex::SelectAlive(size_t k) const {
  DCHECK_LT(k, num_alive_);
  // Fenwick binary lifting over words: the longest word prefix holding
  // at most k alive slots; the answer is inside the word after it.
  size_t pos = 0;
  size_t remaining = k + 1;
  size_t mask = size_t{1} << (63 - __builtin_clzll((tree_.size() - 1) | 1));
  for (; mask > 0; mask >>= 1) {
    const size_t next = pos + mask;
    if (next < tree_.size() && tree_[next] < remaining) {
      pos = next;
      remaining -= tree_[next];
    }
  }
  return static_cast<uint32_t>(pos << 6) +
         SelectInWord(words_[pos], remaining - 1);
}

// ------------------------------------------------------------ CompactOverlay

CompactOverlay::CompactOverlay(std::vector<uint32_t> ids)
    : ids_(std::move(ids)), alive_(ids_.size()) {
  DCHECK(!ids_.empty());
  // One pass over the sorted ids fills every bucket's first rank.
  const int bits = static_cast<int>(std::bit_width(ids_.size())) - 1;
  dir_shift_ = 32 - bits;
  rank_dir_.resize(size_t{1} << bits);
  size_t r = 0;
  for (size_t b = 0; b < rank_dir_.size(); ++b) {
    while (r < ids_.size() && (uint64_t{ids_[r]} >> dir_shift_) < b) ++r;
    rank_dir_[b] = static_cast<uint32_t>(r);
  }
}

uint32_t CompactOverlay::RankOfId(uint32_t id) const {
  size_t r = rank_dir_[uint64_t{id} >> dir_shift_];
  while (r < ids_.size() && ids_[r] < id) ++r;
  return static_cast<uint32_t>(r);
}

uint32_t CompactOverlay::AliveSuccessorOfId(uint32_t id) const {
  const uint32_t rank = RankOfId(id);
  return alive_.NextAliveWrapping(rank == ids_.size() ? 0 : rank);
}

uint32_t CompactOverlay::ReplicaSlot(uint32_t owner, int k) const {
  uint32_t slot = owner;
  for (int i = 0; i < k; ++i) {
    slot = alive_.NextAliveWrapping(slot + 1 < ids_.size() ? slot + 1 : 0);
  }
  return slot;
}

uint32_t CompactOverlay::RandomAliveSlot(Rng& rng) const {
  return alive_.SelectAlive(
      static_cast<size_t>(rng.NextBounded(alive_.num_alive())));
}

namespace {

// ------------------------------------------------------------- CompactChord

/// Chord: the owner of an identifier is its alive successor on the
/// ring; routing performs greedy power-of-two finger descent, each hop
/// landing on the alive successor of cur + 2^k without passing the
/// target — the same rule ChordRing's finger tables implement.
class CompactChord final : public CompactOverlay {
 public:
  explicit CompactChord(std::vector<uint32_t> ids)
      : CompactOverlay(std::move(ids)) {}

  overlay::Kind kind() const override { return overlay::Kind::kChord; }

  uint32_t Owner(uint32_t id) const override { return AliveSuccessorOfId(id); }

  uint32_t Route(uint32_t origin, uint32_t id, int* hops) const override {
    const uint32_t owner = Owner(id);
    uint32_t cur = origin;
    // 2 * 32 fingers bounds any descent; the fallback successor step
    // always advances, so this is belt-and-braces, not control flow.
    for (int budget = 0; cur != owner && budget < 64; ++budget) {
      const uint32_t cur_id = ids_[cur];
      const uint32_t dist = id - cur_id;  // forward ring distance
      uint32_t chosen = owner;
      // Fingers above dist's top bit overshoot the target: skip them.
      for (int k = static_cast<int>(std::bit_width(dist)) - 1; k >= 0; --k) {
        const uint32_t finger = uint32_t{1} << k;
        const uint32_t f = AliveSuccessorOfId(cur_id + finger);
        const uint32_t step = ids_[f] - cur_id;
        if (step != 0 && step <= dist) {
          chosen = f;
          break;
        }
        // The first alive node past this finger overshoots the target:
        // it is the target's successor, i.e. the owner itself.
      }
      cur = chosen;
      ++*hops;
    }
    return owner;
  }
};

// --------------------------------------------------------------- CompactCan

/// CAN: the d-torus is modeled as a side^d grid of equal zones, cell
/// (row-major) i owned by slot i. Identifier points map to cells by
/// coordinate scaling; routing walks the torus greedily so the hop
/// count is the toroidal Manhattan distance (the d/4 * n^(1/d) law),
/// plus one hop per dead cell passed over (neighbor takeover).
class CompactCan final : public CompactOverlay {
 public:
  CompactCan(std::vector<uint32_t> ids, int dims)
      : CompactOverlay(std::move(ids)), dims_(dims) {
    side_ = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               std::floor(std::pow(static_cast<double>(ids_.size()),
                                   1.0 / static_cast<double>(dims)))));
    while (CellCount(side_ + 1) <= ids_.size()) ++side_;
    while (side_ > 1 && CellCount(side_) > ids_.size()) --side_;
    num_cells_ = CellCount(side_);
  }

  overlay::Kind kind() const override { return overlay::Kind::kCan; }

  uint32_t Owner(uint32_t id) const override {
    int ignored = 0;
    return OwnerWithProbes(id, &ignored);
  }

  uint32_t Route(uint32_t origin, uint32_t id, int* hops) const override {
    int probes = 0;
    const uint32_t owner = OwnerWithProbes(id, &probes);
    uint64_t from[can::kMaxDims];
    uint64_t to[can::kMaxDims];
    CellCoords(origin % num_cells_, from);
    CellCoords(owner % num_cells_, to);
    int manhattan = 0;
    for (int k = 0; k < dims_; ++k) {
      const uint64_t d =
          from[k] > to[k] ? from[k] - to[k] : to[k] - from[k];
      manhattan += static_cast<int>(std::min(d, side_ - d));
    }
    *hops += manhattan + probes;
    return owner;
  }

 private:
  uint64_t CellCount(uint64_t side) const {
    uint64_t cells = 1;
    for (int k = 0; k < dims_; ++k) {
      if (cells > (uint64_t{1} << 62) / side) return uint64_t{1} << 62;
      cells *= side;
    }
    return cells;
  }

  void CellCoords(uint64_t cell, uint64_t (&out)[can::kMaxDims]) const {
    for (int k = 0; k < dims_; ++k) {
      out[k] = cell % side_;
      cell /= side_;
    }
  }

  uint32_t OwnerWithProbes(uint32_t id, int* probes) const {
    const can::Point p = can::IdentifierToPoint(id, dims_);
    uint64_t cell = 0;
    for (int k = dims_ - 1; k >= 0; --k) {
      const uint64_t coord =
          (static_cast<uint64_t>(p.coords[static_cast<size_t>(k)]) * side_) >>
          32;
      cell = cell * side_ + coord;
    }
    // Dead cell: the next live cell in row-major order has taken the
    // zone over (each skip costs the router one forwarding probe).
    uint32_t slot = static_cast<uint32_t>(cell);
    for (uint64_t tried = 0; tried < num_cells_ && !IsAlive(slot); ++tried) {
      slot = static_cast<uint32_t>((slot + 1) % num_cells_);
      ++*probes;
    }
    // Every cell owner is down (possible only when the alive peers all
    // sit in the slack slots beyond the grid): any live peer serves.
    if (!IsAlive(slot)) slot = alive_.NextAliveWrapping(slot);
    return slot;
  }

  int dims_;
  uint64_t side_ = 1;
  uint64_t num_cells_ = 1;
};

// ---------------------------------------------------------- CompactTapestry

/// Tapestry: surrogate routing resolves one hex digit per hop. Because
/// a digit prefix is a contiguous span of the sorted identifier array,
/// the global-mesh descent (cyclic successor among digits present at
/// each level, exactly TapestryOverlay::OwnerOracle's rule) runs as a
/// cascade of rank lookups plus alive-counts.
class CompactTapestry final : public CompactOverlay {
 public:
  explicit CompactTapestry(std::vector<uint32_t> ids)
      : CompactOverlay(std::move(ids)) {}

  overlay::Kind kind() const override { return overlay::Kind::kTapestry; }

  uint32_t Owner(uint32_t id) const override {
    int ignored = 0;
    return OwnerWithLevels(id, &ignored);
  }

  uint32_t Route(uint32_t origin, uint32_t id, int* hops) const override {
    int levels = 0;
    const uint32_t owner = OwnerWithLevels(id, &levels);
    if (owner == origin) return owner;
    // The route leaves the origin's own table at the first digit it
    // does not share with the owner; one hop resolves each remaining
    // level of the descent.
    const int shared = tapestry::SharedPrefixLen(ids_[origin], ids_[owner]);
    *hops += std::max(1, levels - shared);
    return owner;
  }

 private:
  uint32_t OwnerWithLevels(uint32_t id, int* levels) const {
    size_t lo = 0;
    size_t hi = ids_.size();
    uint32_t prefix = 0;
    for (int level = 0; level < tapestry::kDigits; ++level) {
      if (alive_.CountIn(static_cast<uint32_t>(lo), static_cast<uint32_t>(hi)) ==
          1) {
        break;
      }
      const int shift = 4 * (tapestry::kDigits - 1 - level);
      const int desired = tapestry::Digit(id, level);
      for (int k = 0; k < tapestry::kBase; ++k) {
        const int d = (desired + k) % tapestry::kBase;
        const uint64_t base =
            prefix | (static_cast<uint64_t>(d) << shift);
        const uint64_t end = base + (uint64_t{1} << shift);
        const size_t b = RankOf(base, lo, hi);
        const size_t e = end > 0xFFFFFFFFull ? hi : RankOf(end, lo, hi);
        if (alive_.CountIn(static_cast<uint32_t>(b),
                           static_cast<uint32_t>(e)) > 0) {
          lo = b;
          hi = e;
          prefix = static_cast<uint32_t>(base);
          break;
        }
      }
      *levels = level + 1;
    }
    // First alive slot inside the final prefix span.
    return alive_.SelectAlive(alive_.CountBefore(static_cast<uint32_t>(lo)));
  }

  // Lower bound of `value` within ranks [lo, hi].
  size_t RankOf(uint64_t value, size_t lo, size_t hi) const {
    return std::clamp<size_t>(RankOfId(static_cast<uint32_t>(value)), lo, hi);
  }
};

}  // namespace

Result<std::unique_ptr<CompactOverlay>> MakeCompactOverlay(
    overlay::Kind kind, size_t num_peers, uint64_t seed, int can_dims) {
  if (num_peers == 0) {
    return Status::InvalidArgument("compact overlay needs at least one peer");
  }
  if (can_dims < 1 || can_dims > can::kMaxDims) {
    return Status::InvalidArgument("can_dims out of range");
  }
  // One identifier set per seed, shared by every substrate so the
  // scenario matrix compares routing, not id luck.
  Rng rng(seed ^ 0xC0FFEE123ULL);
  std::vector<uint32_t> ids;
  ids.reserve(num_peers);
  while (ids.size() < num_peers) {
    const size_t missing = num_peers - ids.size();
    for (size_t i = 0; i < missing; ++i) ids.push_back(rng.Next32());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  std::unique_ptr<CompactOverlay> out;
  switch (kind) {
    case overlay::Kind::kChord:
      out = std::make_unique<CompactChord>(std::move(ids));
      break;
    case overlay::Kind::kCan:
      out = std::make_unique<CompactCan>(std::move(ids), can_dims);
      break;
    case overlay::Kind::kTapestry:
      out = std::make_unique<CompactTapestry>(std::move(ids));
      break;
  }
  if (out == nullptr) return Status::InvalidArgument("unknown overlay kind");
  return out;
}

}  // namespace sim
}  // namespace p2prange
