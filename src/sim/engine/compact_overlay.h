// Memory-compact routing models for the scenario engine.
//
// The heavy overlays under src/chord, src/can, and src/tapestry carry
// per-node objects (finger tables, zone lists, routing meshes) that
// cost kilobytes per peer — fine at 10^3 peers, hopeless at 10^6. The
// engine instead routes over *compact* models: a single sorted array
// of peer identifiers (4 B/peer), a directory over its top ⌊log₂ n⌋
// identifier bits (2–4 B/peer), and a word-packed alive bitmap with a
// Fenwick tree over per-word counts (~0.2 B/peer) — about 7 bytes per
// peer in all — with each substrate's hop count derived from the
// structural rules of its heavy twin (Chord finger descent, CAN torus
// walks on a d-dimensional grid, Tapestry digit resolution). The rules
// are not identical: CompactChord::Route descends by fingers alone,
// while the heavy ring's ChordNode::ClosestPrecedingNode also scans the
// successor list, so the two can take different hop counts on the
// same ring. Peer "slots" are ranks in identifier order. A Chord hop
// costs one alive-successor lookup: the route finds the last alive
// peer at or before the target once, and that fixes which finger each
// hop takes.
//
// RouteAll routes a batch of (origin, identifier) pairs. CAN and
// Tapestry route them one after another. Chord has one descent, written
// once as a step over a small state record: finish a successor lookup,
// then pick the next finger. RouteAll keeps up to 16 descents in
// flight and steps them round-robin in the style of AMAC (Kocberber et
// al., Asynchronous Memory Access Chaining): each step prefetches the
// directory entry or identifier line its descent reads next, and the
// other descents' steps run while it loads. Route runs the same steps
// for one pair, back to back. Routing reads only liveness, so a batch
// returns the owners and hop counts the pairs would get one at a time.
#ifndef P2PRANGE_SIM_ENGINE_COMPACT_OVERLAY_H_
#define P2PRANGE_SIM_ENGINE_COMPACT_OVERLAY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "overlay/overlay.h"

namespace p2prange {
namespace sim {

/// \brief Alive-set index: one bit per slot in 64-bit words plus a
/// Fenwick tree over the per-word counts (n/8 + n/16 bytes, ≈19 KB at
/// 10^5 slots, so it stays cache-resident). "First alive slot >= r
/// (wrapping)" answers from r's word or the next one with one
/// count-trailing-zeros each, and "last alive slot <= r" from r's word
/// or the previous one; rank, select, and the rarer long skips run
/// over words in O(log(n/64)).
class AliveIndex {
 public:
  explicit AliveIndex(size_t n);

  void Set(uint32_t slot, bool alive);
  bool IsAlive(uint32_t slot) const {
    return ((words_[slot >> 6] >> (slot & 63)) & 1) != 0;
  }
  size_t num_alive() const { return num_alive_; }
  size_t size() const { return size_; }

  /// Alive slots in [0, end).
  size_t CountBefore(uint32_t end) const;
  /// Alive slots in [begin, end).
  size_t CountIn(uint32_t begin, uint32_t end) const;

  /// First alive slot >= `slot`, wrapping past the end. Requires
  /// slot < size() and num_alive() > 0.
  uint32_t NextAliveWrapping(uint32_t slot) const;

  /// Last alive slot <= `slot`, wrapping past the start. Requires
  /// slot < size() and num_alive() > 0.
  uint32_t PrevAliveWrapping(uint32_t slot) const;

  /// The k-th (0-based) alive slot overall. Requires k < num_alive().
  uint32_t SelectAlive(size_t k) const;

  uint64_t MemoryBytes() const {
    return words_.capacity() * sizeof(uint64_t) +
           tree_.capacity() * sizeof(uint32_t);
  }

 private:
  std::vector<uint64_t> words_;  ///< bit s % 64 of word s / 64 = slot s
  std::vector<uint32_t> tree_;   ///< Fenwick tree of word popcounts, 1-based
  size_t size_;
  size_t num_alive_;
};

/// \brief Substrate-shaped routing over the compact peer table.
///
/// All slot arguments are ranks in the engine's sorted identifier
/// order. Owner/Route require at least one alive peer; the engine
/// never fails its last peer. A route starts at an alive origin (the
/// engine draws it with RandomAliveSlot).
class CompactOverlay {
 public:
  virtual ~CompactOverlay() = default;

  CompactOverlay(const CompactOverlay&) = delete;
  CompactOverlay& operator=(const CompactOverlay&) = delete;

  virtual overlay::Kind kind() const = 0;

  /// Owner slot of identifier `id` among alive peers (the oracle).
  virtual uint32_t Owner(uint32_t id) const = 0;

  /// Routes from `origin` to `id`'s owner; adds the substrate's hop
  /// count for the path to *hops and returns the owner slot.
  virtual uint32_t Route(uint32_t origin, uint32_t id, int* hops) const = 0;

  /// Routes every pair i from origins[i] to ids[i]'s owner: owners[i]
  /// gets the owner slot and hops[i] the path's hop count, exactly what
  /// Route(origins[i], ids[i]) returns and adds. All four spans have
  /// one size. The pairs are independent, so an overlay may interleave
  /// them; this default routes them in order.
  virtual void RouteAll(std::span<const uint32_t> origins,
                        std::span<const uint32_t> ids,
                        std::span<uint32_t> owners,
                        std::span<int> hops) const;

  void SetAlive(uint32_t slot, bool alive) { alive_.Set(slot, alive); }
  bool IsAlive(uint32_t slot) const { return alive_.IsAlive(slot); }
  size_t num_alive() const { return alive_.num_alive(); }
  size_t num_peers() const { return ids_.size(); }
  uint32_t id_of(uint32_t slot) const { return ids_[slot]; }

  /// Successor-style replica slot `k` steps after `owner` in alive
  /// identifier order (the engine's uniform replica placement rule).
  uint32_t ReplicaSlot(uint32_t owner, int k) const;

  /// A uniformly random alive slot.
  uint32_t RandomAliveSlot(Rng& rng) const;

  /// Rank of the first identifier >= `id`, or num_peers() if none
  /// (std::lower_bound over the sorted identifiers, answered from the
  /// directory plus a branch-free count over the bucket's first ids).
  uint32_t RankOfId(uint32_t id) const { return RankFrom(DirEntry(id), id); }

  virtual uint64_t MemoryBytes() const {
    return (ids_.capacity() + rank_dir_.capacity()) * sizeof(uint32_t) +
           alive_.MemoryBytes();
  }

 protected:
  /// `ids` must be sorted strictly increasing; slot i owns ids[i].
  explicit CompactOverlay(std::vector<uint32_t> ids);

  /// Successor slot of `id` on the identifier ring, alive slots only.
  uint32_t AliveSuccessorOfId(uint32_t id) const {
    return AliveSuccessorOfRank(RankOfId(id));
  }
  /// The first alive slot at or after `rank` (a RankOfId), wrapping.
  uint32_t AliveSuccessorOfRank(uint32_t rank) const {
    return alive_.NextAliveWrapping(rank == ids_.size() ? 0 : rank);
  }

  /// The directory entry of `id`'s bucket: a lower bound on
  /// RankOfId(id), and the first load of a rank lookup (a batched route
  /// prefetches it).
  const uint32_t& DirEntry(uint32_t id) const {
    return rank_dir_[uint64_t{id} >> dir_shift_];
  }
  /// RankOfId(id), counting up from a lower bound `from` on it a group
  /// of kRankGroup ids at a time. The ids are sorted, so those below
  /// `id` in a group are a prefix, and their count places the rank
  /// without a data-dependent branch; the loop goes on only past a
  /// whole group below `id`, which a directory bucket (under two ids on
  /// average) seldom holds. The last ids, fewer than a group, are
  /// scanned one by one, so nothing past ids_ is read.
  uint32_t RankFrom(uint32_t from, uint32_t id) const {
    const size_t n = ids_.size();
    size_t r = from;
    for (; r + kRankGroup <= n; r += kRankGroup) {
      const uint32_t* group = ids_.data() + r;
      uint32_t below = 0;
      for (size_t j = 0; j < kRankGroup; ++j) below += group[j] < id;
      if (below < kRankGroup) return static_cast<uint32_t>(r + below);
    }
    while (r < n && ids_[r] < id) ++r;
    return static_cast<uint32_t>(r);
  }

  std::vector<uint32_t> ids_;
  AliveIndex alive_;

 private:
  /// Ids one RankFrom step compares.
  static constexpr size_t kRankGroup = 4;

  // rank_dir_[b] = RankOfId(b << dir_shift_): 2^⌊log₂ n⌋ buckets over
  // the top identifier bits, so a bucket holds under two ids on average.
  std::vector<uint32_t> rank_dir_;
  int dir_shift_ = 32;
};

/// \brief Factory: draws `num_peers` distinct identifiers from `seed`
/// and builds the `kind` model (CAN uses `can_dims` torus dimensions).
///
/// The identifiers are the sorted distinct values of the shortest
/// prefix of the seed's 32-bit draw stream that holds `num_peers`
/// distinct values (n draws, then as many more as there were
/// duplicates, repeated until n remain), so slot i owns the same id for
/// every substrate and however the draws are sorted. `num_peers` must
/// be in [1, 2^32 - 1], since slots and ranks are 32-bit; other counts
/// are InvalidArgument, refused before anything is allocated.
Result<std::unique_ptr<CompactOverlay>> MakeCompactOverlay(
    overlay::Kind kind, size_t num_peers, uint64_t seed, int can_dims);

}  // namespace sim
}  // namespace p2prange

#endif  // P2PRANGE_SIM_ENGINE_COMPACT_OVERLAY_H_
