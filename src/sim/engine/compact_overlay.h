// Memory-compact routing models for the scenario engine.
//
// The heavy overlays under src/chord, src/can, and src/tapestry carry
// per-node objects (finger tables, zone lists, routing meshes) that
// cost kilobytes per peer — fine at 10^3 peers, hopeless at 10^6. The
// engine instead routes over *compact* models: a single sorted array
// of peer identifiers (4 B/peer), a directory over its top ⌊log₂ n⌋
// identifier bits (2–4 B/peer), and a word-packed alive bitmap with a
// Fenwick tree over per-word counts (~0.2 B/peer) — about 7 bytes per
// peer in all — with each substrate's hop count derived from the same
// structural rules its heavy twin implements (Chord finger descent,
// CAN torus walks on a d-dimensional grid, Tapestry digit
// resolution). Peer "slots" are ranks in identifier order.
#ifndef P2PRANGE_SIM_ENGINE_COMPACT_OVERLAY_H_
#define P2PRANGE_SIM_ENGINE_COMPACT_OVERLAY_H_

#include <cstdint>
#include <memory>
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
/// count-trailing-zeros each; rank, select, and the rarer long skips
/// run over words in O(log(n/64)).
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
/// never fails its last peer.
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
  /// directory plus a short scan inside one bucket).
  uint32_t RankOfId(uint32_t id) const;

  virtual uint64_t MemoryBytes() const {
    return (ids_.capacity() + rank_dir_.capacity()) * sizeof(uint32_t) +
           alive_.MemoryBytes();
  }

 protected:
  /// `ids` must be sorted strictly increasing; slot i owns ids[i].
  explicit CompactOverlay(std::vector<uint32_t> ids);

  /// Successor slot of `id` on the identifier ring, alive slots only.
  uint32_t AliveSuccessorOfId(uint32_t id) const;

  std::vector<uint32_t> ids_;
  AliveIndex alive_;

 private:
  // rank_dir_[b] = RankOfId(b << dir_shift_): 2^⌊log₂ n⌋ buckets over
  // the top identifier bits, so a bucket holds under two ids on average.
  std::vector<uint32_t> rank_dir_;
  int dir_shift_ = 32;
};

/// \brief Factory: draws `num_peers` distinct identifiers from `seed`
/// and builds the `kind` model (CAN uses `can_dims` torus dimensions).
Result<std::unique_ptr<CompactOverlay>> MakeCompactOverlay(
    overlay::Kind kind, size_t num_peers, uint64_t seed, int can_dims);

}  // namespace sim
}  // namespace p2prange

#endif  // P2PRANGE_SIM_ENGINE_COMPACT_OVERLAY_H_
