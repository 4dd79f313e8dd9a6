// Per-peer Chord routing state: identifier, predecessor, successor
// list, and finger table. Protocol logic (join, stabilize, lookup)
// lives in ChordRing; a node only answers questions about its own
// state, which is exactly what a real Chord node can do locally.
#ifndef P2PRANGE_CHORD_NODE_H_
#define P2PRANGE_CHORD_NODE_H_

#include <array>
#include <functional>
#include <optional>
#include <vector>

#include "chord/id.h"
#include "net/address.h"
#include "overlay/overlay.h"

namespace p2prange {
namespace chord {

/// \brief The finger table: entry i points at the first node whose
/// identifier succeeds FingerStart(n, i) = n + 2^i.
class FingerTable {
 public:
  /// Entry accessors; unset entries are nullopt.
  const std::optional<overlay::PeerInfo>& entry(int i) const {
    return entries_[i];
  }
  void set_entry(int i, overlay::PeerInfo info) { entries_[i] = info; }
  void clear_entry(int i) { entries_[i] = std::nullopt; }
  void Clear() { entries_.fill(std::nullopt); }

  static constexpr int size() { return kIdBits; }

 private:
  std::array<std::optional<overlay::PeerInfo>, kIdBits> entries_{};
};

/// \brief Routing state of one peer.
class ChordNode {
 public:
  ChordNode(ChordId id, NetAddress addr) : info_{id, addr} {}

  const overlay::PeerInfo& info() const { return info_; }
  ChordId id() const { return info_.id; }
  const NetAddress& addr() const { return info_.addr; }

  const std::optional<overlay::PeerInfo>& predecessor() const {
    return predecessor_;
  }
  void set_predecessor(std::optional<overlay::PeerInfo> p) {
    predecessor_ = std::move(p);
  }

  /// The successor list, closest first. successors()[0] is the
  /// immediate successor (== self only in a single-node ring).
  const std::vector<overlay::PeerInfo>& successors() const { return successors_; }
  std::vector<overlay::PeerInfo>& mutable_successors() { return successors_; }

  /// Immediate successor; self if the list is empty (fresh node).
  overlay::PeerInfo successor() const {
    return successors_.empty() ? info_ : successors_.front();
  }

  const FingerTable& fingers() const { return fingers_; }
  FingerTable& mutable_fingers() { return fingers_; }

  /// True if this node owns identifier `x`, i.e. x ∈ (predecessor, id].
  /// With no predecessor knowledge the node cannot claim ownership
  /// except in a single-node ring.
  bool OwnsId(ChordId x) const {
    if (!predecessor_) return successors_.empty() || successor() == info_;
    return InOpenClosed(predecessor_->id, info_.id, x);
  }

  /// \brief The local routing decision of the Chord lookup: the
  /// closest node strictly preceding `target` among this node's
  /// fingers and successor list, restricted to nodes accepted by
  /// `usable` (the caller's failure knowledge). Returns nullopt when
  /// no known node improves on self.
  std::optional<overlay::PeerInfo> ClosestPrecedingNode(
      ChordId target,
      const std::function<bool(const overlay::PeerInfo&)>& usable) const;

 private:
  overlay::PeerInfo info_;
  std::optional<overlay::PeerInfo> predecessor_;
  std::vector<overlay::PeerInfo> successors_;
  FingerTable fingers_;
};

}  // namespace chord
}  // namespace p2prange

#endif  // P2PRANGE_CHORD_NODE_H_
