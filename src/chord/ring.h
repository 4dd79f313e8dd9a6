// The Chord overlay: membership, maintenance, and lookup.
//
// ChordRing is the simulation harness around a set of ChordNodes and
// the paper's substrate behind the overlay::Overlay contract. It
// plays the role the MIT Chord simulator played in the paper: nodes
// hold only their own routing state; every remote interaction during a
// lookup is charged through the SimNetwork so hop counts (the paper's
// "path length", Figure 12) are honest.
#ifndef P2PRANGE_CHORD_RING_H_
#define P2PRANGE_CHORD_RING_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "chord/node.h"
#include "common/random.h"
#include "common/result.h"
#include "overlay/overlay.h"

namespace p2prange {
namespace chord {

/// \brief A simulated Chord ring over a 32-bit identifier space.
class ChordRing final : public overlay::Overlay {
 public:
  /// Builds a ring of `num_nodes` peers with SHA-1-derived identifiers
  /// and fully correct routing state (the steady state a long-running
  /// stabilized ring converges to). Reads the latency model,
  /// `successor_list_len` and `max_message_retries` of `params`.
  static Result<ChordRing> Make(size_t num_nodes, uint64_t seed,
                                const overlay::OverlayParams& params = {});

  ChordRing(ChordRing&&) noexcept = default;
  ChordRing& operator=(ChordRing&&) noexcept = default;

  overlay::Kind kind() const override { return overlay::Kind::kChord; }

  // --- Lookup ---------------------------------------------------------

  /// Iterative Chord lookup of `target` initiated at `from`. Routes
  /// around failed peers using successor lists. Hop and latency costs
  /// are recorded in the result and in net_stats().
  Result<overlay::RouteResult> RouteToOwner(const NetAddress& from,
                                            ChordId target) override;

  /// Zero-cost oracle: the correct owner of `target` among live nodes.
  Result<overlay::PeerInfo> OwnerOracle(ChordId target) const override;

  /// The owner's successor list, minus the owner itself.
  std::vector<overlay::PeerInfo> ReplicaCandidates(
      const NetAddress& owner) const override;

  // --- Membership -----------------------------------------------------

  /// Joins a brand-new peer at a generated address via the Chord join
  /// protocol (bootstrap through an existing node; fingers built with
  /// protocol lookups). Returns the new node's info.
  Result<overlay::PeerInfo> AddNode() override;

  /// Gracefully removes a peer: its predecessor and successor are
  /// patched, the peer goes down; remaining stale references are
  /// repaired by stabilization and lookup fallback.
  Status Leave(const NetAddress& addr) override;

  /// Abrupt failure: the peer simply goes down.
  Status Fail(const NetAddress& addr) override;

  /// A previously failed peer comes back up with its identifier. It
  /// re-bootstraps its routing state through a live node (protocol
  /// lookups), like a fresh join but keeping its address and id.
  Status Recover(const NetAddress& addr) override;

  // --- Maintenance ----------------------------------------------------

  /// `rounds` rounds of Chord stabilization + notify on every live node.
  void Stabilize(int rounds) override;

  /// Rebuilds every live node's fingers with protocol lookups.
  void RepairRouting() override;

  // --- Introspection ----------------------------------------------------

  size_t num_alive() const override;

  /// Live nodes in identifier order.
  std::vector<overlay::PeerInfo> AlivePeersOrdered() const override;

  Result<NetAddress> RandomAliveAddress() override;

  /// Distinct nodes in each live node's fingers and successor list.
  std::vector<size_t> RoutingStateSizes() const override;

  ChordNode* node(const NetAddress& addr);
  const ChordNode* node(const NetAddress& addr) const;

 private:
  ChordRing(const overlay::OverlayParams& params, uint64_t seed);

  /// Registers a fresh node with a unique generated address/id.
  Result<overlay::PeerInfo> CreateNode();

  /// Oracle maintenance: installs exactly correct predecessors,
  /// successor lists, and fingers on all live nodes.
  void RebuildPerfectState();

  /// The first live entry of n's successor list (n's own knowledge of
  /// its successor after failure detection); n itself if none.
  overlay::PeerInfo FirstAliveSuccessor(const ChordNode& n) const;

  /// Protocol find_successor initiated at `from`; accumulates cost
  /// into `out` when non-null.
  Result<overlay::PeerInfo> ProtocolFindSuccessor(const NetAddress& from,
                                                  ChordId target,
                                                  overlay::RouteResult* out);

  /// The tail of a join (and of a recovery): `n`, with empty routing
  /// state, adopts `succ` and succ's successor list, stabilizes once
  /// and builds its fingers.
  void JoinBehind(ChordNode& n, const overlay::PeerInfo& succ);

  void StabilizeNode(ChordNode& n);
  void Notify(ChordNode& successor, const overlay::PeerInfo& candidate);
  void FixFingers(ChordNode& n);

  void MarkDirty() { sorted_dirty_ = true; }
  const std::vector<overlay::PeerInfo>& SortedAlive() const;

  overlay::OverlayParams params_;
  Rng rng_;
  std::unordered_map<NetAddress, std::unique_ptr<ChordNode>, NetAddressHash> nodes_;
  std::vector<NetAddress> addresses_;  // insertion order, includes dead peers

  mutable std::vector<overlay::PeerInfo> sorted_alive_;
  mutable bool sorted_dirty_ = true;
};

}  // namespace chord
}  // namespace p2prange

#endif  // P2PRANGE_CHORD_RING_H_
