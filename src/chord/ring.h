// The Chord overlay: membership, maintenance, and lookup.
//
// ChordRing is the simulation harness around a set of ChordNodes. It
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
#include "net/sim_network.h"

namespace p2prange {
namespace chord {

/// \brief Tunables of the overlay.
struct ChordConfig {
  /// Successor-list length (fault tolerance; Chord suggests O(log N)).
  int successor_list_len = 8;
  /// Latency/loss model of the underlying simulated network.
  LatencyModel latency;
  /// Retransmissions per routing message when it is lost in transit.
  int max_message_retries = 3;
};

/// \brief Outcome of one lookup: the owning node plus routing cost.
struct LookupResult {
  NodeInfo owner;
  /// Number of remote nodes contacted (the paper's path length).
  int hops = 0;
  /// Total simulated network latency of the contacted path.
  double latency_ms = 0.0;
};

/// \brief A simulated Chord ring over a 32-bit identifier space.
class ChordRing {
 public:
  /// Builds a ring of `num_nodes` peers with SHA-1-derived identifiers
  /// and fully correct routing state (the steady state a long-running
  /// stabilized ring converges to).
  static Result<ChordRing> Make(size_t num_nodes, uint64_t seed,
                                ChordConfig config = ChordConfig{});

  ChordRing(ChordRing&&) noexcept = default;
  ChordRing& operator=(ChordRing&&) noexcept = default;

  // --- Membership -----------------------------------------------------

  /// Joins a brand-new peer at a generated address via the Chord join
  /// protocol (bootstrap through an existing node; fingers built with
  /// protocol lookups). Returns the new node's info.
  Result<NodeInfo> AddNode();

  /// Gracefully removes a peer: its predecessor and successor are
  /// patched, the peer goes down; remaining stale references are
  /// repaired by stabilization and lookup fallback.
  Status Leave(const NetAddress& addr);

  /// Abrupt failure: the peer simply goes down.
  Status Fail(const NetAddress& addr);

  /// A previously failed peer comes back up with its identifier. It
  /// re-bootstraps its routing state through a live node (protocol
  /// lookups), like a fresh join but keeping its address and id.
  Status Recover(const NetAddress& addr);

  // --- Maintenance ----------------------------------------------------

  /// One round of Chord stabilization + notify on every live node.
  void StabilizeAll(int rounds = 1);

  /// Rebuilds every live node's fingers with protocol lookups.
  void FixAllFingers();

  /// Oracle maintenance: installs exactly correct predecessors,
  /// successor lists, and fingers on all live nodes.
  void RebuildPerfectState();

  // --- Lookup ---------------------------------------------------------

  /// Iterative Chord lookup of `target` initiated at `from`. Routes
  /// around failed peers using successor lists. Hop and latency costs
  /// are recorded in the result and in network().stats().
  Result<LookupResult> Lookup(const NetAddress& from, ChordId target);

  /// Zero-cost oracle: the correct owner of `target` among live nodes.
  Result<NodeInfo> FindSuccessorOracle(ChordId target) const;

  // --- Introspection ----------------------------------------------------

  size_t num_alive() const;
  size_t num_total() const { return nodes_.size(); }

  /// Live nodes in identifier order.
  std::vector<NodeInfo> AliveNodesSorted() const;

  /// A uniformly random live peer (e.g. to originate a lookup).
  Result<NetAddress> RandomAliveAddress();

  ChordNode* node(const NetAddress& addr);
  const ChordNode* node(const NetAddress& addr) const;

  /// The simulated network every remote interaction is charged through.
  SimNetwork& network() { return *net_; }
  const ChordConfig& config() const { return config_; }

 private:
  ChordRing(ChordConfig config, uint64_t seed);

  /// Registers a fresh node with a unique generated address/id.
  Result<NodeInfo> CreateNode();

  /// The first live entry of n's successor list (n's own knowledge of
  /// its successor after failure detection); n itself if none.
  NodeInfo FirstAliveSuccessor(const ChordNode& n) const;

  /// Protocol find_successor initiated at `from`; accumulates cost
  /// into `out` when non-null.
  Result<NodeInfo> ProtocolFindSuccessor(const NetAddress& from, ChordId target,
                                         LookupResult* out);

  void Stabilize(ChordNode& n);
  void Notify(ChordNode& successor, const NodeInfo& candidate);
  void FixFingers(ChordNode& n);

  void MarkDirty() { sorted_dirty_ = true; }
  const std::vector<NodeInfo>& SortedAlive() const;

  ChordConfig config_;
  Rng rng_;
  std::unique_ptr<SimNetwork> net_;
  std::unordered_map<NetAddress, std::unique_ptr<ChordNode>, NetAddressHash> nodes_;
  std::vector<NetAddress> addresses_;  // insertion order, includes dead peers

  mutable std::vector<NodeInfo> sorted_alive_;
  mutable bool sorted_dirty_ = true;
};

}  // namespace chord
}  // namespace p2prange

#endif  // P2PRANGE_CHORD_RING_H_
