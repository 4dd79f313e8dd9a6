// The CAN overlay: zone ownership, greedy routing, join and takeover.
//
// Implements the overlay::Overlay contract ChordRing implements, so the
// two DHT substrates can be compared head to head
// (bench/ablation_can_vs_chord): identifiers map to points in the
// d-torus, lookups route greedily through zone neighbors with per-hop
// accounting, joins split the zone containing a random point, and
// departures are absorbed by neighbor takeover. CAN has no node
// identifier space: a node's overlay id is a stable hash of its
// address, computed once at creation and used only for deterministic
// ordering.
#ifndef P2PRANGE_CAN_NETWORK_H_
#define P2PRANGE_CAN_NETWORK_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "can/zone.h"
#include "common/random.h"
#include "common/result.h"
#include "overlay/overlay.h"

namespace p2prange {
namespace can {

/// \brief One CAN node: its zones (one, or several after takeovers)
/// and its current neighbor set.
class CanNode {
 public:
  explicit CanNode(overlay::PeerInfo info) : info_(info) {}

  const overlay::PeerInfo& info() const { return info_; }
  const NetAddress& addr() const { return info_.addr; }

  const std::vector<Zone>& zones() const { return zones_; }
  std::vector<Zone>& mutable_zones() { return zones_; }

  const std::vector<NetAddress>& neighbors() const { return neighbors_; }
  std::vector<NetAddress>& mutable_neighbors() { return neighbors_; }

  bool Owns(const Point& p) const {
    for (const Zone& z : zones_) {
      if (z.Contains(p)) return true;
    }
    return false;
  }

  /// Total fraction of the coordinate space owned.
  double Volume() const {
    double v = 0;
    for (const Zone& z : zones_) v += z.Volume();
    return v;
  }

  /// Distance from this node's closest zone to `p`.
  double DistanceTo(const Point& p) const;

 private:
  overlay::PeerInfo info_;
  std::vector<Zone> zones_;
  std::vector<NetAddress> neighbors_;
};

/// \brief A simulated CAN over the d-dimensional unit torus.
class CanNetwork final : public overlay::Overlay {
 public:
  /// Grows a network to `num_nodes` through the real join protocol
  /// (random point, route, split), then clears the accumulated
  /// routing statistics. Reads `can_dims` and the latency model of
  /// `params`.
  static Result<CanNetwork> Make(size_t num_nodes, uint64_t seed,
                                 const overlay::OverlayParams& params = {});

  CanNetwork(CanNetwork&&) noexcept = default;
  CanNetwork& operator=(CanNetwork&&) noexcept = default;

  overlay::Kind kind() const override { return overlay::Kind::kCan; }

  /// Greedy lookup of `identifier`'s point starting at `from`.
  Result<overlay::RouteResult> RouteToOwner(const NetAddress& from,
                                            uint32_t identifier) override;

  /// The zone owner of `identifier`'s point.
  Result<overlay::PeerInfo> OwnerOracle(uint32_t identifier) const override;

  /// Zero-cost oracle: the live owner of a point.
  Result<overlay::PeerInfo> FindOwnerOracle(const Point& p) const;

  /// The owner's zone neighbors in peer order, at most
  /// overlay::kReplicaListLen of them.
  std::vector<overlay::PeerInfo> ReplicaCandidates(
      const NetAddress& owner) const override;

  /// Joins a new node (random target point, protocol route + split).
  Result<overlay::PeerInfo> AddNode() override;

  /// Graceful departure: each zone merges into a mergeable neighbor
  /// where possible, otherwise the smallest-volume neighbor takes it
  /// over (and temporarily manages multiple zones, as in CAN).
  Status Leave(const NetAddress& addr) override;

  /// Abrupt failure: the node goes down with no handoff. Its zones
  /// stay assigned to it (points there are unowned) until
  /// TakeoverDeadZones reassigns them — CAN's takeover protocol run
  /// as periodic maintenance.
  Status Fail(const NetAddress& addr) override;

  /// A failed node comes back at its address. If its zones were not
  /// yet taken over it resumes them; otherwise it re-joins through
  /// the protocol (route + split) keeping the address.
  Status Recover(const NetAddress& addr) override;

  /// Takeover rounds until one transfers nothing, at most `rounds`.
  void Stabilize(int rounds) override;

  /// One takeover round (it also rebuilds the neighbor sets).
  void RepairRouting() override { TakeoverDeadZones(); }

  /// Reassigns every zone still held by a dead node to a live one
  /// (mergeable neighbor first, then the smallest-volume live node),
  /// as CAN's takeover timer would. Returns the number of zones
  /// transferred.
  size_t TakeoverDeadZones();

  size_t num_alive() const override;
  const CanNode* node(const NetAddress& addr) const;
  Result<NetAddress> RandomAliveAddress() override;

  /// Live nodes ordered by overlay id, ties by address text.
  std::vector<overlay::PeerInfo> AlivePeersOrdered() const override;

  /// Volumes of all live nodes (sums to ~1); the CAN load metric.
  std::vector<double> Volumes() const;

  /// Per-node neighbor-set sizes (CAN state is O(d) per node).
  std::vector<size_t> RoutingStateSizes() const override;

  /// Validation hook for tests: checks that zones tile the space
  /// (volumes sum to 1), ownership is disjoint on sampled points, and
  /// neighbor sets are symmetric and correct.
  Status CheckInvariants() const;

 private:
  CanNetwork(const overlay::OverlayParams& params, uint64_t seed);

  CanNode* mutable_node(const NetAddress& addr);
  Result<NetAddress> CreateAddress();

  /// Registers a live node at `addr` owning `zone`; its overlay id is
  /// the SHA-1 hash of the address text.
  CanNode& InsertNode(const NetAddress& addr, const Zone& zone);

  /// The CAN join step: routes from `bootstrap` to random points until
  /// one lands in a splittable zone and halves that zone along its
  /// widest dimension. The owner keeps the half without the point;
  /// `*joiner_half` gets the other. Returns the owner's address.
  Result<NetAddress> SplitZoneForJoin(const NetAddress& bootstrap,
                                      Zone* joiner_half);

  /// Routes from `from` to the owner of `p`, charging hops into `out`
  /// when non-null.
  Result<CanNode*> Route(const NetAddress& from, const Point& p,
                         overlay::RouteResult* out);

  /// Recomputes the neighbor sets of `affected` nodes and of everyone
  /// adjacent to them.
  void RebuildNeighborhoods(const std::vector<NetAddress>& affected);

  overlay::OverlayParams params_;
  Rng rng_;
  std::unordered_map<NetAddress, std::unique_ptr<CanNode>, NetAddressHash> nodes_;
  std::vector<NetAddress> addresses_;
};

}  // namespace can
}  // namespace p2prange

#endif  // P2PRANGE_CAN_NETWORK_H_
