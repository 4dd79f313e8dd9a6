// The CAN overlay: zone ownership, greedy routing, join and takeover.
//
// Mirrors ChordRing's interface so the two DHT substrates can be
// compared head to head (bench/ablation_can_vs_chord): identifiers map
// to points in the d-torus, lookups route greedily through zone
// neighbors with per-hop accounting, joins split the zone containing a
// random point, and departures are absorbed by neighbor takeover.
#ifndef P2PRANGE_CAN_NETWORK_H_
#define P2PRANGE_CAN_NETWORK_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "can/zone.h"
#include "common/random.h"
#include "common/result.h"
#include "net/sim_network.h"

namespace p2prange {
namespace can {

/// \brief Tunables of the CAN overlay.
struct CanConfig {
  int dims = 2;  ///< dimensionality d of the coordinate space
  /// Latency/loss model of the underlying simulated network.
  LatencyModel latency;
};

/// \brief Outcome of one lookup.
struct CanLookupResult {
  NetAddress owner;
  int hops = 0;
  double latency_ms = 0.0;
};

/// \brief One CAN node: its zones (one, or several after takeovers)
/// and its current neighbor set.
class CanNode {
 public:
  explicit CanNode(NetAddress addr) : addr_(addr) {}

  const NetAddress& addr() const { return addr_; }

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
  NetAddress addr_;
  std::vector<Zone> zones_;
  std::vector<NetAddress> neighbors_;
};

/// \brief A simulated CAN over the d-dimensional unit torus.
class CanNetwork {
 public:
  /// Grows a network to `num_nodes` through the real join protocol
  /// (random point, route, split), then clears the accumulated
  /// routing statistics.
  static Result<CanNetwork> Make(size_t num_nodes, uint64_t seed,
                                 CanConfig config = CanConfig{});

  CanNetwork(CanNetwork&&) noexcept = default;
  CanNetwork& operator=(CanNetwork&&) noexcept = default;

  /// Greedy lookup of `identifier`'s point starting at `from`.
  Result<CanLookupResult> Lookup(const NetAddress& from, uint32_t identifier);

  /// Zero-cost oracle: the owner of a point.
  Result<NetAddress> FindOwnerOracle(const Point& p) const;

  /// Joins a new node (random target point, protocol route + split).
  Result<NetAddress> AddNode();

  /// Graceful departure: each zone merges into a mergeable neighbor
  /// where possible, otherwise the smallest-volume neighbor takes it
  /// over (and temporarily manages multiple zones, as in CAN).
  Status Leave(const NetAddress& addr);

  /// Abrupt failure: the node goes down with no handoff. Its zones
  /// stay assigned to it (points there are unowned) until
  /// TakeoverDeadZones reassigns them — CAN's takeover protocol run
  /// as periodic maintenance.
  Status Fail(const NetAddress& addr);

  /// A failed node comes back at its address. If its zones were not
  /// yet taken over it resumes them; otherwise it re-joins through
  /// the protocol (route + split) keeping the address.
  Status Recover(const NetAddress& addr);

  /// Reassigns every zone still held by a dead node to a live one
  /// (mergeable neighbor first, then the smallest-volume live node),
  /// as CAN's takeover timer would. Returns the number of zones
  /// transferred.
  size_t TakeoverDeadZones();

  size_t num_alive() const;
  const CanNode* node(const NetAddress& addr) const;
  Result<NetAddress> RandomAliveAddress();

  /// Live node addresses in deterministic (join) order.
  std::vector<NetAddress> AliveAddresses() const;

  /// Volumes of all live nodes (sums to ~1); the CAN load metric.
  std::vector<double> Volumes() const;

  /// Per-node neighbor-set sizes (CAN state is O(d) per node).
  std::vector<size_t> NeighborCounts() const;

  SimNetwork& network() { return *net_; }
  const CanConfig& config() const { return config_; }

  /// Validation hook for tests: checks that zones tile the space
  /// (volumes sum to 1), ownership is disjoint on sampled points, and
  /// neighbor sets are symmetric and correct.
  Status CheckInvariants() const;

 private:
  CanNetwork(CanConfig config, uint64_t seed);

  CanNode* mutable_node(const NetAddress& addr);
  Result<NetAddress> CreateAddress();

  /// Protocol join of the already-registered, zoneless, live node at
  /// `addr`: route to a random point from a zone-owning bootstrap and
  /// split the owner's zone. Used by Recover after a takeover.
  Status JoinExisting(const NetAddress& addr);

  /// Routes from `from` to the owner of `p`, charging hops.
  Result<NetAddress> Route(const NetAddress& from, const Point& p,
                           CanLookupResult* out);

  /// Recomputes the neighbor sets of `affected` nodes and of everyone
  /// adjacent to them.
  void RebuildNeighborhoods(const std::vector<NetAddress>& affected);

  CanConfig config_;
  Rng rng_;
  std::unique_ptr<SimNetwork> net_;
  std::unordered_map<NetAddress, std::unique_ptr<CanNode>, NetAddressHash> nodes_;
  std::vector<NetAddress> addresses_;
};

}  // namespace can
}  // namespace p2prange

#endif  // P2PRANGE_CAN_NETWORK_H_
