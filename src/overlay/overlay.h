// Overlay: the seam between the range-cache system and the DHT.
//
// Everything above this interface — the §4 range-lookup protocol,
// descriptor replication, churn and fault injection — asks one
// abstract question ("who owns identifier x, and what did routing
// there cost?") plus a membership/maintenance surface; everything
// below decides what the overlay physically is. chord::ChordRing (the
// evaluation substrate), can::CanNetwork (the substrate Harren et al.
// used) and tapestry::TapestryMesh (the third family the introduction
// surveys) implement it directly, each charging its messages to the
// SimNetwork the base owns, so the identical workload routes over all
// three without touching core::System.
//
// The contract is header-only so the substrate libraries can sit
// above it; KindName, KindFromName and MakeOverlay live in
// p2p_overlay, which links all three substrates.
#ifndef P2PRANGE_OVERLAY_OVERLAY_H_
#define P2PRANGE_OVERLAY_OVERLAY_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/address.h"
#include "net/sim_network.h"

namespace p2prange {
namespace overlay {

/// \brief The overlay families behind the contract.
enum class Kind {
  kChord,
  kCan,
  kTapestry,
};

/// Stable lowercase name ("chord", "can", "tapestry").
const char* KindName(Kind kind);

/// Inverse of KindName; InvalidArgument on anything else.
Result<Kind> KindFromName(std::string_view name);

/// \brief A routable peer: its 32-bit overlay identifier and address.
/// For Chord and Tapestry the id is the node's position in the
/// identifier space; CAN nodes own zones instead, so their id is a
/// stable hash of the address used only for deterministic ordering.
struct PeerInfo {
  uint32_t id = 0;
  NetAddress addr;

  bool operator==(const PeerInfo&) const = default;
};

/// \brief Outcome of routing one identifier to its owner.
struct RouteResult {
  PeerInfo owner;
  /// Remote nodes contacted (the paper's path length).
  int hops = 0;
  /// Total simulated latency of the contacted path.
  double latency_ms = 0.0;
};

/// \brief Which overlay to build and every substrate tunable.
struct OverlayParams {
  Kind kind = Kind::kChord;
  /// CAN dimensionality d (hops scale as d/4 * n^(1/d)).
  int can_dims = 2;
  /// Latency/loss model of the substrate's simulated network, the same
  /// for every substrate so hop costs are comparable.
  LatencyModel latency;
  /// Chord successor-list length (fault tolerance; Chord suggests
  /// O(log N)).
  int successor_list_len = 8;
  /// Chord retransmissions per routing message lost in transit.
  int max_message_retries = 3;
};

/// Replica-list depth of the CAN and Tapestry ReplicaCandidates (Chord
/// uses its successor-list length).
inline constexpr size_t kReplicaListLen = 8;

/// \brief Abstract structured overlay: identifier ownership, routed
/// lookup with per-hop accounting, replica placement, membership, and
/// maintenance. All implementations are deterministic under a seed.
class Overlay {
 public:
  virtual ~Overlay() = default;

  Overlay(const Overlay&) = delete;
  Overlay& operator=(const Overlay&) = delete;

  virtual Kind kind() const = 0;
  const char* name() const { return KindName(kind()); }

  // --- Routing --------------------------------------------------------

  /// Routes identifier `id` from `from` to its current owner, charging
  /// every hop through the accounted network. Routes around failed
  /// peers where the substrate can; Unavailable when it cannot.
  virtual Result<RouteResult> RouteToOwner(const NetAddress& from,
                                           uint32_t id) = 0;

  /// Zero-cost oracle: the correct owner of `id` among live peers.
  virtual Result<PeerInfo> OwnerOracle(uint32_t id) const = 0;

  // --- Replica placement ----------------------------------------------

  /// The owner-local backup list for descriptors stored at `owner`, in
  /// preference order, excluding `owner` itself. Entries may be dead —
  /// the caller performs its own liveness filtering so that failover
  /// accounting (tried/alive) is the caller's policy, not the
  /// overlay's. Chord: the node's successor list; CAN: its zone
  /// neighbors; Tapestry: the next nodes in identifier order.
  virtual std::vector<PeerInfo> ReplicaCandidates(
      const NetAddress& owner) const = 0;

  // --- Membership -----------------------------------------------------

  /// Joins a brand-new peer through the substrate's join protocol.
  virtual Result<PeerInfo> AddNode() = 0;

  /// Graceful departure with state handoff where the protocol has one.
  virtual Status Leave(const NetAddress& addr) = 0;

  /// Abrupt failure: the peer goes down with no handoff.
  virtual Status Fail(const NetAddress& addr) = 0;

  /// A failed peer comes back (same address and identifier) and
  /// re-bootstraps its routing state.
  virtual Status Recover(const NetAddress& addr) = 0;

  // --- Maintenance ----------------------------------------------------

  /// `rounds` rounds of the substrate's periodic repair protocol
  /// (Chord stabilize+notify; CAN dead-zone takeover; Tapestry
  /// routing-table rebuild).
  virtual void Stabilize(int rounds) = 0;

  /// Heavier routing-state repair (Chord fix-fingers; CAN and
  /// Tapestry rebuild the same state Stabilize does).
  virtual void RepairRouting() = 0;

  // --- Introspection --------------------------------------------------

  virtual size_t num_alive() const = 0;

  /// Live peers in deterministic (identifier) order.
  virtual std::vector<PeerInfo> AlivePeersOrdered() const = 0;

  /// A uniformly random live peer (e.g. to originate a lookup).
  virtual Result<NetAddress> RandomAliveAddress() = 0;

  /// Routing-state entries of each live peer: Chord's distinct fingers
  /// and successors, CAN's zone neighbors, Tapestry's populated
  /// prefix-table slots.
  virtual std::vector<size_t> RoutingStateSizes() const = 0;

  bool IsAlive(const NetAddress& addr) const { return net_->IsAlive(addr); }

  // --- Accounted delivery ---------------------------------------------

  /// Accounts one system message with `payload_bytes` of payload
  /// through the substrate's network (see SimNetwork::DeliverBytes for
  /// the error contract).
  Result<double> DeliverBytes(const NetAddress& from, const NetAddress& to,
                              uint64_t payload_bytes) {
    return net_->DeliverBytes(from, to, payload_bytes);
  }

  const NetworkStats& net_stats() const { return net_->stats(); }
  void ResetNetStats() { net_->ResetStats(); }

 protected:
  /// The substrate's network: `latency` over an RNG seeded `net_seed`.
  Overlay(const LatencyModel& latency, uint64_t net_seed)
      : net_(std::make_unique<SimNetwork>(latency, net_seed)) {}
  Overlay(Overlay&&) noexcept = default;
  Overlay& operator=(Overlay&&) noexcept = default;

  SimNetwork& network() { return *net_; }

 private:
  std::unique_ptr<SimNetwork> net_;
};

/// \brief Builds a `params.kind` overlay of `num_nodes` peers.
Result<std::unique_ptr<Overlay>> MakeOverlay(const OverlayParams& params,
                                             size_t num_nodes, uint64_t seed);

}  // namespace overlay
}  // namespace p2prange

#endif  // P2PRANGE_OVERLAY_OVERLAY_H_
