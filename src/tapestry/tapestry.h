// Tapestry-style prefix routing — the third DHT family the paper's
// introduction surveys (Zhao, Kubiatowicz, Joseph; tech report
// UCB/CSD-01-1141).
//
// Identifiers are 8 hex digits (32 bits, MSB first). Each node keeps a
// routing table of kDigits levels x kBase slots; slot (i, d) points at
// a node sharing the first i digits of this node's identifier and
// having digit d at position i. A lookup fixes one digit of the target
// per hop (O(log16 N) hops), and *surrogate routing* — deterministic
// next-available-digit scanning — resolves identifiers whose exact
// slots are empty to a unique root node.
//
// Slots are filled globally and deterministically (minimum identifier
// among candidates), which makes the surrogate root of every
// identifier consistent across all starting points; the test suite
// checks this root-consistency property explicitly. TapestryMesh
// implements the overlay::Overlay contract: an identifier's owner is
// its surrogate root.
#ifndef P2PRANGE_TAPESTRY_TAPESTRY_H_
#define P2PRANGE_TAPESTRY_TAPESTRY_H_

#include <array>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "overlay/overlay.h"

namespace p2prange {
namespace tapestry {

inline constexpr int kDigits = 8;  // 32 bits / 4 bits per digit
inline constexpr int kBase = 16;

/// Hex digit `level` of `id`, most significant first.
inline int Digit(uint32_t id, int level) {
  return static_cast<int>((id >> (4 * (kDigits - 1 - level))) & 0xF);
}

/// Number of leading hex digits `a` and `b` share.
inline int SharedPrefixLen(uint32_t a, uint32_t b) {
  for (int i = 0; i < kDigits; ++i) {
    if (Digit(a, i) != Digit(b, i)) return i;
  }
  return kDigits;
}

/// \brief One Tapestry node: identifier plus routing table.
class TapestryNode {
 public:
  explicit TapestryNode(overlay::PeerInfo info) : info_(info) {}

  uint32_t id() const { return info_.id; }
  const NetAddress& addr() const { return info_.addr; }
  const overlay::PeerInfo& info() const { return info_; }

  const std::optional<overlay::PeerInfo>& slot(int level, int digit) const {
    return table_[level][digit];
  }
  void set_slot(int level, int digit, overlay::PeerInfo info) {
    table_[level][digit] = info;
  }
  void ClearTable();

  /// Number of populated slots (routing-state metric).
  size_t PopulatedSlots() const;

 private:
  overlay::PeerInfo info_;
  std::array<std::array<std::optional<overlay::PeerInfo>, kBase>, kDigits>
      table_{};
};

/// \brief A simulated Tapestry mesh.
class TapestryMesh final : public overlay::Overlay {
 public:
  /// Reads the latency model of `params`.
  static Result<TapestryMesh> Make(size_t num_nodes, uint64_t seed,
                                   const overlay::OverlayParams& params = {});

  TapestryMesh(TapestryMesh&&) noexcept = default;
  TapestryMesh& operator=(TapestryMesh&&) noexcept = default;

  overlay::Kind kind() const override { return overlay::Kind::kTapestry; }

  /// Prefix-routes `target` from `from` to its surrogate root.
  Result<overlay::RouteResult> RouteToOwner(const NetAddress& from,
                                            uint32_t target) override;

  /// The surrogate root of `target` among live nodes, without routing.
  Result<overlay::PeerInfo> OwnerOracle(uint32_t target) const override;

  /// The next live nodes clockwise in identifier order, at most
  /// overlay::kReplicaListLen of them.
  std::vector<overlay::PeerInfo> ReplicaCandidates(
      const NetAddress& owner) const override;

  /// Joins a brand-new node with a fresh address and unique identifier
  /// and repairs the mesh immediately (steady-state model).
  Result<overlay::PeerInfo> AddNode() override;

  /// Graceful departure: the node goes down and the mesh is repaired
  /// immediately (the leaver hands its routing role off).
  Status Leave(const NetAddress& addr) override;

  /// Marks a node down; call RepairRouting to repair the mesh (this
  /// substrate models steady state, not Tapestry's incremental repair
  /// protocol).
  Status Fail(const NetAddress& addr) override;

  /// A failed node comes back with its identifier; the mesh is
  /// repaired immediately.
  Status Recover(const NetAddress& addr) override;

  /// Any positive number of rounds is one RepairRouting.
  void Stabilize(int rounds) override {
    if (rounds > 0) RepairRouting();
  }

  /// Recomputes every live node's routing table from global knowledge
  /// with the deterministic minimum-identifier fill.
  void RepairRouting() override;

  size_t num_alive() const override;
  Result<NetAddress> RandomAliveAddress() override;
  const TapestryNode* node(const NetAddress& addr) const;

  /// Live nodes in ascending identifier order.
  std::vector<overlay::PeerInfo> AlivePeersOrdered() const override;

  /// Routing-table occupancy per node (state metric).
  std::vector<size_t> RoutingStateSizes() const override;

 private:
  TapestryMesh(const overlay::OverlayParams& params, uint64_t seed);

  /// Registers one node at a fresh address with a unique identifier.
  Result<overlay::PeerInfo> CreateNode();

  Rng rng_;
  std::unordered_map<NetAddress, std::unique_ptr<TapestryNode>, NetAddressHash>
      nodes_;
};

}  // namespace tapestry
}  // namespace p2prange

#endif  // P2PRANGE_TAPESTRY_TAPESTRY_H_
