#include "overlay/can_overlay.h"

#include <algorithm>

#include "hash/sha1.h"

namespace p2prange {
namespace overlay {

namespace {

/// Stable ordering id for a CAN node (CAN has no identifier space).
uint32_t AddressId(const NetAddress& addr) {
  return Sha1::Hash32(addr.ToString());
}

}  // namespace

Result<std::unique_ptr<Overlay>> CanOverlay::Make(size_t num_nodes,
                                                  uint64_t seed,
                                                  const can::CanConfig& config) {
  ASSIGN_OR_RETURN(auto net, can::CanNetwork::Make(num_nodes, seed, config));
  std::unique_ptr<Overlay> out = std::make_unique<CanOverlay>(std::move(net));
  return out;
}

Result<RouteResult> CanOverlay::RouteToOwner(const NetAddress& from,
                                             uint32_t id) {
  ASSIGN_OR_RETURN(auto lookup, can_.Lookup(from, id));
  return RouteResult{PeerInfo{AddressId(lookup.owner), lookup.owner},
                     lookup.hops, lookup.latency_ms};
}

Result<PeerInfo> CanOverlay::OwnerOracle(uint32_t id) const {
  const can::Point p = can::IdentifierToPoint(id, can_.config().dims);
  ASSIGN_OR_RETURN(auto addr, can_.FindOwnerOracle(p));
  return PeerInfo{AddressId(addr), addr};
}

std::vector<PeerInfo> CanOverlay::ReplicaCandidates(
    const NetAddress& owner) const {
  std::vector<PeerInfo> out;
  const can::CanNode* node = can_.node(owner);
  if (node == nullptr) return out;
  out.reserve(node->neighbors().size());
  for (const NetAddress& addr : node->neighbors()) {
    out.push_back(PeerInfo{AddressId(addr), addr});
  }
  // Neighbor sets are rebuilt in map order; sort for a deterministic
  // preference order independent of hash-table layout.
  std::sort(out.begin(), out.end(),
            [](const PeerInfo& a, const PeerInfo& b) {
              if (a.id != b.id) return a.id < b.id;
              return a.addr.ToString() < b.addr.ToString();
            });
  if (out.size() > kReplicaListLen) out.resize(kReplicaListLen);
  return out;
}

Result<PeerInfo> CanOverlay::AddNode() {
  ASSIGN_OR_RETURN(auto addr, can_.AddNode());
  return PeerInfo{AddressId(addr), addr};
}

void CanOverlay::Stabilize(int rounds) {
  for (int i = 0; i < rounds; ++i) {
    if (can_.TakeoverDeadZones() == 0) break;
  }
}

void CanOverlay::RepairRouting() {
  can_.TakeoverDeadZones();  // neighbor sets are rebuilt by takeover
}

std::vector<PeerInfo> CanOverlay::AlivePeersOrdered() const {
  std::vector<PeerInfo> out;
  for (const NetAddress& addr : can_.AliveAddresses()) {
    out.push_back(PeerInfo{AddressId(addr), addr});
  }
  std::sort(out.begin(), out.end(),
            [](const PeerInfo& a, const PeerInfo& b) {
              if (a.id != b.id) return a.id < b.id;
              return a.addr.ToString() < b.addr.ToString();
            });
  return out;
}

}  // namespace overlay
}  // namespace p2prange
