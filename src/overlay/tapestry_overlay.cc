#include "overlay/tapestry_overlay.h"

#include <algorithm>

namespace p2prange {
namespace overlay {

namespace {

PeerInfo FromMesh(const tapestry::MeshNodeInfo& n) {
  return PeerInfo{n.id, n.addr};
}

}  // namespace

Result<std::unique_ptr<Overlay>> TapestryOverlay::Make(
    size_t num_nodes, uint64_t seed, const LatencyModel& latency) {
  ASSIGN_OR_RETURN(auto mesh,
                   tapestry::TapestryMesh::Make(num_nodes, seed, latency));
  std::unique_ptr<Overlay> out =
      std::make_unique<TapestryOverlay>(std::move(mesh));
  return out;
}

Result<RouteResult> TapestryOverlay::RouteToOwner(const NetAddress& from,
                                                  uint32_t id) {
  ASSIGN_OR_RETURN(auto lookup, mesh_.Lookup(from, id));
  return RouteResult{FromMesh(lookup.owner), lookup.hops, lookup.latency_ms};
}

Result<PeerInfo> TapestryOverlay::OwnerOracle(uint32_t id) const {
  // The surrogate root is start-independent: with globally min-id
  // filled tables, every lookup performs the same digit-by-digit
  // descent — at each level, take the cyclic successor (scanning
  // upward mod base from the target's digit) among the digits present
  // in the current prefix group. Replay that descent over the live id
  // set; Lookup converges to the same node while charging hops.
  std::vector<tapestry::MeshNodeInfo> group = mesh_.AliveNodesSorted();
  if (group.empty()) return Status::NotFound("no live mesh nodes");
  for (int level = 0; level < tapestry::kDigits && group.size() > 1; ++level) {
    const int desired = tapestry::Digit(id, level);
    bool present[tapestry::kBase] = {};
    for (const auto& n : group) present[tapestry::Digit(n.id, level)] = true;
    int chosen = -1;
    for (int k = 0; k < tapestry::kBase; ++k) {
      const int d = (desired + k) % tapestry::kBase;
      if (present[d]) {
        chosen = d;
        break;
      }
    }
    std::vector<tapestry::MeshNodeInfo> next;
    for (const auto& n : group) {
      if (tapestry::Digit(n.id, level) == chosen) next.push_back(n);
    }
    group = std::move(next);
  }
  return FromMesh(group.front());
}

std::vector<PeerInfo> TapestryOverlay::ReplicaCandidates(
    const NetAddress& owner) const {
  std::vector<PeerInfo> out;
  const tapestry::TapestryNode* node = mesh_.node(owner);
  if (node == nullptr) return out;
  const std::vector<tapestry::MeshNodeInfo> alive = mesh_.AliveNodesSorted();
  if (alive.empty()) return out;
  // The next nodes clockwise in identifier order, wrapping — the
  // deterministic analogue of Chord's successor list.
  size_t start = 0;
  while (start < alive.size() && alive[start].id <= node->id()) ++start;
  for (size_t k = 0; k < alive.size() && out.size() < kReplicaListLen; ++k) {
    const auto& cand = alive[(start + k) % alive.size()];
    if (cand.addr == owner) continue;
    out.push_back(FromMesh(cand));
  }
  return out;
}

Result<PeerInfo> TapestryOverlay::AddNode() {
  ASSIGN_OR_RETURN(auto info, mesh_.AddNode());
  return FromMesh(info);
}

void TapestryOverlay::Stabilize(int rounds) {
  if (rounds > 0) mesh_.RebuildRoutingTables();
}

std::vector<PeerInfo> TapestryOverlay::AlivePeersOrdered() const {
  std::vector<PeerInfo> out;
  for (const auto& n : mesh_.AliveNodesSorted()) out.push_back(FromMesh(n));
  return out;
}

}  // namespace overlay
}  // namespace p2prange
