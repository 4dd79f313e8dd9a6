#include "overlay/chord_overlay.h"

namespace p2prange {
namespace overlay {

namespace {

PeerInfo FromNode(const chord::NodeInfo& n) { return PeerInfo{n.id, n.addr}; }

}  // namespace

Result<std::unique_ptr<Overlay>> ChordOverlay::Make(
    size_t num_nodes, uint64_t seed, const chord::ChordConfig& config) {
  ASSIGN_OR_RETURN(auto ring, chord::ChordRing::Make(num_nodes, seed, config));
  std::unique_ptr<Overlay> out = std::make_unique<ChordOverlay>(std::move(ring));
  return out;
}

Result<RouteResult> ChordOverlay::RouteToOwner(const NetAddress& from,
                                               uint32_t id) {
  ASSIGN_OR_RETURN(auto lookup, ring_.Lookup(from, id));
  return RouteResult{FromNode(lookup.owner), lookup.hops, lookup.latency_ms};
}

Result<PeerInfo> ChordOverlay::OwnerOracle(uint32_t id) const {
  ASSIGN_OR_RETURN(auto owner, ring_.FindSuccessorOracle(id));
  return FromNode(owner);
}

std::vector<PeerInfo> ChordOverlay::ReplicaCandidates(
    const NetAddress& owner) const {
  std::vector<PeerInfo> out;
  const chord::ChordNode* node = ring_.node(owner);
  if (node == nullptr) return out;
  out.reserve(node->successors().size());
  for (const chord::NodeInfo& succ : node->successors()) {
    if (succ.addr == owner) continue;  // the owner backs itself up last
    out.push_back(FromNode(succ));
  }
  return out;
}

Result<PeerInfo> ChordOverlay::AddNode() {
  ASSIGN_OR_RETURN(auto info, ring_.AddNode());
  return FromNode(info);
}

std::vector<PeerInfo> ChordOverlay::AlivePeersOrdered() const {
  std::vector<PeerInfo> out;
  for (const chord::NodeInfo& n : ring_.AliveNodesSorted()) {
    out.push_back(FromNode(n));
  }
  return out;
}

}  // namespace overlay
}  // namespace p2prange
