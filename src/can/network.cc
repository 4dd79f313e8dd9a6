#include "can/network.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/logging.h"
#include "hash/sha1.h"

namespace p2prange {
namespace can {

namespace {

/// The deterministic peer order of AlivePeersOrdered and
/// ReplicaCandidates: by overlay id, ties by address text.
bool PeerOrder(const overlay::PeerInfo& a, const overlay::PeerInfo& b) {
  if (a.id != b.id) return a.id < b.id;
  return a.addr.ToString() < b.addr.ToString();
}

}  // namespace

double CanNode::DistanceTo(const Point& p) const {
  double best = std::numeric_limits<double>::infinity();
  for (const Zone& z : zones_) best = std::min(best, z.DistanceTo(p));
  return best;
}

CanNetwork::CanNetwork(const overlay::OverlayParams& params, uint64_t seed)
    : Overlay(params.latency, seed ^ 0x123456), params_(params), rng_(seed) {}

Result<NetAddress> CanNetwork::CreateAddress() {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    NetAddress addr;
    addr.host = rng_.Next32();
    addr.port = static_cast<uint16_t>(1024 + rng_.NextBounded(60000));
    if (!nodes_.contains(addr)) return addr;
  }
  return Status::Internal("could not generate a unique address");
}

Result<CanNetwork> CanNetwork::Make(size_t num_nodes, uint64_t seed,
                                    const overlay::OverlayParams& params) {
  if (num_nodes == 0) {
    return Status::InvalidArgument("a CAN needs at least one node");
  }
  if (params.can_dims < 1 || params.can_dims > kMaxDims) {
    return Status::InvalidArgument("dims must be in [1, " +
                                   std::to_string(kMaxDims) + "]");
  }
  RETURN_NOT_OK(params.latency.Validate());
  CanNetwork net(params, seed);
  // Bootstrap node owns the whole space.
  ASSIGN_OR_RETURN(const NetAddress first, net.CreateAddress());
  net.InsertNode(first, Zone::Root(params.can_dims));
  for (size_t i = 1; i < num_nodes; ++i) {
    RETURN_NOT_OK(net.AddNode().status());
  }
  net.ResetNetStats();
  return net;
}

CanNode& CanNetwork::InsertNode(const NetAddress& addr, const Zone& zone) {
  auto fresh = std::make_unique<CanNode>(
      overlay::PeerInfo{Sha1::Hash32(addr.ToString()), addr});
  fresh->mutable_zones().push_back(zone);
  network().Register(addr);
  addresses_.push_back(addr);
  return *nodes_.emplace(addr, std::move(fresh)).first->second;
}

CanNode* CanNetwork::mutable_node(const NetAddress& addr) {
  auto it = nodes_.find(addr);
  return it == nodes_.end() ? nullptr : it->second.get();
}

const CanNode* CanNetwork::node(const NetAddress& addr) const {
  auto it = nodes_.find(addr);
  return it == nodes_.end() ? nullptr : it->second.get();
}

size_t CanNetwork::num_alive() const {
  size_t n = 0;
  for (const auto& [addr, node] : nodes_) {
    if (IsAlive(addr)) ++n;
  }
  return n;
}

Result<NetAddress> CanNetwork::RandomAliveAddress() {
  std::vector<NetAddress> alive;
  alive.reserve(nodes_.size());
  for (const auto& [addr, node] : nodes_) {
    if (IsAlive(addr)) alive.push_back(addr);
  }
  if (alive.empty()) return Status::NotFound("no live CAN nodes");
  return alive[rng_.NextBounded(alive.size())];
}

std::vector<overlay::PeerInfo> CanNetwork::AlivePeersOrdered() const {
  std::vector<overlay::PeerInfo> out;
  out.reserve(nodes_.size());
  for (const auto& [addr, node] : nodes_) {
    if (IsAlive(addr)) out.push_back(node->info());
  }
  std::sort(out.begin(), out.end(), PeerOrder);
  return out;
}

Result<overlay::PeerInfo> CanNetwork::FindOwnerOracle(const Point& p) const {
  for (const auto& [addr, node] : nodes_) {
    if (IsAlive(addr) && node->Owns(p)) return node->info();
  }
  return Status::NotFound("no live node owns the point");
}

Result<overlay::PeerInfo> CanNetwork::OwnerOracle(uint32_t identifier) const {
  return FindOwnerOracle(IdentifierToPoint(identifier, params_.can_dims));
}

std::vector<overlay::PeerInfo> CanNetwork::ReplicaCandidates(
    const NetAddress& owner) const {
  std::vector<overlay::PeerInfo> out;
  const CanNode* n = node(owner);
  if (n == nullptr) return out;
  out.reserve(n->neighbors().size());
  for (const NetAddress& addr : n->neighbors()) {
    out.push_back(node(addr)->info());
  }
  // Neighbor sets are rebuilt in map order; sort for a deterministic
  // preference order independent of hash-table layout.
  std::sort(out.begin(), out.end(), PeerOrder);
  if (out.size() > overlay::kReplicaListLen) {
    out.resize(overlay::kReplicaListLen);
  }
  return out;
}

Result<CanNode*> CanNetwork::Route(const NetAddress& from, const Point& p,
                                   overlay::RouteResult* out) {
  CanNode* cur = mutable_node(from);
  if (cur == nullptr || !IsAlive(from)) {
    return Status::InvalidArgument("route origin " + from.ToString() +
                                   " is not a live CAN node");
  }
  std::set<NetAddress> visited;
  // Safety bound on greedy routing steps.
  constexpr int kMaxRouteSteps = 4096;
  for (int step = 0; step < kMaxRouteSteps; ++step) {
    if (cur->Owns(p)) return cur;
    visited.insert(cur->addr());
    // Greedy: forward to the neighbor whose zones are closest to the
    // target point; skip dead or already-visited nodes.
    CanNode* best = nullptr;
    double best_dist = std::numeric_limits<double>::infinity();
    for (const NetAddress& naddr : cur->neighbors()) {
      if (!IsAlive(naddr) || visited.contains(naddr)) continue;
      CanNode* cand = mutable_node(naddr);
      const double dist = cand->DistanceTo(p);
      if (dist < best_dist) {
        best_dist = dist;
        best = cand;
      }
    }
    if (best == nullptr) {
      return Status::Unavailable("greedy routing is stuck at " +
                                 cur->addr().ToString());
    }
    auto latency = network().Deliver(from, best->addr());
    RETURN_NOT_OK(latency.status());
    if (out != nullptr) {
      ++out->hops;
      out->latency_ms += *latency;
    }
    cur = best;
  }
  return Status::Internal("CAN routing did not converge");
}

Result<overlay::RouteResult> CanNetwork::RouteToOwner(const NetAddress& from,
                                                      uint32_t identifier) {
  overlay::RouteResult result;
  const Point p = IdentifierToPoint(identifier, params_.can_dims);
  ASSIGN_OR_RETURN(const CanNode* owner, Route(from, p, &result));
  result.owner = owner->info();
  return result;
}

void CanNetwork::RebuildNeighborhoods(const std::vector<NetAddress>& affected) {
  // Collect the affected nodes plus everything currently adjacent to
  // them, then recompute pairwise adjacency within that set against
  // all live nodes. Ring sizes here are simulation-scale; local
  // recomputation keeps the protocol logic simple and correct.
  std::set<NetAddress> frontier(affected.begin(), affected.end());
  for (const NetAddress& a : affected) {
    const CanNode* n = node(a);
    if (n == nullptr) continue;
    for (const NetAddress& nb : n->neighbors()) frontier.insert(nb);
  }
  for (const NetAddress& a : frontier) {
    CanNode* n = mutable_node(a);
    if (n == nullptr || !IsAlive(a)) continue;
    auto& nbrs = n->mutable_neighbors();
    nbrs.clear();
    for (const auto& [baddr, bnode] : nodes_) {
      if (baddr == a || !IsAlive(baddr)) continue;
      bool adjacent = false;
      for (const Zone& za : n->zones()) {
        for (const Zone& zb : bnode->zones()) {
          if (za.IsNeighbor(zb)) {
            adjacent = true;
            break;
          }
        }
        if (adjacent) break;
      }
      if (adjacent) nbrs.push_back(baddr);
    }
  }
}

Result<NetAddress> CanNetwork::SplitZoneForJoin(const NetAddress& bootstrap,
                                                Zone* joiner_half) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    Point p;
    for (int d = 0; d < params_.can_dims; ++d) p.coords[d] = rng_.Next32();
    ASSIGN_OR_RETURN(CanNode* owner, Route(bootstrap, p, nullptr));
    // Split the owner's zone that contains the point, along its widest
    // dimension. The joiner takes the half containing the point.
    size_t zone_idx = 0;
    while (zone_idx < owner->zones().size() &&
           !owner->zones()[zone_idx].Contains(p)) {
      ++zone_idx;
    }
    DCHECK_LT(zone_idx, owner->zones().size());
    const Zone zone = owner->zones()[zone_idx];
    const int dim = zone.WidestDim();
    if (zone.width(dim) < 2) continue;  // unsplittable sliver; new point
    auto [lower, upper] = zone.Split(dim);
    *joiner_half = lower.Contains(p) ? lower : upper;
    owner->mutable_zones()[zone_idx] = lower.Contains(p) ? upper : lower;
    return owner->addr();
  }
  return Status::Internal("could not find a splittable zone to join into");
}

Result<overlay::PeerInfo> CanNetwork::AddNode() {
  // Pick a bootstrap and a fresh address, then run the join.
  ASSIGN_OR_RETURN(const NetAddress bootstrap, RandomAliveAddress());
  ASSIGN_OR_RETURN(const NetAddress addr, CreateAddress());
  Zone half;
  ASSIGN_OR_RETURN(const NetAddress owner, SplitZoneForJoin(bootstrap, &half));
  const overlay::PeerInfo info = InsertNode(addr, half).info();
  RebuildNeighborhoods({owner, addr});
  return info;
}

Status CanNetwork::Leave(const NetAddress& addr) {
  CanNode* leaver = mutable_node(addr);
  if (leaver == nullptr) return Status::NotFound("unknown CAN node");
  if (!IsAlive(addr)) return Status::InvalidArgument("node already down");
  if (num_alive() == 1) {
    return Status::InvalidArgument("the last CAN node cannot leave");
  }

  std::vector<NetAddress> affected{addr};
  for (const Zone& zone : leaver->zones()) {
    // Prefer a neighbor whose zone merges with this one into a box;
    // otherwise the smallest-volume neighbor takes it over verbatim.
    CanNode* taker = nullptr;
    size_t merge_idx = 0;
    bool mergeable = false;
    double best_volume = std::numeric_limits<double>::infinity();
    for (const NetAddress& naddr : leaver->neighbors()) {
      CanNode* cand = mutable_node(naddr);
      if (cand == nullptr || !IsAlive(naddr)) continue;
      for (size_t zi = 0; zi < cand->zones().size(); ++zi) {
        if (cand->zones()[zi].CanMergeWith(zone, nullptr)) {
          taker = cand;
          merge_idx = zi;
          mergeable = true;
          break;
        }
      }
      if (mergeable) break;
      if (cand->Volume() < best_volume) {
        best_volume = cand->Volume();
        taker = cand;
      }
    }
    if (taker == nullptr) {
      return Status::Internal("departing node has no live neighbor");
    }
    if (mergeable) {
      taker->mutable_zones()[merge_idx] =
          taker->zones()[merge_idx].MergeWith(zone);
    } else {
      taker->mutable_zones().push_back(zone);
    }
    affected.push_back(taker->addr());
  }
  RETURN_NOT_OK(network().SetAlive(addr, false));
  leaver->mutable_zones().clear();
  RebuildNeighborhoods(affected);
  return Status::OK();
}

Status CanNetwork::Fail(const NetAddress& addr) {
  if (node(addr) == nullptr) return Status::NotFound("unknown CAN node");
  if (!IsAlive(addr)) return Status::InvalidArgument("node already down");
  if (num_alive() == 1) {
    return Status::InvalidArgument("the last CAN node cannot fail");
  }
  return network().SetAlive(addr, false);
}

Status CanNetwork::Recover(const NetAddress& addr) {
  CanNode* n = mutable_node(addr);
  if (n == nullptr) return Status::NotFound("unknown CAN node");
  if (IsAlive(addr)) return Status::InvalidArgument("node already up");
  RETURN_NOT_OK(network().SetAlive(addr, true));
  if (!n->zones().empty()) {
    // Crash not yet taken over: the node simply resumes its zones.
    RebuildNeighborhoods({addr});
    return Status::OK();
  }
  // Its zones were taken over: re-join through the protocol, keeping
  // the address, from a deterministic live, zone-owning bootstrap.
  const CanNode* bootstrap = nullptr;
  for (const NetAddress& a : addresses_) {
    const CanNode* cand = node(a);
    if (a == addr || cand == nullptr || !IsAlive(a)) continue;
    if (cand->zones().empty()) continue;
    bootstrap = cand;
    break;
  }
  if (bootstrap == nullptr) {
    return Status::Internal("no live zone-owning node to bootstrap from");
  }
  Zone half;
  ASSIGN_OR_RETURN(const NetAddress owner,
                   SplitZoneForJoin(bootstrap->addr(), &half));
  n->mutable_zones().push_back(half);
  RebuildNeighborhoods({owner, addr});
  return Status::OK();
}

void CanNetwork::Stabilize(int rounds) {
  for (int i = 0; i < rounds; ++i) {
    if (TakeoverDeadZones() == 0) break;
  }
}

size_t CanNetwork::TakeoverDeadZones() {
  size_t transferred = 0;
  for (const NetAddress& dead_addr : addresses_) {
    CanNode* dead = mutable_node(dead_addr);
    if (dead == nullptr || IsAlive(dead_addr) || dead->zones().empty()) {
      continue;
    }
    std::vector<NetAddress> affected;
    bool all_taken = true;
    std::vector<Zone> remaining;
    for (const Zone& zone : dead->zones()) {
      // Prefer a live node with a mergeable zone (neighbors first, as
      // the takeover protocol would find); otherwise the
      // smallest-volume live node absorbs the zone verbatim.
      CanNode* taker = nullptr;
      size_t merge_idx = 0;
      bool mergeable = false;
      double best_volume = std::numeric_limits<double>::infinity();
      auto consider = [&](CanNode* cand) {
        if (mergeable || cand == nullptr || cand == dead) return;
        if (!IsAlive(cand->addr())) return;
        for (size_t zi = 0; zi < cand->zones().size(); ++zi) {
          if (cand->zones()[zi].CanMergeWith(zone, nullptr)) {
            taker = cand;
            merge_idx = zi;
            mergeable = true;
            return;
          }
        }
        if (cand->Volume() < best_volume) {
          best_volume = cand->Volume();
          taker = cand;
        }
      };
      for (const NetAddress& naddr : dead->neighbors()) {
        consider(mutable_node(naddr));
      }
      if (taker == nullptr) {
        for (const NetAddress& a : addresses_) consider(mutable_node(a));
      }
      if (taker == nullptr) {
        // No live node anywhere: the zone stays orphaned for now.
        remaining.push_back(zone);
        all_taken = false;
        continue;
      }
      if (mergeable) {
        taker->mutable_zones()[merge_idx] =
            taker->zones()[merge_idx].MergeWith(zone);
      } else {
        taker->mutable_zones().push_back(zone);
      }
      affected.push_back(taker->addr());
      ++transferred;
    }
    dead->mutable_zones() = std::move(remaining);
    // The dead node's former neighbors abut the transferred zones but
    // may not have been adjacent to any taker before the transfer, so
    // they must be rebuilt too or they keep pointing at the dead node.
    for (const NetAddress& naddr : dead->neighbors()) {
      affected.push_back(naddr);
    }
    if (all_taken) dead->mutable_neighbors().clear();
    if (!affected.empty()) RebuildNeighborhoods(affected);
  }
  return transferred;
}

std::vector<double> CanNetwork::Volumes() const {
  std::vector<double> out;
  for (const auto& [addr, node] : nodes_) {
    if (IsAlive(addr)) out.push_back(node->Volume());
  }
  return out;
}

std::vector<size_t> CanNetwork::RoutingStateSizes() const {
  std::vector<size_t> out;
  for (const auto& [addr, node] : nodes_) {
    if (IsAlive(addr)) out.push_back(node->neighbors().size());
  }
  return out;
}

Status CanNetwork::CheckInvariants() const {
  // Volumes tile the space.
  double total = 0;
  for (double v : Volumes()) total += v;
  if (std::abs(total - 1.0) > 1e-9) {
    return Status::Internal("zone volumes sum to " + std::to_string(total));
  }
  // Sampled points have exactly one owner.
  Rng probe(99);
  for (int i = 0; i < 256; ++i) {
    Point p;
    for (int d = 0; d < params_.can_dims; ++d) p.coords[d] = probe.Next32();
    int owners = 0;
    for (const auto& [addr, node] : nodes_) {
      if (IsAlive(addr) && node->Owns(p)) ++owners;
    }
    if (owners != 1) {
      return Status::Internal("point owned by " + std::to_string(owners) +
                              " nodes");
    }
  }
  // Neighbor sets are symmetric.
  for (const auto& [addr, n] : nodes_) {
    if (!IsAlive(addr)) continue;
    for (const NetAddress& nb : n->neighbors()) {
      const CanNode* other = node(nb);
      if (other == nullptr || !IsAlive(nb)) {
        return Status::Internal("neighbor list references a dead node");
      }
      const auto& back = other->neighbors();
      if (std::find(back.begin(), back.end(), addr) == back.end()) {
        return Status::Internal("asymmetric neighbor relation");
      }
    }
  }
  return Status::OK();
}

}  // namespace can
}  // namespace p2prange
