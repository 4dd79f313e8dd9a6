#include "can/network.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/logging.h"

namespace p2prange {
namespace can {

double CanNode::DistanceTo(const Point& p) const {
  double best = std::numeric_limits<double>::infinity();
  for (const Zone& z : zones_) best = std::min(best, z.DistanceTo(p));
  return best;
}

CanNetwork::CanNetwork(CanConfig config, uint64_t seed)
    : config_(config),
      rng_(seed),
      net_(std::make_unique<SimNetwork>(config.latency, seed ^ 0x123456)) {}

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
                                    CanConfig config) {
  if (num_nodes == 0) {
    return Status::InvalidArgument("a CAN needs at least one node");
  }
  if (config.dims < 1 || config.dims > kMaxDims) {
    return Status::InvalidArgument("dims must be in [1, " +
                                   std::to_string(kMaxDims) + "]");
  }
  RETURN_NOT_OK(config.latency.Validate());
  CanNetwork net(config, seed);
  // Bootstrap node owns the whole space.
  ASSIGN_OR_RETURN(const NetAddress first, net.CreateAddress());
  auto node = std::make_unique<CanNode>(first);
  node->mutable_zones().push_back(Zone::Root(config.dims));
  net.net_->Register(first);
  net.nodes_.emplace(first, std::move(node));
  net.addresses_.push_back(first);
  for (size_t i = 1; i < num_nodes; ++i) {
    RETURN_NOT_OK(net.AddNode().status());
  }
  net.net_->ResetStats();
  return net;
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
    if (net_->IsAlive(addr)) ++n;
  }
  return n;
}

Result<NetAddress> CanNetwork::RandomAliveAddress() {
  std::vector<NetAddress> alive;
  alive.reserve(nodes_.size());
  for (const auto& [addr, node] : nodes_) {
    if (net_->IsAlive(addr)) alive.push_back(addr);
  }
  if (alive.empty()) return Status::NotFound("no live CAN nodes");
  return alive[rng_.NextBounded(alive.size())];
}

std::vector<NetAddress> CanNetwork::AliveAddresses() const {
  std::vector<NetAddress> out;
  out.reserve(addresses_.size());
  for (const NetAddress& addr : addresses_) {
    if (net_->IsAlive(addr)) out.push_back(addr);
  }
  return out;
}

Result<NetAddress> CanNetwork::FindOwnerOracle(const Point& p) const {
  for (const auto& [addr, node] : nodes_) {
    if (net_->IsAlive(addr) && node->Owns(p)) return addr;
  }
  return Status::NotFound("no live node owns the point");
}

Result<NetAddress> CanNetwork::Route(const NetAddress& from, const Point& p,
                                     CanLookupResult* out) {
  const CanNode* cur = node(from);
  if (cur == nullptr || !net_->IsAlive(from)) {
    return Status::InvalidArgument("route origin " + from.ToString() +
                                   " is not a live CAN node");
  }
  std::set<NetAddress> visited;
  // Safety bound on greedy routing steps.
  constexpr int kMaxRouteSteps = 4096;
  for (int step = 0; step < kMaxRouteSteps; ++step) {
    if (cur->Owns(p)) return cur->addr();
    visited.insert(cur->addr());
    // Greedy: forward to the neighbor whose zones are closest to the
    // target point; skip dead or already-visited nodes.
    const CanNode* best = nullptr;
    double best_dist = std::numeric_limits<double>::infinity();
    for (const NetAddress& naddr : cur->neighbors()) {
      if (!net_->IsAlive(naddr) || visited.contains(naddr)) continue;
      const CanNode* cand = node(naddr);
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
    auto latency = net_->Deliver(from, best->addr());
    RETURN_NOT_OK(latency.status());
    if (out != nullptr) {
      ++out->hops;
      out->latency_ms += *latency;
    }
    cur = best;
  }
  return Status::Internal("CAN routing did not converge");
}

Result<CanLookupResult> CanNetwork::Lookup(const NetAddress& from,
                                           uint32_t identifier) {
  CanLookupResult result;
  const Point p = IdentifierToPoint(identifier, config_.dims);
  ASSIGN_OR_RETURN(result.owner, Route(from, p, &result));
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
    if (n == nullptr || !net_->IsAlive(a)) continue;
    auto& nbrs = n->mutable_neighbors();
    nbrs.clear();
    for (const auto& [baddr, bnode] : nodes_) {
      if (baddr == a || !net_->IsAlive(baddr)) continue;
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

Result<NetAddress> CanNetwork::AddNode() {
  // Pick a bootstrap and a random target point, then run the join.
  ASSIGN_OR_RETURN(const NetAddress bootstrap, RandomAliveAddress());
  ASSIGN_OR_RETURN(const NetAddress addr, CreateAddress());

  for (int attempt = 0; attempt < 64; ++attempt) {
    Point p;
    for (int d = 0; d < config_.dims; ++d) p.coords[d] = rng_.Next32();
    ASSIGN_OR_RETURN(const NetAddress owner_addr, Route(bootstrap, p, nullptr));
    CanNode* owner = mutable_node(owner_addr);
    // Split the owner's zone that contains the point, along its widest
    // dimension. The newcomer takes the half containing the point.
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
    const Zone& newcomer_half = lower.Contains(p) ? lower : upper;
    const Zone& owner_half = lower.Contains(p) ? upper : lower;
    owner->mutable_zones()[zone_idx] = owner_half;

    auto fresh = std::make_unique<CanNode>(addr);
    fresh->mutable_zones().push_back(newcomer_half);
    net_->Register(addr);
    nodes_.emplace(addr, std::move(fresh));
    addresses_.push_back(addr);
    RebuildNeighborhoods({owner_addr, addr});
    return addr;
  }
  return Status::Internal("could not find a splittable zone to join into");
}

Status CanNetwork::Leave(const NetAddress& addr) {
  CanNode* leaver = mutable_node(addr);
  if (leaver == nullptr) return Status::NotFound("unknown CAN node");
  if (!net_->IsAlive(addr)) return Status::InvalidArgument("node already down");
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
      if (cand == nullptr || !net_->IsAlive(naddr)) continue;
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
  RETURN_NOT_OK(net_->SetAlive(addr, false));
  leaver->mutable_zones().clear();
  RebuildNeighborhoods(affected);
  return Status::OK();
}

Status CanNetwork::Fail(const NetAddress& addr) {
  if (node(addr) == nullptr) return Status::NotFound("unknown CAN node");
  if (!net_->IsAlive(addr)) return Status::InvalidArgument("node already down");
  if (num_alive() == 1) {
    return Status::InvalidArgument("the last CAN node cannot fail");
  }
  return net_->SetAlive(addr, false);
}

Status CanNetwork::Recover(const NetAddress& addr) {
  CanNode* n = mutable_node(addr);
  if (n == nullptr) return Status::NotFound("unknown CAN node");
  if (net_->IsAlive(addr)) return Status::InvalidArgument("node already up");
  RETURN_NOT_OK(net_->SetAlive(addr, true));
  if (!n->zones().empty()) {
    // Crash not yet taken over: the node simply resumes its zones.
    RebuildNeighborhoods({addr});
    return Status::OK();
  }
  return JoinExisting(addr);
}

Status CanNetwork::JoinExisting(const NetAddress& addr) {
  // Bootstrap through a deterministic live, zone-owning node.
  const CanNode* bootstrap = nullptr;
  for (const NetAddress& a : addresses_) {
    const CanNode* cand = node(a);
    if (a == addr || cand == nullptr || !net_->IsAlive(a)) continue;
    if (cand->zones().empty()) continue;
    bootstrap = cand;
    break;
  }
  if (bootstrap == nullptr) {
    return Status::Internal("no live zone-owning node to bootstrap from");
  }
  for (int attempt = 0; attempt < 64; ++attempt) {
    Point p;
    for (int d = 0; d < config_.dims; ++d) p.coords[d] = rng_.Next32();
    ASSIGN_OR_RETURN(const NetAddress owner_addr,
                     Route(bootstrap->addr(), p, nullptr));
    CanNode* owner = mutable_node(owner_addr);
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
    const Zone& newcomer_half = lower.Contains(p) ? lower : upper;
    const Zone& owner_half = lower.Contains(p) ? upper : lower;
    owner->mutable_zones()[zone_idx] = owner_half;
    mutable_node(addr)->mutable_zones().push_back(newcomer_half);
    RebuildNeighborhoods({owner_addr, addr});
    return Status::OK();
  }
  return Status::Internal("could not find a splittable zone to join into");
}

size_t CanNetwork::TakeoverDeadZones() {
  size_t transferred = 0;
  for (const NetAddress& dead_addr : addresses_) {
    CanNode* dead = mutable_node(dead_addr);
    if (dead == nullptr || net_->IsAlive(dead_addr) || dead->zones().empty()) {
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
        if (!net_->IsAlive(cand->addr())) return;
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
    if (net_->IsAlive(addr)) out.push_back(node->Volume());
  }
  return out;
}

std::vector<size_t> CanNetwork::NeighborCounts() const {
  std::vector<size_t> out;
  for (const auto& [addr, node] : nodes_) {
    if (net_->IsAlive(addr)) out.push_back(node->neighbors().size());
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
    for (int d = 0; d < config_.dims; ++d) p.coords[d] = probe.Next32();
    int owners = 0;
    for (const auto& [addr, node] : nodes_) {
      if (net_->IsAlive(addr) && node->Owns(p)) ++owners;
    }
    if (owners != 1) {
      return Status::Internal("point owned by " + std::to_string(owners) +
                              " nodes");
    }
  }
  // Neighbor sets are symmetric.
  for (const auto& [addr, n] : nodes_) {
    if (!net_->IsAlive(addr)) continue;
    for (const NetAddress& nb : n->neighbors()) {
      const CanNode* other = node(nb);
      if (other == nullptr || !net_->IsAlive(nb)) {
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
