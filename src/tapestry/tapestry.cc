#include "tapestry/tapestry.h"

#include <algorithm>

#include "common/logging.h"
#include "hash/sha1.h"

namespace p2prange {
namespace tapestry {

void TapestryNode::ClearTable() {
  for (auto& level : table_) level.fill(std::nullopt);
}

size_t TapestryNode::PopulatedSlots() const {
  size_t n = 0;
  for (const auto& level : table_) {
    for (const auto& slot : level) n += slot.has_value();
  }
  return n;
}

TapestryMesh::TapestryMesh(const overlay::OverlayParams& params,
                           uint64_t seed)
    : Overlay(params.latency, seed ^ 0x7A9E57), rng_(seed) {}

Result<overlay::PeerInfo> TapestryMesh::CreateNode() {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    NetAddress addr;
    addr.host = rng_.Next32();
    addr.port = static_cast<uint16_t>(1024 + rng_.NextBounded(60000));
    if (nodes_.contains(addr)) continue;
    const uint32_t id = Sha1::Hash32(addr.ToString());
    bool id_taken = false;
    for (const auto& [a, n] : nodes_) id_taken |= (n->id() == id);
    if (id_taken) continue;
    network().Register(addr);
    const overlay::PeerInfo info{id, addr};
    nodes_.emplace(addr, std::make_unique<TapestryNode>(info));
    return info;
  }
  return Status::Internal("could not generate a unique mesh node");
}

Result<TapestryMesh> TapestryMesh::Make(size_t num_nodes, uint64_t seed,
                                        const overlay::OverlayParams& params) {
  if (num_nodes == 0) {
    return Status::InvalidArgument("a mesh needs at least one node");
  }
  RETURN_NOT_OK(params.latency.Validate());
  TapestryMesh mesh(params, seed);
  while (mesh.nodes_.size() < num_nodes) {
    RETURN_NOT_OK(mesh.CreateNode().status());
  }
  mesh.RepairRouting();
  return mesh;
}

Result<overlay::PeerInfo> TapestryMesh::AddNode() {
  ASSIGN_OR_RETURN(const overlay::PeerInfo info, CreateNode());
  RepairRouting();
  return info;
}

Status TapestryMesh::Leave(const NetAddress& addr) {
  if (!nodes_.contains(addr)) return Status::NotFound("unknown mesh node");
  if (!IsAlive(addr)) return Status::InvalidArgument("node already down");
  if (num_alive() == 1) {
    return Status::InvalidArgument("the last mesh node cannot leave");
  }
  RETURN_NOT_OK(network().SetAlive(addr, false));
  RepairRouting();
  return Status::OK();
}

Status TapestryMesh::Recover(const NetAddress& addr) {
  if (!nodes_.contains(addr)) return Status::NotFound("unknown mesh node");
  if (IsAlive(addr)) return Status::InvalidArgument("node already up");
  RETURN_NOT_OK(network().SetAlive(addr, true));
  RepairRouting();
  return Status::OK();
}

std::vector<overlay::PeerInfo> TapestryMesh::AlivePeersOrdered() const {
  std::vector<overlay::PeerInfo> out;
  out.reserve(nodes_.size());
  for (const auto& [addr, node] : nodes_) {
    if (IsAlive(addr)) out.push_back(node->info());
  }
  std::sort(out.begin(), out.end(),
            [](const overlay::PeerInfo& a, const overlay::PeerInfo& b) {
              return a.id < b.id;
            });
  return out;
}

void TapestryMesh::RepairRouting() {
  const std::vector<overlay::PeerInfo> alive = AlivePeersOrdered();
  for (const auto& [addr, node] : nodes_) {
    if (!IsAlive(addr)) continue;
    node->ClearTable();
    for (const overlay::PeerInfo& cand : alive) {  // ascending id = min-id fill
      if (cand.id == node->id()) continue;
      const int level = SharedPrefixLen(node->id(), cand.id);
      if (level == kDigits) continue;  // duplicate id (excluded at Make)
      const int digit = Digit(cand.id, level);
      if (!node->slot(level, digit)) {
        node->set_slot(level, digit, cand);
      }
    }
  }
}

size_t TapestryMesh::num_alive() const {
  size_t n = 0;
  for (const auto& [addr, node] : nodes_) n += IsAlive(addr);
  return n;
}

Result<NetAddress> TapestryMesh::RandomAliveAddress() {
  std::vector<NetAddress> alive;
  for (const auto& [addr, node] : nodes_) {
    if (IsAlive(addr)) alive.push_back(addr);
  }
  if (alive.empty()) return Status::NotFound("no live mesh nodes");
  return alive[rng_.NextBounded(alive.size())];
}

const TapestryNode* TapestryMesh::node(const NetAddress& addr) const {
  auto it = nodes_.find(addr);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<size_t> TapestryMesh::RoutingStateSizes() const {
  std::vector<size_t> out;
  for (const auto& [addr, node] : nodes_) {
    if (IsAlive(addr)) out.push_back(node->PopulatedSlots());
  }
  return out;
}

Status TapestryMesh::Fail(const NetAddress& addr) {
  if (!nodes_.contains(addr)) return Status::NotFound("unknown mesh node");
  return network().SetAlive(addr, false);
}

Result<overlay::PeerInfo> TapestryMesh::OwnerOracle(uint32_t target) const {
  // The surrogate root is start-independent: with globally min-id
  // filled tables, every lookup performs the same digit-by-digit
  // descent — at each level, take the cyclic successor (scanning
  // upward mod base from the target's digit) among the digits present
  // in the current prefix group. Replay that descent over the live id
  // set; RouteToOwner converges to the same node while charging hops.
  std::vector<overlay::PeerInfo> group = AlivePeersOrdered();
  if (group.empty()) return Status::NotFound("no live mesh nodes");
  for (int level = 0; level < kDigits && group.size() > 1; ++level) {
    const int desired = Digit(target, level);
    bool present[kBase] = {};
    for (const auto& n : group) present[Digit(n.id, level)] = true;
    int chosen = -1;
    for (int k = 0; k < kBase; ++k) {
      const int d = (desired + k) % kBase;
      if (present[d]) {
        chosen = d;
        break;
      }
    }
    std::vector<overlay::PeerInfo> next;
    for (const auto& n : group) {
      if (Digit(n.id, level) == chosen) next.push_back(n);
    }
    group = std::move(next);
  }
  return group.front();
}

std::vector<overlay::PeerInfo> TapestryMesh::ReplicaCandidates(
    const NetAddress& owner) const {
  std::vector<overlay::PeerInfo> out;
  const TapestryNode* n = node(owner);
  if (n == nullptr) return out;
  const std::vector<overlay::PeerInfo> alive = AlivePeersOrdered();
  if (alive.empty()) return out;
  // The next nodes clockwise in identifier order, wrapping — the
  // deterministic analogue of Chord's successor list.
  size_t start = 0;
  while (start < alive.size() && alive[start].id <= n->id()) ++start;
  for (size_t k = 0; k < alive.size() && out.size() < overlay::kReplicaListLen;
       ++k) {
    const overlay::PeerInfo& cand = alive[(start + k) % alive.size()];
    if (cand.addr == owner) continue;
    out.push_back(cand);
  }
  return out;
}

Result<overlay::RouteResult> TapestryMesh::RouteToOwner(const NetAddress& from,
                                                        uint32_t target) {
  const TapestryNode* cur = node(from);
  if (cur == nullptr || !IsAlive(from)) {
    return Status::InvalidArgument("lookup origin " + from.ToString() +
                                   " is not a live mesh node");
  }
  overlay::RouteResult result;
  // At most kDigits levels are resolved, and each hop strictly
  // increases the shared-prefix length or terminates, so 4 * kDigits
  // steps bound the loop generously.
  for (int step = 0; step < 4 * kDigits; ++step) {
    int level = SharedPrefixLen(cur->id(), target);
    if (level == kDigits) {
      result.owner = cur->info();
      return result;
    }
    // Surrogate scan: from the desired digit upward (mod base), take
    // the first digit with a candidate; if the first hit is this
    // node's own digit, the node is the best at this level — continue
    // at the next level ("self counts for its own slot").
    const overlay::PeerInfo* next = nullptr;
    bool advanced = false;
    while (level < kDigits && next == nullptr) {
      const int desired = Digit(target, level);
      const int own = Digit(cur->id(), level);
      for (int k = 0; k < kBase; ++k) {
        const int d = (desired + k) % kBase;
        if (d == own) {
          // This node occupies the scanned slot: climb a level.
          ++level;
          advanced = true;
          break;
        }
        const auto& slot = cur->slot(level, d);
        if (slot && IsAlive(slot->addr)) {
          next = &*slot;
          break;
        }
      }
      if (!advanced && next == nullptr) {
        // Neither a live candidate nor our own digit: the level is
        // empty of live nodes; this node is the surrogate root.
        result.owner = cur->info();
        return result;
      }
      advanced = false;
    }
    if (level == kDigits || next == nullptr) {
      result.owner = cur->info();
      return result;
    }
    auto latency = network().Deliver(from, next->addr);
    RETURN_NOT_OK(latency.status());
    ++result.hops;
    result.latency_ms += *latency;
    cur = node(next->addr);
    DCHECK(cur != nullptr);
  }
  return Status::Internal("tapestry routing did not converge");
}

}  // namespace tapestry
}  // namespace p2prange
