#include "chord/ring.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "hash/sha1.h"

namespace p2prange {
namespace chord {

ChordRing::ChordRing(const overlay::OverlayParams& params, uint64_t seed)
    : Overlay(params.latency, seed ^ 0xABCDEF), params_(params), rng_(seed) {}

Result<ChordRing> ChordRing::Make(size_t num_nodes, uint64_t seed,
                                  const overlay::OverlayParams& params) {
  if (num_nodes == 0) {
    return Status::InvalidArgument("a ring needs at least one node");
  }
  if (params.successor_list_len < 1) {
    return Status::InvalidArgument("successor_list_len must be >= 1");
  }
  if (params.max_message_retries < 0) {
    return Status::InvalidArgument("max_message_retries must be >= 0");
  }
  RETURN_NOT_OK(params.latency.Validate());
  ChordRing ring(params, seed);
  for (size_t i = 0; i < num_nodes; ++i) {
    RETURN_NOT_OK(ring.CreateNode().status());
  }
  ring.RebuildPerfectState();
  return ring;
}

Result<overlay::PeerInfo> ChordRing::CreateNode() {
  // Draw addresses until both the address and its SHA-1 identifier are
  // unused. Identifier collisions are ~N^2/2^33 likely, so a couple of
  // retries suffice at any realistic scale.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    NetAddress addr;
    addr.host = rng_.Next32();
    addr.port = static_cast<uint16_t>(1024 + rng_.NextBounded(60000));
    if (nodes_.contains(addr)) continue;
    const ChordId id = Sha1::Hash32(addr.ToString());
    bool id_taken = false;
    for (const auto& [a, n] : nodes_) {
      if (n->id() == id) {
        id_taken = true;
        break;
      }
    }
    if (id_taken) continue;
    auto node = std::make_unique<ChordNode>(id, addr);
    const overlay::PeerInfo info = node->info();
    network().Register(addr);
    nodes_.emplace(addr, std::move(node));
    addresses_.push_back(addr);
    MarkDirty();
    return info;
  }
  return Status::Internal("could not generate a unique node identifier");
}

const std::vector<overlay::PeerInfo>& ChordRing::SortedAlive() const {
  if (sorted_dirty_) {
    sorted_alive_.clear();
    sorted_alive_.reserve(nodes_.size());
    for (const auto& [addr, node] : nodes_) {
      if (IsAlive(addr)) sorted_alive_.push_back(node->info());
    }
    std::sort(sorted_alive_.begin(), sorted_alive_.end(),
              [](const overlay::PeerInfo& a, const overlay::PeerInfo& b) {
                return a.id < b.id;
              });
    sorted_dirty_ = false;
  }
  return sorted_alive_;
}

size_t ChordRing::num_alive() const { return SortedAlive().size(); }

std::vector<overlay::PeerInfo> ChordRing::AlivePeersOrdered() const {
  return SortedAlive();
}

Result<NetAddress> ChordRing::RandomAliveAddress() {
  const auto& alive = SortedAlive();
  if (alive.empty()) return Status::NotFound("no live nodes");
  return alive[rng_.NextBounded(alive.size())].addr;
}

ChordNode* ChordRing::node(const NetAddress& addr) {
  auto it = nodes_.find(addr);
  return it == nodes_.end() ? nullptr : it->second.get();
}

const ChordNode* ChordRing::node(const NetAddress& addr) const {
  auto it = nodes_.find(addr);
  return it == nodes_.end() ? nullptr : it->second.get();
}

Result<overlay::PeerInfo> ChordRing::OwnerOracle(ChordId target) const {
  const auto& alive = SortedAlive();
  if (alive.empty()) return Status::NotFound("no live nodes");
  // First node with id >= target, wrapping to the smallest id.
  auto it = std::lower_bound(
      alive.begin(), alive.end(), target,
      [](const overlay::PeerInfo& n, ChordId t) { return n.id < t; });
  if (it == alive.end()) it = alive.begin();
  return *it;
}

std::vector<overlay::PeerInfo> ChordRing::ReplicaCandidates(
    const NetAddress& owner) const {
  std::vector<overlay::PeerInfo> out;
  const ChordNode* n = node(owner);
  if (n == nullptr) return out;
  out.reserve(n->successors().size());
  for (const overlay::PeerInfo& succ : n->successors()) {
    if (succ.addr == owner) continue;  // the owner backs itself up last
    out.push_back(succ);
  }
  return out;
}

std::vector<size_t> ChordRing::RoutingStateSizes() const {
  std::vector<size_t> out;
  for (const overlay::PeerInfo& info : SortedAlive()) {
    const ChordNode* n = node(info.addr);
    std::set<ChordId> distinct;
    for (int i = 0; i < FingerTable::size(); ++i) {
      if (n->fingers().entry(i)) distinct.insert(n->fingers().entry(i)->id);
    }
    for (const overlay::PeerInfo& s : n->successors()) distinct.insert(s.id);
    out.push_back(distinct.size());
  }
  return out;
}

void ChordRing::RebuildPerfectState() {
  const auto& alive = SortedAlive();
  const size_t n = alive.size();
  if (n == 0) return;
  // Index of each live node in ring order.
  for (size_t i = 0; i < n; ++i) {
    ChordNode* nd = node(alive[i].addr);
    // Predecessor: previous in ring order (self in a 1-node ring).
    nd->set_predecessor(alive[(i + n - 1) % n]);
    // Successor list: the next `successor_list_len` nodes clockwise.
    auto& succ = nd->mutable_successors();
    succ.clear();
    const size_t len = std::min<size_t>(params_.successor_list_len, n);
    for (size_t j = 1; j <= len; ++j) succ.push_back(alive[(i + j) % n]);
    if (succ.empty()) succ.push_back(nd->info());  // 1-node ring
    // Fingers: successor of id + 2^k.
    FingerTable& ft = nd->mutable_fingers();
    for (int k = 0; k < FingerTable::size(); ++k) {
      const ChordId start = FingerStart(nd->id(), k);
      auto it = std::lower_bound(
          alive.begin(), alive.end(), start,
          [](const overlay::PeerInfo& a, ChordId t) { return a.id < t; });
      if (it == alive.end()) it = alive.begin();
      ft.set_entry(k, *it);
    }
  }
}

overlay::PeerInfo ChordRing::FirstAliveSuccessor(const ChordNode& n) const {
  for (const overlay::PeerInfo& s : n.successors()) {
    if (IsAlive(s.addr)) return s;
  }
  return n.info();
}

Result<overlay::PeerInfo> ChordRing::ProtocolFindSuccessor(
    const NetAddress& from, ChordId target, overlay::RouteResult* out) {
  const ChordNode* origin = node(from);
  if (origin == nullptr || !IsAlive(from)) {
    return Status::InvalidArgument("lookup origin " + from.ToString() +
                                   " is not a live peer");
  }
  auto charge = [&](const NetAddress& to) -> Status {
    // Messages to live peers may be lost in transit; retransmit a few
    // times before giving up. Every attempt pays latency.
    Status last;
    for (int attempt = 0; attempt <= params_.max_message_retries; ++attempt) {
      auto latency = network().Deliver(from, to);
      if (latency.ok()) {
        if (out != nullptr) {
          ++out->hops;
          out->latency_ms += *latency;
        }
        return Status::OK();
      }
      last = latency.status();
      if (!last.IsIOError()) return last;  // dead peer: retrying is futile
      if (out != nullptr) out->latency_ms += params_.latency.base_ms;
    }
    return last;
  };

  const ChordNode* cur = origin;
  // Safety bound on routing steps before a lookup is declared broken.
  constexpr int kMaxLookupSteps = 3 * kIdBits;
  for (int step = 0; step < kMaxLookupSteps; ++step) {
    const overlay::PeerInfo succ = FirstAliveSuccessor(*cur);
    if (InOpenClosed(cur->id(), succ.id, target)) {
      // succ owns the target; contact it (the final routing hop),
      // unless the owner is the node we are already talking to.
      if (succ.addr != cur->addr()) RETURN_NOT_OK(charge(succ.addr));
      return succ;
    }
    auto usable = [this](const overlay::PeerInfo& cand) {
      return IsAlive(cand.addr);
    };
    std::optional<overlay::PeerInfo> next =
        cur->ClosestPrecedingNode(target, usable);
    if (!next || next->addr == cur->addr()) {
      next = succ;  // cannot improve; fall through to the successor
    }
    if (next->addr == cur->addr()) {
      // Degenerate ring (everything points at cur): cur is the owner.
      return cur->info();
    }
    RETURN_NOT_OK(charge(next->addr));
    cur = node(next->addr);
    DCHECK(cur != nullptr);
  }
  return Status::Internal("lookup for " + std::to_string(target) +
                          " did not converge; ring state is inconsistent");
}

Result<overlay::RouteResult> ChordRing::RouteToOwner(const NetAddress& from,
                                                     ChordId target) {
  overlay::RouteResult result;
  ASSIGN_OR_RETURN(result.owner, ProtocolFindSuccessor(from, target, &result));
  return result;
}

Result<overlay::PeerInfo> ChordRing::AddNode() {
  // Pick a bootstrap peer before registering the newcomer.
  auto bootstrap = RandomAliveAddress();
  ASSIGN_OR_RETURN(const overlay::PeerInfo info, CreateNode());
  ChordNode* fresh = node(info.addr);
  if (!bootstrap.ok()) {
    // First node of the system: a ring of one.
    fresh->mutable_successors().push_back(info);
    fresh->set_predecessor(info);
    return info;
  }
  // Chord join: resolve our own identifier through the bootstrap node.
  ASSIGN_OR_RETURN(const overlay::PeerInfo succ,
                   ProtocolFindSuccessor(*bootstrap, info.id, nullptr));
  JoinBehind(*fresh, succ);
  return info;
}

void ChordRing::JoinBehind(ChordNode& n, const overlay::PeerInfo& succ) {
  auto& list = n.mutable_successors();
  list.push_back(succ);
  for (const overlay::PeerInfo& s : node(succ.addr)->successors()) {
    if (static_cast<int>(list.size()) >= params_.successor_list_len) break;
    if (s.addr == n.addr()) continue;
    if (std::find(list.begin(), list.end(), s) != list.end()) continue;
    list.push_back(s);
  }
  StabilizeNode(n);
  FixFingers(n);
}

Status ChordRing::Leave(const NetAddress& addr) {
  ChordNode* n = node(addr);
  if (n == nullptr) return Status::NotFound("unknown peer " + addr.ToString());
  if (!IsAlive(addr)) return Status::InvalidArgument("peer already down");
  // Graceful departure: hand our successor to our predecessor and our
  // predecessor to our successor, then go down.
  const overlay::PeerInfo succ = FirstAliveSuccessor(*n);
  if (n->predecessor() && IsAlive(n->predecessor()->addr) &&
      n->predecessor()->addr != addr) {
    ChordNode* pred = node(n->predecessor()->addr);
    auto& list = pred->mutable_successors();
    std::erase_if(list,
                  [&](const overlay::PeerInfo& s) { return s.addr == addr; });
    if (succ.addr != addr &&
        std::find(list.begin(), list.end(), succ) == list.end()) {
      list.insert(list.begin(), succ);
    }
  }
  if (succ.addr != addr) {
    ChordNode* s = node(succ.addr);
    if (s->predecessor() && s->predecessor()->addr == addr) {
      s->set_predecessor(n->predecessor());
    }
  }
  RETURN_NOT_OK(network().SetAlive(addr, false));
  MarkDirty();
  return Status::OK();
}

Status ChordRing::Fail(const NetAddress& addr) {
  if (node(addr) == nullptr) return Status::NotFound("unknown peer " + addr.ToString());
  RETURN_NOT_OK(network().SetAlive(addr, false));
  MarkDirty();
  return Status::OK();
}

Status ChordRing::Recover(const NetAddress& addr) {
  ChordNode* n = node(addr);
  if (n == nullptr) return Status::NotFound("unknown peer " + addr.ToString());
  if (IsAlive(addr)) return Status::InvalidArgument("peer already up");
  // Stale routing state from before the crash would point anywhere;
  // wipe it and re-bootstrap like a joiner.
  n->mutable_successors().clear();
  n->set_predecessor(std::nullopt);
  n->mutable_fingers().Clear();
  auto bootstrap = RandomAliveAddress();
  RETURN_NOT_OK(network().SetAlive(addr, true));
  MarkDirty();
  if (!bootstrap.ok()) {
    // Everyone else is down: a ring of one.
    n->mutable_successors().push_back(n->info());
    n->set_predecessor(n->info());
    return Status::OK();
  }
  auto succ = ProtocolFindSuccessor(*bootstrap, n->id(), nullptr);
  if (!succ.ok() || succ->addr == addr) {
    // Bootstrap routing failed (e.g. heavy loss) or resolved to the
    // recovering node itself: start as a self-ring; notifies during
    // later stabilization sweeps reconnect it.
    n->mutable_successors().push_back(n->info());
    return Status::OK();
  }
  JoinBehind(*n, *succ);
  return Status::OK();
}

void ChordRing::StabilizeNode(ChordNode& n) {
  overlay::PeerInfo succ = FirstAliveSuccessor(n);
  if (succ.addr == n.addr()) {
    // Self-ring. If a joiner has announced itself as our predecessor,
    // adopt it as successor (this is how a 1-node ring grows);
    // otherwise stay collapsed until a notify reconnects us.
    if (n.predecessor() && n.predecessor()->addr != n.addr() &&
        IsAlive(n.predecessor()->addr)) {
      succ = *n.predecessor();
      n.mutable_successors().assign(1, succ);
    } else {
      n.mutable_successors().assign(1, n.info());
      return;
    }
  }
  ChordNode* s = node(succ.addr);
  // Adopt the successor's predecessor when it sits between us.
  const auto& x = s->predecessor();
  if (x && IsAlive(x->addr) && InOpenOpen(n.id(), succ.id, x->id)) {
    succ = *x;
    s = node(succ.addr);
  }
  // Reconcile the successor list from the (possibly new) successor.
  auto& list = n.mutable_successors();
  list.clear();
  list.push_back(succ);
  for (const overlay::PeerInfo& e : s->successors()) {
    if (static_cast<int>(list.size()) >= params_.successor_list_len) break;
    if (e.addr == n.addr()) continue;
    if (!IsAlive(e.addr)) continue;
    if (std::find(list.begin(), list.end(), e) == list.end()) list.push_back(e);
  }
  Notify(*s, n.info());
  // Drop a dead predecessor so a live one can claim the slot.
  if (n.predecessor() && !IsAlive(n.predecessor()->addr)) {
    n.set_predecessor(std::nullopt);
  }
}

void ChordRing::Notify(ChordNode& successor,
                       const overlay::PeerInfo& candidate) {
  const auto& pred = successor.predecessor();
  if (!pred || !IsAlive(pred->addr) ||
      InOpenOpen(pred->id, successor.id(), candidate.id)) {
    if (candidate.addr != successor.addr()) successor.set_predecessor(candidate);
  }
}

void ChordRing::FixFingers(ChordNode& n) {
  for (int k = 0; k < FingerTable::size(); ++k) {
    auto succ = ProtocolFindSuccessor(n.addr(), FingerStart(n.id(), k), nullptr);
    if (succ.ok()) {
      n.mutable_fingers().set_entry(k, *succ);
    } else {
      n.mutable_fingers().clear_entry(k);
    }
  }
}

void ChordRing::Stabilize(int rounds) {
  for (int r = 0; r < rounds; ++r) {
    for (const NetAddress& addr : addresses_) {
      if (!IsAlive(addr)) continue;
      StabilizeNode(*node(addr));
    }
  }
}

void ChordRing::RepairRouting() {
  for (const NetAddress& addr : addresses_) {
    if (!IsAlive(addr)) continue;
    FixFingers(*node(addr));
  }
}

}  // namespace chord
}  // namespace p2prange
