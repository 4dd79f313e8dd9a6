#include "chord/node.h"

namespace p2prange {
namespace chord {

std::optional<overlay::PeerInfo> ChordNode::ClosestPrecedingNode(
    ChordId target,
    const std::function<bool(const overlay::PeerInfo&)>& usable) const {
  std::optional<overlay::PeerInfo> best;
  auto consider = [&](const overlay::PeerInfo& cand) {
    if (cand.id == info_.id) return;
    if (!InOpenOpen(info_.id, target, cand.id)) return;
    if (usable && !usable(cand)) return;
    // "Closest preceding" = largest clockwise distance from self while
    // still strictly before the target.
    if (!best ||
        ClockwiseDistance(info_.id, cand.id) > ClockwiseDistance(info_.id, best->id)) {
      best = cand;
    }
  };
  for (int i = FingerTable::size() - 1; i >= 0; --i) {
    if (fingers_.entry(i)) consider(*fingers_.entry(i));
  }
  for (const overlay::PeerInfo& s : successors_) consider(s);
  return best;
}

}  // namespace chord
}  // namespace p2prange
