// CAN behind the Overlay contract. Identifiers map to points in the
// d-torus (IdentifierToPoint); the zone owner of a point owns the
// identifier. Peer ids are stable address hashes used only for
// deterministic ordering — CAN has no node identifier space.
#ifndef P2PRANGE_OVERLAY_CAN_OVERLAY_H_
#define P2PRANGE_OVERLAY_CAN_OVERLAY_H_

#include <memory>
#include <utility>
#include <vector>

#include "can/network.h"
#include "overlay/overlay.h"

namespace p2prange {
namespace overlay {

class CanOverlay final : public Overlay {
 public:
  static Result<std::unique_ptr<Overlay>> Make(size_t num_nodes, uint64_t seed,
                                               const can::CanConfig& config);

  explicit CanOverlay(can::CanNetwork net) : can_(std::move(net)) {}

  Kind kind() const override { return Kind::kCan; }

  Result<RouteResult> RouteToOwner(const NetAddress& from,
                                   uint32_t id) override;
  Result<PeerInfo> OwnerOracle(uint32_t id) const override;

  std::vector<PeerInfo> ReplicaCandidates(
      const NetAddress& owner) const override;

  Result<PeerInfo> AddNode() override;
  Status Leave(const NetAddress& addr) override { return can_.Leave(addr); }
  Status Fail(const NetAddress& addr) override { return can_.Fail(addr); }
  Status Recover(const NetAddress& addr) override {
    return can_.Recover(addr);
  }

  void Stabilize(int rounds) override;
  void RepairRouting() override;

  size_t num_alive() const override { return can_.num_alive(); }
  std::vector<PeerInfo> AlivePeersOrdered() const override;
  Result<NetAddress> RandomAliveAddress() override {
    return can_.RandomAliveAddress();
  }
  bool IsAlive(const NetAddress& addr) const override {
    return can_.network().IsAlive(addr);
  }

  Result<double> DeliverBytes(const NetAddress& from, const NetAddress& to,
                              uint64_t payload_bytes) override {
    return can_.network().DeliverBytes(from, to, payload_bytes);
  }
  const NetworkStats& net_stats() const override {
    return can_.network().stats();
  }
  void ResetNetStats() override { can_.network().ResetStats(); }

  can::CanNetwork& can() { return can_; }

 private:
  mutable can::CanNetwork can_;
};

}  // namespace overlay
}  // namespace p2prange

#endif  // P2PRANGE_OVERLAY_CAN_OVERLAY_H_
