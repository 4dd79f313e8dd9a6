// Tapestry behind the Overlay contract. An identifier's owner is its
// surrogate root; replica candidates are the next live nodes in
// identifier order (the deterministic analogue of a successor list).
#ifndef P2PRANGE_OVERLAY_TAPESTRY_OVERLAY_H_
#define P2PRANGE_OVERLAY_TAPESTRY_OVERLAY_H_

#include <memory>
#include <utility>
#include <vector>

#include "overlay/overlay.h"
#include "tapestry/tapestry.h"

namespace p2prange {
namespace overlay {

class TapestryOverlay final : public Overlay {
 public:
  static Result<std::unique_ptr<Overlay>> Make(size_t num_nodes, uint64_t seed,
                                               const LatencyModel& latency);

  explicit TapestryOverlay(tapestry::TapestryMesh mesh)
      : mesh_(std::move(mesh)) {}

  Kind kind() const override { return Kind::kTapestry; }

  Result<RouteResult> RouteToOwner(const NetAddress& from,
                                   uint32_t id) override;
  Result<PeerInfo> OwnerOracle(uint32_t id) const override;

  std::vector<PeerInfo> ReplicaCandidates(
      const NetAddress& owner) const override;

  Result<PeerInfo> AddNode() override;
  Status Leave(const NetAddress& addr) override { return mesh_.Leave(addr); }
  Status Fail(const NetAddress& addr) override { return mesh_.Fail(addr); }
  Status Recover(const NetAddress& addr) override {
    return mesh_.Recover(addr);
  }

  void Stabilize(int rounds) override;
  void RepairRouting() override { mesh_.RebuildRoutingTables(); }

  size_t num_alive() const override { return mesh_.num_alive(); }
  std::vector<PeerInfo> AlivePeersOrdered() const override;
  Result<NetAddress> RandomAliveAddress() override {
    return mesh_.RandomAliveAddress();
  }
  bool IsAlive(const NetAddress& addr) const override {
    return mesh_.network().IsAlive(addr);
  }

  Result<double> DeliverBytes(const NetAddress& from, const NetAddress& to,
                              uint64_t payload_bytes) override {
    return mesh_.network().DeliverBytes(from, to, payload_bytes);
  }
  const NetworkStats& net_stats() const override {
    return mesh_.network().stats();
  }
  void ResetNetStats() override { mesh_.network().ResetStats(); }

  tapestry::TapestryMesh& mesh() { return mesh_; }

 private:
  mutable tapestry::TapestryMesh mesh_;
};

}  // namespace overlay
}  // namespace p2prange

#endif  // P2PRANGE_OVERLAY_TAPESTRY_OVERLAY_H_
