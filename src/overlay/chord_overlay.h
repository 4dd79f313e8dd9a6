// Chord behind the Overlay contract — a pure delegation shim around
// ChordRing so the refactored core::System is bit-identical to the
// pre-contract ChordRing path (the parity test pins this).
#ifndef P2PRANGE_OVERLAY_CHORD_OVERLAY_H_
#define P2PRANGE_OVERLAY_CHORD_OVERLAY_H_

#include <memory>
#include <utility>
#include <vector>

#include "chord/ring.h"
#include "overlay/overlay.h"

namespace p2prange {
namespace overlay {

class ChordOverlay final : public Overlay {
 public:
  static Result<std::unique_ptr<Overlay>> Make(size_t num_nodes, uint64_t seed,
                                               const chord::ChordConfig& config);

  explicit ChordOverlay(chord::ChordRing ring) : ring_(std::move(ring)) {}

  Kind kind() const override { return Kind::kChord; }

  Result<RouteResult> RouteToOwner(const NetAddress& from,
                                   uint32_t id) override;
  Result<PeerInfo> OwnerOracle(uint32_t id) const override;

  std::vector<PeerInfo> ReplicaCandidates(
      const NetAddress& owner) const override;

  Result<PeerInfo> AddNode() override;
  Status Leave(const NetAddress& addr) override { return ring_.Leave(addr); }
  Status Fail(const NetAddress& addr) override { return ring_.Fail(addr); }
  Status Recover(const NetAddress& addr) override {
    return ring_.Recover(addr);
  }

  void Stabilize(int rounds) override { ring_.StabilizeAll(rounds); }
  void RepairRouting() override { ring_.FixAllFingers(); }

  size_t num_alive() const override { return ring_.num_alive(); }
  std::vector<PeerInfo> AlivePeersOrdered() const override;
  Result<NetAddress> RandomAliveAddress() override {
    return ring_.RandomAliveAddress();
  }
  bool IsAlive(const NetAddress& addr) const override {
    return ring_.network().IsAlive(addr);
  }

  Result<double> DeliverBytes(const NetAddress& from, const NetAddress& to,
                              uint64_t payload_bytes) override {
    return ring_.network().DeliverBytes(from, to, payload_bytes);
  }
  const NetworkStats& net_stats() const override {
    return ring_.network().stats();
  }
  void ResetNetStats() override { ring_.network().ResetStats(); }

  /// The underlying ring, for callers that measure Chord-only state
  /// (ablation_can_vs_chord counts finger-table entries through it).
  chord::ChordRing& ring() { return ring_; }

 private:
  mutable chord::ChordRing ring_;
};

}  // namespace overlay
}  // namespace p2prange

#endif  // P2PRANGE_OVERLAY_CHORD_OVERLAY_H_
