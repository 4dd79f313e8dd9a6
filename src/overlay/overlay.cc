#include "overlay/overlay.h"

#include "overlay/can_overlay.h"
#include "overlay/chord_overlay.h"
#include "overlay/factory.h"
#include "overlay/tapestry_overlay.h"

namespace p2prange {
namespace overlay {

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kChord:
      return "chord";
    case Kind::kCan:
      return "can";
    case Kind::kTapestry:
      return "tapestry";
  }
  return "unknown";
}

Result<Kind> KindFromName(std::string_view name) {
  if (name == "chord") return Kind::kChord;
  if (name == "can") return Kind::kCan;
  if (name == "tapestry") return Kind::kTapestry;
  return Status::InvalidArgument("unknown overlay kind: " + std::string(name));
}

Result<std::unique_ptr<Overlay>> MakeOverlay(
    const OverlayParams& params, size_t num_nodes, uint64_t seed,
    const chord::ChordConfig& chord_config) {
  switch (params.kind) {
    case Kind::kChord:
      return ChordOverlay::Make(num_nodes, seed, chord_config);
    case Kind::kCan: {
      can::CanConfig config;
      config.dims = params.can_dims;
      config.latency = chord_config.latency;
      return CanOverlay::Make(num_nodes, seed, config);
    }
    case Kind::kTapestry:
      return TapestryOverlay::Make(num_nodes, seed, chord_config.latency);
  }
  return Status::InvalidArgument("unknown overlay kind");
}

}  // namespace overlay
}  // namespace p2prange
