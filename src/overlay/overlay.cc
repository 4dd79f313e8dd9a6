#include "overlay/overlay.h"

#include "can/network.h"
#include "chord/ring.h"
#include "tapestry/tapestry.h"

namespace p2prange {
namespace overlay {

namespace {

template <typename Substrate>
Result<std::unique_ptr<Overlay>> Build(size_t num_nodes, uint64_t seed,
                                       const OverlayParams& params) {
  ASSIGN_OR_RETURN(Substrate built, Substrate::Make(num_nodes, seed, params));
  std::unique_ptr<Overlay> out = std::make_unique<Substrate>(std::move(built));
  return out;
}

}  // namespace

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

Result<std::unique_ptr<Overlay>> MakeOverlay(const OverlayParams& params,
                                             size_t num_nodes, uint64_t seed) {
  switch (params.kind) {
    case Kind::kChord:
      return Build<chord::ChordRing>(num_nodes, seed, params);
    case Kind::kCan:
      return Build<can::CanNetwork>(num_nodes, seed, params);
    case Kind::kTapestry:
      return Build<tapestry::TapestryMesh>(num_nodes, seed, params);
  }
  return Status::InvalidArgument("unknown overlay kind");
}

}  // namespace overlay
}  // namespace p2prange
