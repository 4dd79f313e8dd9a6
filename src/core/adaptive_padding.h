// Dynamic query padding — the future-work knob named at the end of
// §5.2 ("we will explore dynamically adjusting padding for better
// overall performance").
//
// Fixed padding trades completeness for the minority of queries whose
// padded range matches worse than the original would have (Figure 10).
// The controller below adapts the padding fraction per column from
// observed outcomes with a multiplicative-increase /
// multiplicative-decrease rule:
//   * an incomplete answer (recall < 1) suggests the cache holds no
//     covering partition — pad more so broader partitions are found
//     and published;
//   * a complete answer suggests the current padding suffices — decay
//     toward zero to keep cached partitions (and data transfers) tight.
#ifndef P2PRANGE_CORE_ADAPTIVE_PADDING_H_
#define P2PRANGE_CORE_ADAPTIVE_PADDING_H_

#include <algorithm>
#include <string>
#include <unordered_map>

namespace p2prange {

/// \brief Tunables of the controller.
struct AdaptivePaddingConfig {
  /// Starting fraction per edge; finite and >= 0 (checked by
  /// RangeCacheSystem::Make).
  double initial = 0.05;
};

/// \brief Per-column padding state driven by lookup outcomes.
class AdaptivePaddingController {
 public:
  /// Never pad more than half the range per edge.
  static constexpr double kMax = 0.5;
  /// Multiplier on an incomplete answer.
  static constexpr double kIncrease = 1.5;
  /// Multiplier on a complete answer. The padding starts >= 0 and only
  /// shrinks by this factor, so it never drops below zero.
  static constexpr double kDecrease = 0.9;
  /// Floor used when increasing from (near) zero.
  static constexpr double kStepFloor = 0.02;

  explicit AdaptivePaddingController(AdaptivePaddingConfig config = {})
      : config_(config) {}

  /// Current padding fraction for a column ("relation.attribute").
  double Get(const std::string& column_key) const {
    auto it = state_.find(column_key);
    return it == state_.end() ? config_.initial : it->second;
  }

  /// Feeds one lookup outcome back into the controller.
  void Observe(const std::string& column_key, double recall) {
    double& pad = state_.try_emplace(column_key, config_.initial).first->second;
    if (recall >= 1.0) {
      pad *= kDecrease;
    } else {
      pad = std::max(pad * kIncrease, kStepFloor);
      if (pad > kMax) pad = kMax;
    }
  }

  const AdaptivePaddingConfig& config() const { return config_; }

 private:
  AdaptivePaddingConfig config_;
  std::unordered_map<std::string, double> state_;
};

}  // namespace p2prange

#endif  // P2PRANGE_CORE_ADAPTIVE_PADDING_H_
