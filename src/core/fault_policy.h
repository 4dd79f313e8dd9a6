// Retry/backoff/timeout policy for the system's control and data
// messages.
//
// The §4 protocol was evaluated on a stabilized ring with reliable
// delivery; under real churn and message loss every remote interaction
// needs a retransmission discipline. The policy is simulation-honest:
// each retransmission is charged as a network message and every
// backoff wait is charged as latency, so fault tolerance shows up in
// the measured cost of a query rather than being free.
#ifndef P2PRANGE_CORE_FAULT_POLICY_H_
#define P2PRANGE_CORE_FAULT_POLICY_H_

#include <cmath>

#include "common/status.h"

namespace p2prange {

/// \brief How the system retries, backs off, and gives up.
struct FaultPolicy {
  // The backoff schedule between retransmissions, shared by the
  // simulator (RangeCacheSystem) and the live client (RingClient).

  /// Wait before the first retransmission, in ms; charged to the
  /// operation's latency in the simulator.
  static constexpr double kBackoffBaseMs = 10.0;
  /// Multiplier applied to the wait after every failed attempt.
  static constexpr double kBackoffMultiplier = 2.0;
  /// Cap on a single backoff wait.
  static constexpr double kBackoffMaxMs = 500.0;
  /// Fraction of each wait randomized uniformly (0 = deterministic,
  /// 1 = full jitter): wait * (1 - jitter + jitter * U[0,1)).
  static constexpr double kBackoffJitter = 0.5;

  /// Retransmissions per message after the first attempt. Only transit
  /// loss (IOError) is retried; a dead peer (Unavailable) fails fast.
  int max_retries = 3;

  /// Latency budget of one top-level operation (a range lookup's whole
  /// l-identifier fan-out), in simulated ms. Once an operation has
  /// accumulated this much latency, remaining probes are skipped and
  /// pending retries abandoned (the lookup degrades instead of
  /// stalling). 0 disables the budget.
  double op_budget_ms = 0.0;

  Status Validate() const {
    if (max_retries < 0) {
      return Status::InvalidArgument("FaultPolicy.max_retries must be >= 0");
    }
    if (!std::isfinite(op_budget_ms) || op_budget_ms < 0.0) {
      return Status::InvalidArgument(
          "FaultPolicy.op_budget_ms must be finite and >= 0");
    }
    return Status::OK();
  }
};

}  // namespace p2prange

#endif  // P2PRANGE_CORE_FAULT_POLICY_H_
