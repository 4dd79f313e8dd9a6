// Discrete-event churn simulation.
//
// Drives a RangeCacheSystem through a timed scenario: queries, joins,
// and departures arrive as independent Poisson processes; periodic
// stabilization repairs the ring — the evaluation style of the DHT
// papers' churn experiments, applied to the paper's range-cache
// protocol. Produces a time series of cache effectiveness and overlay
// size so the interplay of churn rate, descriptor replication, and
// cache warm-up can be measured (bench/ablation_churn).
#ifndef P2PRANGE_SIM_CHURN_SIM_H_
#define P2PRANGE_SIM_CHURN_SIM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/system.h"

namespace p2prange {

/// \brief Rates and shape of a churn scenario. All rates are events
/// per simulated second; arrivals are Poisson.
struct ChurnScenarioConfig {
  double duration_s = 600.0;
  double query_rate_hz = 2.0;
  double join_rate_hz = 0.02;
  double leave_rate_hz = 0.02;
  /// Fraction of departures that are abrupt failures (no handoff).
  double fail_fraction = 0.5;
  /// Rate at which crashed peers come back through the recovery path
  /// (checkpoint + WAL replay, then replica repair). When > 0, abrupt
  /// departures are transient crashes (CrashPeer) that keep their
  /// durable images and later rejoin (RecoverPeer); when 0, abrupt
  /// departures permanently remove the peer (the pre-durability model).
  double recover_rate_hz = 0.0;
  /// Period of the maintenance sweep (stabilize + fix fingers).
  double stabilize_period_s = 30.0;
  /// Departures never shrink the overlay below this.
  size_t min_peers = 8;
  uint64_t seed = 1;
};

/// \brief Aggregates for one time slice of the run.
struct ChurnTimeSlice {
  double t_begin = 0.0;
  double t_end = 0.0;
  uint64_t queries = 0;
  uint64_t matched = 0;        ///< queries with any cached match
  uint64_t complete = 0;       ///< queries with recall == 1
  double mean_recall = 0.0;
  size_t alive_at_end = 0;
  uint64_t joins = 0;
  uint64_t departures = 0;
  uint64_t crashes = 0;     ///< abrupt departures taken as transient crashes
  uint64_t recoveries = 0;  ///< crashed peers that rejoined via replay
  /// Descriptors re-pulled from live replicas by recovering peers
  /// during this slice (recovery_descriptors_repaired delta).
  uint64_t descriptors_repaired = 0;
};

// --------------------------------------------------------------------------
// Live-process churn schedules
// --------------------------------------------------------------------------
//
// The live-ring harnesses (bench/ablation_live_churn, the integration
// acceptance test) replay the same Poisson membership processes the
// simulator draws — but against real daemons, where a "leave" is a
// SIGKILL or a rolling restart and a "join" forks a process. The
// schedule is materialized up front so one seed reproduces one exact
// event sequence across runs and machines.

enum class LiveChurnEventKind : uint8_t {
  kJoin = 0,     ///< fork a fresh daemon that --join's the ring
  kKill = 1,     ///< SIGKILL a running member (abrupt failure)
  kRestart = 2,  ///< SIGTERM (graceful handoff) then rejoin
};
const char* LiveChurnEventKindName(LiveChurnEventKind kind);

struct LiveChurnEvent {
  double t_s = 0.0;
  LiveChurnEventKind kind = LiveChurnEventKind::kJoin;
};

/// \brief Materializes a deterministic event schedule from the same
/// config the simulator runs: joins at join_rate_hz; departures at
/// leave_rate_hz, split into kills (fail_fraction) and graceful
/// restarts (the rest). Query traffic stays with the caller. Events
/// are returned in time order.
std::vector<LiveChurnEvent> GenerateLiveChurnSchedule(
    const ChurnScenarioConfig& config);

/// \brief Result of a scenario run.
struct ChurnReport {
  std::vector<ChurnTimeSlice> slices;
  uint64_t total_queries = 0;
  uint64_t protocol_errors = 0;  ///< lookups that failed outright
};

/// \brief Runs a churn scenario against `system`.
///
/// `make_query` supplies the next query range (called once per query
/// event). The simulator owns event scheduling and membership changes;
/// the system keeps all protocol behavior.
class ChurnSimulator {
 public:
  ChurnSimulator(RangeCacheSystem* system,
                 std::function<PartitionKey()> make_query,
                 ChurnScenarioConfig config);

  /// Runs the full scenario, splitting the duration into `num_slices`
  /// equal reporting windows.
  Result<ChurnReport> Run(int num_slices = 10);

 private:
  enum class EventType { kQuery, kJoin, kLeave, kRecover, kStabilize };

  RangeCacheSystem* system_;
  std::function<PartitionKey()> make_query_;
  ChurnScenarioConfig config_;
  Rng rng_;
  std::vector<NetAddress> crashed_;  ///< oldest crash first
};

}  // namespace p2prange

#endif  // P2PRANGE_SIM_CHURN_SIM_H_
