// Event-driven scenario engine for 10^5–10^6 simulated peers.
//
// RangeCacheSystem models every peer as an object graph (stores,
// WALs, finger tables) — faithful, but ~kilobytes per peer. The
// scenario engine strips the §4 protocol to its struct-of-arrays
// skeleton: peers are ranks in a sorted identifier array, descriptors
// are 20-byte packed copies in one pooled CopyArena row per bucket
// identifier (found through a flat, prefetchable IdentifierIndex, and
// grouped by the peer that stores them), and time advances through a
// fixed query schedule merged with an event queue of crash and recover
// events.
// What it keeps exact: the real LSH identifier scheme, the §4 match
// rule of store/bucket_store.h (copies ranked by containment), the
// cache-on-miss publish at the owners the probe found, descriptor
// replication, lazy stale eviction, the src/workload query shapes, and
// substrate-shaped routing costs (CompactOverlay).
// What it drops: SQL, payload bytes, per-message latency sampling.
//
// Query i is due at (i + 1) ms. Run() fires queries from a cursor into
// that schedule, in windows: up to 16 consecutive queries, ended early
// by the first queued crash or recover event (a query due at the same
// time runs first). It draws every range and origin of the window,
// hashes them, and routes all window × l identifiers in one
// CompactOverlay::RouteAll, whose descents overlap their cache misses;
// then it probes, answers and publishes the queries one at a time, in
// order, while the next queries' index slots, row spans and copies
// load. Every answer is the one a query at a time would get:
//  * routing and RandomAliveSlot read only liveness, and liveness
//    changes only at the events that end a window;
//  * the ranges and origins draw their streams in query order, and
//    crash victims draw rng_ only at crash events;
//  * each probe looks its rows up again when it runs, so it sees every
//    copy the window's earlier queries published; the lookups made
//    ahead of it only choose what to prefetch.
//
// The engine is single-threaded BY DESIGN — determinism comes from a
// totally ordered schedule, so Run() CHECK-fails off the constructing
// thread rather than growing locks.
#ifndef P2PRANGE_SIM_ENGINE_SCENARIO_ENGINE_H_
#define P2PRANGE_SIM_ENGINE_SCENARIO_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/sync.h"
#include "hash/lsh.h"
#include "hash/range.h"
#include "overlay/overlay.h"
#include "sim/engine/compact_overlay.h"
#include "sim/engine/copy_arena.h"
#include "sim/engine/event_queue.h"
#include "sim/engine/identifier_index.h"

namespace p2prange {
namespace sim {

/// \brief Query-range distribution of a scenario.
enum class WorkloadShape : uint8_t {
  kUniform = 0,  ///< both endpoints uniform over the domain (the paper)
  kZipf = 1,     ///< Zipf-centered ranges (skewed popularity)
  kHotspot = 2,  ///< flash crowd: most queries inside a small window
};

/// \brief Membership dynamics of a scenario.
enum class ChurnMode : uint8_t {
  kNone = 0,       ///< static membership
  kChurn = 1,      ///< steady crash/recover cycles through the run
  kCrashWave = 2,  ///< one simultaneous mass failure mid-run
};

const char* WorkloadShapeName(WorkloadShape shape);
const char* ChurnModeName(ChurnMode mode);

/// \brief One cell of the scenario matrix.
struct ScenarioConfig {
  overlay::Kind kind = overlay::Kind::kChord;
  WorkloadShape shape = WorkloadShape::kUniform;
  ChurnMode churn = ChurnMode::kNone;

  size_t num_peers = 100000;
  size_t num_queries = 100000;

  /// Ranges are drawn over [0, domain].
  uint32_t domain = 1000000;
  double zipf_theta = 0.8;
  double zipf_mean_width = 2000.0;

  int can_dims = 2;
  /// Descriptor copies: owner + (replication - 1) alive successors.
  int replication = 3;

  LshParams lsh = LshParams::Paper(HashFamilyType::kApproxMinwise);
  uint64_t seed = 1;

  Status Validate() const;
};

/// \brief The query ranges a scenario draws, in order: the
/// `src/workload` generator for `config.shape` over [0, config.domain],
/// seeded from `config.seed`. The engine draws from one such stream;
/// a second one built from the same config replays it exactly.
std::function<Range()> MakeQueryStream(const ScenarioConfig& config);

/// \brief What one scenario run measured.
struct ScenarioReport {
  uint64_t queries = 0;
  uint64_t exact_hits = 0;
  uint64_t approx_hits = 0;
  uint64_t misses = 0;
  double recall_sum = 0.0;  ///< Σ |Q ∩ best| / |Q| over all queries

  uint64_t hops = 0;       ///< routing hops across all probes (publish: 0)
  uint64_t messages = 0;   ///< hops + store/reply messages
  uint64_t bytes = 0;      ///< control + descriptor wire bytes

  uint64_t publishes = 0;          ///< cache-on-miss publish rounds
  uint64_t descriptors_stored = 0; ///< descriptor copies written
  uint64_t stale_evictions = 0;    ///< copies dropped on sight (dead data)

  uint64_t crashes = 0;
  uint64_t recoveries = 0;

  /// Crash-wave only (NaN-free: negative = not applicable). Mean
  /// recall in the windows before / during / after the wave, and the
  /// simulated time from the wave until the trailing mean recall
  /// regained 95% of its pre-wave level.
  double recall_before_wave = -1.0;
  double recall_during_wave = -1.0;
  double recall_after_wave = -1.0;
  double recovery_ms = -1.0;

  uint64_t bytes_per_peer = 0;    ///< resident engine bytes / peer
  uint64_t event_queue_depth = 0; ///< pending events' high-water mark,
                                  ///< unfired queries included
  double end_time_ms = 0.0;       ///< simulated clock at completion

  double mean_recall() const {
    return queries == 0 ? 0.0 : recall_sum / static_cast<double>(queries);
  }
  double mean_hops() const;

  /// Single-line JSON object (scenario_matrix rows).
  std::string ToJson() const;
};

/// \brief Where Run() spent its wall time: nanoseconds in each stage of
/// the query path. Run() adds to the fields, so one split can sum
/// several runs. The stages do not overlap; what Run() spends outside
/// them is scheduling, events and the per-query bookkeeping between
/// windows.
struct StageSplit {
  // Once per window, for all its queries.
  uint64_t draw_ns = 0;   ///< range and origin draws, and hashing
  uint64_t route_ns = 0;  ///< the RouteAll batch and its hop tally
  // Once per query.
  uint64_t prefetch_ns = 0;  ///< loading later queries' slots and rows
  uint64_t probe_ns = 0;     ///< index lookups, owner-run scans, answer
  uint64_t publish_ns = 0;   ///< the cache-on-miss publish

  uint64_t stages_ns() const {
    return draw_ns + route_ns + prefetch_ns + probe_ns + publish_ns;
  }
};

/// \brief Charges wall time to the stages of a StageSplit, one lap
/// after another. With no split it reads no clock: each call is one
/// predictable branch.
class StageClock {
 public:
  explicit StageClock(StageSplit* split = nullptr) : split_(split) {}

  /// Starts a lap without charging the time before it.
  void Start() {
    if (split_ != nullptr) lap_start_ = Clock::now();
  }
  /// Charges the time since the lap started to `stage`, and starts the
  /// next lap.
  void Lap(uint64_t StageSplit::*stage) {
    if (split_ == nullptr) return;
    const Clock::time_point now = Clock::now();
    split_->*stage += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - lap_start_)
            .count());
    lap_start_ = now;
  }

 private:
  using Clock = std::chrono::steady_clock;
  StageSplit* split_;
  Clock::time_point lap_start_;
};

/// \brief Runs one scenario cell to completion.
class ScenarioEngine {
 public:
  static Result<ScenarioEngine> Make(const ScenarioConfig& config);

  ScenarioEngine(ScenarioEngine&&) noexcept = default;
  ScenarioEngine& operator=(ScenarioEngine&&) noexcept = default;

  /// Fires every query and drains the event queue, adding where the
  /// time went to `split` if one is given. Single-shot; CHECK-fails
  /// when called off the thread that built the engine (see file
  /// comment) or twice.
  Result<ScenarioReport> Run(StageSplit* split = nullptr);

  /// True on the thread that owns the engine (the constructing
  /// thread, re-pinned by Make after the build-and-move dance).
  bool on_owner_thread() const { return owner_checker_.CalledOnOwnerThread(); }

  const ScenarioConfig& config() const { return config_; }

  /// Resident footprint: overlay + identifier index + copy arena +
  /// event queue.
  uint64_t MemoryBytes() const;

 private:
  explicit ScenarioEngine(const ScenarioConfig& config);

  /// One query of the current window: when it fires, its range and
  /// origin, and the recall of the best copy its probe found.
  struct WindowQuery {
    double time_ms = 0.0;
    Range range;
    uint32_t origin = 0;
    double recall = 0.0;
  };

  /// Queues the run's crash and recover events.
  void ScheduleWorkload();
  /// Queues one crash or recover event and raises queue_depth_.
  void Schedule(double time_ms, EventType type, uint32_t subject);
  /// True when a query is left and falls due no later than the next
  /// queued event.
  bool QueryDue() const;
  /// Runs the queries of window_, in order: draws, hashes and routes
  /// them all, then probes and publishes one query at a time.
  void RunWindow(ScenarioReport* report);
  /// Starts loading what query q's probe reads at `stage` 0, 1 and 2:
  /// its index slots and owners' epochs, its rows' spans, its copies.
  void PrefetchQuery(size_t q, size_t stage);
  /// Probes, answers and publishes query q of the window; returns the
  /// recall it found.
  double FinishQuery(size_t q, ScenarioReport* report);
  void Crash(uint32_t slot, ScenarioReport* report);
  void Recover(uint32_t slot, ScenarioReport* report);
  bool CopyValid(const StoredDesc& d, uint32_t at_slot) const;
  /// Cache-on-miss: stores `r` (held by `holder`) under ids[g] at the
  /// owner the probe found for it, owners[g].
  void PublishRange(const Range& r, uint32_t holder,
                    std::span<const uint32_t> ids,
                    std::span<const uint32_t> owners, ScenarioReport* report);

  ScenarioConfig config_;
  std::unique_ptr<CompactOverlay> net_;
  std::unique_ptr<LshScheme> lsh_;
  /// Crash and recover events only; queries_fired_ is the cursor into
  /// the query schedule.
  EventQueue queue_;
  size_t queries_fired_ = 0;
  /// High-water mark of pending events, counting the queries not yet
  /// fired: the `event_queue_depth` gauge.
  uint64_t queue_depth_ = 0;
  Rng rng_;  ///< query origins and crash victims
  std::function<Range()> next_query_;

  /// Bucket identifier -> row of arena_; a row holds the replicated
  /// descriptor copies published under that identifier, grouped by the
  /// peer that stores them. Run() sizes the index for its schedule.
  IdentifierIndex index_;
  CopyArena arena_;
  /// Per-peer crash epoch; bumping it orphans every resident copy.
  std::vector<uint16_t> crash_epoch_;

  /// The current window's queries; then, l per query in query order,
  /// their identifiers, route origins, the owners and hop counts the
  /// routes found, and a row hint for prefetching (nullopt: no row when
  /// the hint was read). The hash kernel's output buffer.
  std::vector<WindowQuery> window_;
  std::vector<uint32_t> identifier_scratch_;
  std::vector<uint32_t> origin_scratch_;
  std::vector<uint32_t> owner_scratch_;
  std::vector<int> hop_scratch_;
  std::vector<std::optional<uint32_t>> row_hint_;
  std::vector<uint32_t> hash_scratch_;
  /// Times the stages of the query path for Run()'s split, if any.
  StageClock clock_;
  double now_ms_ = 0.0;
  double wave_time_ms_ = -1.0;
  bool ran_ = false;
  ThreadChecker owner_checker_;

  /// Rolling recall window for the crash-wave recovery clock.
  std::vector<double> recent_recall_;
  size_t recent_pos_ = 0;
};

}  // namespace sim
}  // namespace p2prange

#endif  // P2PRANGE_SIM_ENGINE_SCENARIO_ENGINE_H_
