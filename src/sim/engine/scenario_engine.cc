#include "sim/engine/scenario_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/json.h"
#include "common/logging.h"
#include "store/bucket_store.h"
#include "workload/range_workload.h"

namespace p2prange {
namespace sim {

namespace {

/// Control-message wire cost, matching SimNetwork::kControlBytes.
constexpr uint64_t kControlBytes = 64;
/// Marshalled descriptor row on the wire.
constexpr uint64_t kDescriptorBytes = 20;
/// Rolling window width for the recovery clock.
constexpr size_t kRecallWindow = 200;
/// Most queries one window runs together: enough routes (16 × l = 80
/// at the paper's l) to keep a batch's descents in flight.
constexpr size_t kWindowQueries = 16;
/// Steps a query's probe is prefetched ahead of it, one per dependent
/// load: index slot, row span, row copies.
constexpr size_t kPrefetchStages = 3;
/// Hotspot: this fraction of queries lands in the lowest 5% of the
/// domain.
constexpr double kHotFraction = 0.9;
/// Simulated time between successive queries.
constexpr double kQueryIntervalMs = 1.0;
/// kChurn: one crash every interval, recovery after kRecoverDelayMs.
constexpr double kChurnIntervalMs = 50.0;
constexpr double kRecoverDelayMs = 400.0;
/// kCrashWave: this fraction of peers fails at 40% of the run.
constexpr double kCrashWaveFraction = 0.05;
/// Separates the query stream's seed from rng_'s (origins, victims).
constexpr uint64_t kQuerySeedSalt = 0x9E3779B97F4A7C15ULL;
/// The engine ranks copies by containment |Q∩R|/|Q|: the Fig. 9
/// criterion, and what `mean_recall` reports (the recall of the best
/// overlapping copy). Under Jaccard only the exact range scores 1, so
/// the best copy's recall would no longer be the best recall on offer.
constexpr MatchCriterion kRankBy = MatchCriterion::kContainment;

/// When query i is due.
double QueryTimeMs(size_t i) {
  return static_cast<double>(i + 1) * kQueryIntervalMs;
}

}  // namespace

const char* WorkloadShapeName(WorkloadShape shape) {
  switch (shape) {
    case WorkloadShape::kUniform:
      return "uniform";
    case WorkloadShape::kZipf:
      return "zipf";
    case WorkloadShape::kHotspot:
      return "hotspot";
  }
  return "unknown";
}

const char* ChurnModeName(ChurnMode mode) {
  switch (mode) {
    case ChurnMode::kNone:
      return "none";
    case ChurnMode::kChurn:
      return "churn";
    case ChurnMode::kCrashWave:
      return "crash-wave";
  }
  return "unknown";
}

Status ScenarioConfig::Validate() const {
  if (num_peers < 2) {
    return Status::InvalidArgument("scenario needs at least two peers");
  }
  if (num_queries == 0) {
    return Status::InvalidArgument("scenario needs at least one query");
  }
  if (replication < 1) {
    return Status::InvalidArgument("replication must be >= 1");
  }
  // NaN passes every ordered test below, and an infinite value breaks
  // the generators, so every real field must be finite.
  const std::pair<const char*, double> reals[] = {
      {"zipf_theta", zipf_theta},
      {"zipf_mean_width", zipf_mean_width},
  };
  for (const auto& [name, value] : reals) {
    if (!std::isfinite(value)) {
      return Status::InvalidArgument(std::string(name) + " must be finite");
    }
  }
  if (zipf_mean_width < 1.0) {
    return Status::InvalidArgument("zipf_mean_width must be >= 1");
  }
  // ZipfGenerator's sampler is undefined at theta == 1.
  if (zipf_theta <= 0.0 || zipf_theta == 1.0) {
    return Status::InvalidArgument("zipf_theta must be > 0 and != 1");
  }
  return Status::OK();
}

std::function<Range()> MakeQueryStream(const ScenarioConfig& config) {
  const uint64_t seed = config.seed ^ kQuerySeedSalt;
  switch (config.shape) {
    case WorkloadShape::kZipf:
      return [gen = ZipfRangeGenerator(0, config.domain, config.zipf_theta,
                                       config.zipf_mean_width, seed)]() mutable {
        return gen.Next();
      };
    case WorkloadShape::kHotspot:
      // The hot window is the lowest 5% of the domain.
      return [gen = HotspotRangeGenerator(0, config.domain, 0, config.domain / 20,
                                          kHotFraction, seed)]() mutable {
        return gen.Next();
      };
    case WorkloadShape::kUniform:
      break;
  }
  return [gen = UniformRangeGenerator(0, config.domain, seed)]() mutable {
    return gen.Next();
  };
}

double ScenarioReport::mean_hops() const {
  return queries == 0 ? 0.0
                      : static_cast<double>(hops) / static_cast<double>(queries);
}

std::string ScenarioReport::ToJson() const {
  std::string out = "{";
  auto add_u64 = [&out](const char* name, uint64_t v) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += name;
    out += "\":";
    out += std::to_string(v);
  };
  auto add_d = [&out](const char* name, double v) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += name;
    out += "\":";
    out += JsonDouble(v);
  };
  add_u64("queries", queries);
  add_u64("exact_hits", exact_hits);
  add_u64("approx_hits", approx_hits);
  add_u64("misses", misses);
  add_d("mean_recall", mean_recall());
  add_u64("hops", hops);
  add_d("mean_hops", mean_hops());
  add_u64("messages", messages);
  add_u64("bytes", bytes);
  add_u64("publishes", publishes);
  add_u64("descriptors_stored", descriptors_stored);
  add_u64("stale_evictions", stale_evictions);
  add_u64("crashes", crashes);
  add_u64("recoveries", recoveries);
  add_d("recall_before_wave", recall_before_wave);
  add_d("recall_during_wave", recall_during_wave);
  add_d("recall_after_wave", recall_after_wave);
  add_d("recovery_ms", recovery_ms);
  add_u64("bytes_per_peer", bytes_per_peer);
  add_u64("event_queue_depth", event_queue_depth);
  add_d("end_time_ms", end_time_ms);
  out += '}';
  return out;
}

ScenarioEngine::ScenarioEngine(const ScenarioConfig& config)
    : config_(config),
      rng_(config.seed ^ 0x5CE9A210ULL),
      arena_(config.replication) {}

Result<ScenarioEngine> ScenarioEngine::Make(const ScenarioConfig& config) {
  RETURN_NOT_OK(config.Validate());
  ScenarioEngine engine(config);

  ASSIGN_OR_RETURN(engine.net_,
                   MakeCompactOverlay(config.kind, config.num_peers,
                                      config.seed, config.can_dims));
  LshParams lsh_params = config.lsh;
  lsh_params.seed = config.seed ^ 0x5bd1e995u;
  ASSIGN_OR_RETURN(LshScheme scheme, LshScheme::Make(lsh_params));
  engine.lsh_ = std::make_unique<LshScheme>(std::move(scheme));
  engine.next_query_ = MakeQueryStream(config);
  engine.crash_epoch_.assign(config.num_peers, 0);
  engine.recent_recall_.reserve(kRecallWindow);
  // Moving the engine must not re-pin it to a stale thread id.
  engine.owner_checker_.Rebind();
  return engine;
}

void ScenarioEngine::ScheduleWorkload() {
  // Every query is pending before the first event is queued.
  queue_depth_ = config_.num_queries;
  const double horizon =
      static_cast<double>(config_.num_queries) * kQueryIntervalMs;
  if (config_.churn == ChurnMode::kChurn) {
    for (double t = kChurnIntervalMs; t < horizon; t += kChurnIntervalMs) {
      Schedule(t, EventType::kCrash, 0);
    }
  } else if (config_.churn == ChurnMode::kCrashWave) {
    wave_time_ms_ = 0.4 * horizon;
    const size_t wave = static_cast<size_t>(
        kCrashWaveFraction * static_cast<double>(config_.num_peers));
    for (size_t i = 0; i < wave; ++i) {
      Schedule(wave_time_ms_, EventType::kCrash, 0);
      // Staggered rejoins spread the repair load over the back half.
      Schedule(wave_time_ms_ + kRecoverDelayMs *
                                   (1.0 + static_cast<double>(i) /
                                              static_cast<double>(wave)),
               EventType::kRecover, 0);
    }
  }
}

void ScenarioEngine::Schedule(double time_ms, EventType type,
                              uint32_t subject) {
  queue_.Push(time_ms, type, subject);
  queue_depth_ = std::max(
      queue_depth_, config_.num_queries - queries_fired_ + queue_.size());
}

bool ScenarioEngine::QueryDue() const {
  if (queries_fired_ == config_.num_queries) return false;
  const Event* next = queue_.Peek();
  return next == nullptr || QueryTimeMs(queries_fired_) <= next->time_ms;
}

bool ScenarioEngine::CopyValid(const StoredDesc& d, uint32_t at_slot) const {
  return d.home == at_slot && net_->IsAlive(d.home) &&
         d.home_epoch == crash_epoch_[d.home];
}

void ScenarioEngine::PublishRange(const Range& r, uint32_t holder,
                                  std::span<const uint32_t> ids,
                                  std::span<const uint32_t> owners,
                                  ScenarioReport* report) {
  ++report->publishes;
  // The probe just routed to every identifier's owner: store there,
  // one message per copy and no routing hops (RangeCacheSystem charges
  // its cache-on-miss publish the same way).
  for (size_t g = 0; g < ids.size(); ++g) {
    const uint32_t owner = owners[g];
    const uint32_t row = index_.FindOrAdd(ids[g]);
    if (row == arena_.num_rows()) arena_.AddRow();
    uint32_t target = owner;
    for (int copy = 0; copy < config_.replication; ++copy) {
      if (copy > 0) {
        const uint32_t next = net_->ReplicaSlot(target, 1);
        if (next == owner) break;  // wrapped: fewer alive peers than copies
        target = next;
      }
      StoredDesc d;
      d.lo = r.lo();
      d.hi = r.hi();
      d.holder = holder;
      d.home = target;
      d.home_epoch = crash_epoch_[target];
      // A copy of the same range at the same home is refreshed, so
      // republishes do not grow the row without bound.
      arena_.Store(row, d);
      ++report->descriptors_stored;
      report->messages += 1;
      report->bytes += kControlBytes + kDescriptorBytes;
    }
  }
}

void ScenarioEngine::RunWindow(ScenarioReport* report) {
  const size_t l = static_cast<size_t>(lsh_->l());
  clock_.Start();
  // Ranges and origins draw their streams in query order, as one query
  // at a time would; liveness, which RandomAliveSlot and routing read,
  // changes only at the crash and recover events that end a window.
  identifier_scratch_.clear();
  origin_scratch_.clear();
  for (WindowQuery& query : window_) {
    query.range = next_query_();
    query.origin = net_->RandomAliveSlot(rng_);
    lsh_->IdentifiersInto(query.range, &hash_scratch_);
    identifier_scratch_.insert(identifier_scratch_.end(),
                               hash_scratch_.begin(), hash_scratch_.end());
    origin_scratch_.insert(origin_scratch_.end(), l, query.origin);
  }
  clock_.Lap(&StageSplit::draw_ns);
  owner_scratch_.resize(identifier_scratch_.size());
  hop_scratch_.resize(identifier_scratch_.size());
  row_hint_.resize(identifier_scratch_.size());
  net_->RouteAll(origin_scratch_, identifier_scratch_, owner_scratch_,
                 hop_scratch_);
  for (const int hops : hop_scratch_) {
    report->hops += static_cast<uint64_t>(hops);
    report->messages += static_cast<uint64_t>(hops) + 1;  // hops + reply
    report->bytes += (static_cast<uint64_t>(hops) + 1) * kControlBytes;
  }
  clock_.Lap(&StageSplit::route_ns);
  // Probes and publishes run strictly in query order, so each query
  // sees every copy the window's earlier queries published. Query q is
  // finished at step q + kPrefetchStages; the steps before that load
  // what it will read, one dependent level per step.
  const size_t n = window_.size();
  for (size_t step = 0; step < n + kPrefetchStages; ++step) {
    for (size_t stage = 0; stage < kPrefetchStages && stage <= step; ++stage) {
      if (step - stage < n) PrefetchQuery(step - stage, stage);
    }
    clock_.Lap(&StageSplit::prefetch_ns);
    if (step >= kPrefetchStages) {
      const size_t q = step - kPrefetchStages;
      window_[q].recall = FinishQuery(q, report);
    }
  }
}

void ScenarioEngine::PrefetchQuery(size_t q, size_t stage) {
  const size_t l = static_cast<size_t>(lsh_->l());
  for (size_t g = q * l; g < (q + 1) * l; ++g) {
    switch (stage) {
      case 0:
        index_.Prefetch(identifier_scratch_[g]);
        __builtin_prefetch(&crash_epoch_[owner_scratch_[g]]);
        break;
      case 1:
        // Only a hint: an earlier query of the window may still add the
        // row, and FinishQuery looks every identifier up again.
        row_hint_[g] = index_.Find(identifier_scratch_[g]);
        if (row_hint_[g]) arena_.PrefetchSpan(*row_hint_[g]);
        break;
      default:
        if (row_hint_[g]) arena_.Prefetch(*row_hint_[g]);
    }
  }
}

double ScenarioEngine::FinishQuery(size_t q, ScenarioReport* report) {
  const size_t l = static_cast<size_t>(lsh_->l());
  const std::span<const uint32_t> ids(&identifier_scratch_[q * l], l);
  const std::span<const uint32_t> owners(&owner_scratch_[q * l], l);
  const Range& range = window_[q].range;

  // The best valid copy under the shared §4 rule; a miss scores 0.
  // Copies resident elsewhere are invisible to an owner, so it scans
  // only its own run of the row. Neither the best copy nor the
  // evictions depend on the order the run is read in.
  double best_score = 0.0;
  bool best_exact = false;
  for (size_t g = 0; g < l; ++g) {
    const std::optional<uint32_t> row = index_.Find(ids[g]);
    if (!row) continue;
    const uint32_t owner = owners[g];
    report->stale_evictions += arena_.ScanHome(
        *row, owner, [&](const StoredDesc& d) {
          // Orphaned by a crash epoch bump: invisible, left in place.
          if (!CopyValid(d, owner)) return false;
          // Stale: the holder died with its materialized data.
          if (!net_->IsAlive(d.holder)) return true;
          const Range stored(d.lo, d.hi);
          const double score = ScoreMatch(range, stored, kRankBy);
          const bool exact = stored == range;
          if (Outranks(score, exact, best_score, best_exact)) {
            best_score = score;
            best_exact = exact;
          }
          return false;
        });
  }

  ++report->queries;
  if (best_exact) {
    ++report->exact_hits;
  } else if (best_score > 0.0) {
    ++report->approx_hits;
  } else {
    ++report->misses;
  }
  report->recall_sum += best_score;
  clock_.Lap(&StageSplit::probe_ns);

  // The paper's cache-on-miss rule: a non-exact answer publishes the
  // queried range at its l identifier owners, holder = origin.
  if (!best_exact) PublishRange(range, window_[q].origin, ids, owners, report);
  clock_.Lap(&StageSplit::publish_ns);
  return best_score;
}

void ScenarioEngine::Crash(uint32_t slot, ScenarioReport* report) {
  if (!net_->IsAlive(slot)) return;
  // Never sink below half the fleet: keeps routing meaningful and the
  // run deterministic under any parameterization.
  if (net_->num_alive() * 2 <= net_->num_peers()) return;
  net_->SetAlive(slot, false);
  ++crash_epoch_[slot];  // orphans every descriptor copy resident here
  ++report->crashes;
}

void ScenarioEngine::Recover(uint32_t slot, ScenarioReport* report) {
  if (net_->IsAlive(slot)) return;
  net_->SetAlive(slot, true);
  ++report->recoveries;
}

uint64_t ScenarioEngine::MemoryBytes() const {
  return net_->MemoryBytes() + queue_.MemoryBytes() +
         crash_epoch_.capacity() * sizeof(uint16_t) + index_.MemoryBytes() +
         arena_.MemoryBytes();
}

Result<ScenarioReport> ScenarioEngine::Run(StageSplit* split) {
  CHECK(on_owner_thread())
      << "ScenarioEngine is single-threaded by design; Run() must stay on "
         "the constructing thread";
  CHECK(!ran_) << "ScenarioEngine::Run is single-shot";
  ran_ = true;
  clock_ = StageClock(split);

  // Only a publish adds identifiers, at most l per query: the index
  // is sized once, for that bound, and never grows.
  index_ = IdentifierIndex(config_.num_queries *
                           static_cast<size_t>(lsh_->l()));
  ScheduleWorkload();
  ScenarioReport report;

  double recall_before = 0.0;
  uint64_t queries_before = 0;
  double recall_during = 0.0;
  uint64_t queries_during = 0;
  double recall_after = 0.0;
  uint64_t queries_after = 0;
  const double wave_settle_ms = 2.0 * kRecoverDelayMs;
  double pre_wave_mean = -1.0;

  std::vector<uint32_t> crash_victims;
  for (;;) {
    if (QueryDue()) {
      // A window: this query and the queries due right behind it, up to
      // the first crash or recover event.
      window_.clear();
      do {
        window_.emplace_back().time_ms = QueryTimeMs(queries_fired_++);
      } while (window_.size() < kWindowQueries && QueryDue());
      RunWindow(&report);
      for (const WindowQuery& query : window_) {
        now_ms_ = query.time_ms;
        if (recent_recall_.size() < kRecallWindow) {
          recent_recall_.push_back(query.recall);
        } else {
          recent_recall_[recent_pos_] = query.recall;
          recent_pos_ = (recent_pos_ + 1) % kRecallWindow;
        }
        if (wave_time_ms_ < 0.0) continue;
        if (now_ms_ < wave_time_ms_) {
          recall_before += query.recall;
          ++queries_before;
        } else if (now_ms_ < wave_time_ms_ + wave_settle_ms) {
          recall_during += query.recall;
          ++queries_during;
        } else {
          recall_after += query.recall;
          ++queries_after;
        }
        // Recovery clock: first post-wave instant the rolling mean
        // regains 95% of the pre-wave level.
        if (now_ms_ >= wave_time_ms_ && report.recovery_ms < 0.0 &&
            pre_wave_mean > 0.0 && recent_recall_.size() == kRecallWindow) {
          double sum = 0.0;
          for (const double r : recent_recall_) sum += r;
          if (sum / static_cast<double>(kRecallWindow) >=
              0.95 * pre_wave_mean) {
            report.recovery_ms = now_ms_ - wave_time_ms_;
          }
        }
      }
      continue;
    }
    Event e;
    if (!queue_.Pop(&e)) break;
    now_ms_ = e.time_ms;
    switch (e.type) {
      case EventType::kCrash: {
        if (wave_time_ms_ >= 0.0 && pre_wave_mean < 0.0 &&
            queries_before > 0) {
          pre_wave_mean =
              recall_before / static_cast<double>(queries_before);
        }
        const uint32_t victim = net_->RandomAliveSlot(rng_);
        Crash(victim, &report);
        if (config_.churn == ChurnMode::kChurn &&
            !net_->IsAlive(victim)) {
          Schedule(now_ms_ + kRecoverDelayMs, EventType::kRecover, victim);
        } else if (config_.churn == ChurnMode::kCrashWave &&
                   !net_->IsAlive(victim)) {
          crash_victims.push_back(victim);
        }
        break;
      }
      case EventType::kRecover: {
        uint32_t slot = e.subject;
        if (config_.churn == ChurnMode::kCrashWave) {
          if (crash_victims.empty()) break;
          slot = crash_victims.back();
          crash_victims.pop_back();
        }
        Recover(slot, &report);
        break;
      }
    }
  }

  report.end_time_ms = now_ms_;
  report.event_queue_depth = queue_depth_;
  report.bytes_per_peer = MemoryBytes() / config_.num_peers;
  if (wave_time_ms_ >= 0.0) {
    if (queries_before > 0) {
      report.recall_before_wave =
          recall_before / static_cast<double>(queries_before);
    }
    if (queries_during > 0) {
      report.recall_during_wave =
          recall_during / static_cast<double>(queries_during);
    }
    if (queries_after > 0) {
      report.recall_after_wave =
          recall_after / static_cast<double>(queries_after);
    }
  }
  return report;
}

}  // namespace sim
}  // namespace p2prange
