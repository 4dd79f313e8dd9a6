#include "sim/engine/scenario_engine.h"

#include <algorithm>

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
/// Separates the query stream's seed from rng_'s (origins, victims).
constexpr uint64_t kQuerySeedSalt = 0x9E3779B97F4A7C15ULL;
/// The engine ranks copies by containment |Q∩R|/|Q|: the Fig. 9
/// criterion, and what `mean_recall` reports (the recall of the best
/// overlapping copy). Under Jaccard only the exact range scores 1, so
/// the best copy's recall would no longer be the best recall on offer.
constexpr MatchCriterion kRankBy = MatchCriterion::kContainment;

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
  if (query_interval_ms <= 0.0 || churn_interval_ms <= 0.0 ||
      recover_delay_ms <= 0.0) {
    return Status::InvalidArgument("intervals must be positive");
  }
  if (crash_wave_fraction < 0.0 || crash_wave_fraction > 0.5) {
    return Status::InvalidArgument("crash_wave_fraction must be in [0, 0.5]");
  }
  if (hot_fraction < 0.0 || hot_fraction > 1.0) {
    return Status::InvalidArgument("hot_fraction must be in [0, 1]");
  }
  if (zipf_mean_width < 1.0) {
    return Status::InvalidArgument("zipf_mean_width must be >= 1");
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
                                          config.hot_fraction, seed)]() mutable {
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

void ScenarioReport::FillMetrics(SystemMetrics* m) const {
  m->range_lookups = queries;
  m->exact_hits = exact_hits;
  m->approx_hits = approx_hits;
  m->misses = misses;
  m->partitions_published = publishes;
  m->descriptors_stored = descriptors_stored;
  m->chord_hops = hops;
  m->stale_evictions = stale_evictions;
  m->peer_crashes = crashes;
  m->peer_recoveries = recoveries;
  m->bytes_per_peer = bytes_per_peer;
  m->event_queue_depth = event_queue_depth;
}

ScenarioEngine::ScenarioEngine(const ScenarioConfig& config)
    : config_(config), rng_(config.seed ^ 0x5CE9A210ULL) {}

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
  for (size_t i = 0; i < config_.num_queries; ++i) {
    queue_.Push(static_cast<double>(i + 1) * config_.query_interval_ms,
                EventType::kQuery, static_cast<uint32_t>(i));
  }
  const double horizon =
      static_cast<double>(config_.num_queries) * config_.query_interval_ms;
  if (config_.churn == ChurnMode::kChurn) {
    for (double t = config_.churn_interval_ms; t < horizon;
         t += config_.churn_interval_ms) {
      queue_.Push(t, EventType::kCrash, 0);
    }
  } else if (config_.churn == ChurnMode::kCrashWave) {
    wave_time_ms_ = 0.4 * horizon;
    const size_t wave = static_cast<size_t>(
        config_.crash_wave_fraction * static_cast<double>(config_.num_peers));
    for (size_t i = 0; i < wave; ++i) {
      queue_.Push(wave_time_ms_, EventType::kCrash, 0);
      // Staggered rejoins spread the repair load over the back half.
      queue_.Push(wave_time_ms_ + config_.recover_delay_ms *
                                      (1.0 + static_cast<double>(i) /
                                                 static_cast<double>(wave)),
                  EventType::kRecover, 0);
    }
  }
}

bool ScenarioEngine::CopyValid(const StoredDesc& d, uint32_t at_slot) const {
  return d.home == at_slot && net_->IsAlive(d.home) &&
         d.home_epoch == crash_epoch_[d.home];
}

void ScenarioEngine::PublishRange(const Range& r, uint32_t holder,
                                  ScenarioReport* report) {
  ++report->publishes;
  // The probe just routed to every identifier's owner: store there,
  // one message per copy and no routing hops (RangeCacheSystem charges
  // its cache-on-miss publish the same way).
  for (size_t g = 0; g < identifier_scratch_.size(); ++g) {
    const uint32_t owner = owner_scratch_[g];
    std::vector<StoredDesc>& bucket = buckets_[identifier_scratch_[g]];
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
      // Refresh an existing copy of the same range instead of letting
      // republishes grow the bucket without bound.
      bool refreshed = false;
      for (StoredDesc& existing : bucket) {
        if (existing.home == target && existing.lo == d.lo &&
            existing.hi == d.hi) {
          existing = d;
          refreshed = true;
          break;
        }
      }
      if (!refreshed) bucket.push_back(d);
      ++report->descriptors_stored;
      report->messages += 1;
      report->bytes += kControlBytes + kDescriptorBytes;
    }
  }
}

void ScenarioEngine::RunQuery(ScenarioReport* report) {
  const Range q = next_query_();
  const uint32_t origin = net_->RandomAliveSlot(rng_);
  lsh_->IdentifiersInto(q, &identifier_scratch_);
  owner_scratch_.clear();

  // The best valid copy under the shared §4 rule; a miss scores 0.
  double best_score = 0.0;
  bool best_exact = false;
  for (const uint32_t id : identifier_scratch_) {
    int hops = 0;
    const uint32_t owner = net_->Route(origin, id, &hops);
    owner_scratch_.push_back(owner);
    report->hops += static_cast<uint64_t>(hops);
    report->messages += static_cast<uint64_t>(hops) + 1;  // hops + reply
    report->bytes += (static_cast<uint64_t>(hops) + 1) * kControlBytes;
    auto it = buckets_.find(id);
    if (it == buckets_.end()) continue;
    std::vector<StoredDesc>& bucket = it->second;
    for (size_t i = 0; i < bucket.size();) {
      const StoredDesc& d = bucket[i];
      if (!CopyValid(d, owner)) {
        // Copies resident elsewhere (or orphaned by a crash epoch
        // bump) are invisible to this owner.
        ++i;
        continue;
      }
      if (!net_->IsAlive(d.holder)) {
        // Stale: the holder died with its materialized data.
        bucket[i] = bucket.back();
        bucket.pop_back();
        ++report->stale_evictions;
        continue;
      }
      const Range stored(d.lo, d.hi);
      const double score = ScoreMatch(q, stored, kRankBy);
      const bool exact = stored == q;
      if (Outranks(score, exact, best_score, best_exact)) {
        best_score = score;
        best_exact = exact;
      }
      ++i;
    }
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

  if (recent_recall_.size() < kRecallWindow) {
    recent_recall_.push_back(best_score);
  } else {
    recent_recall_[recent_pos_] = best_score;
    recent_pos_ = (recent_pos_ + 1) % kRecallWindow;
  }

  // The paper's cache-on-miss rule: a non-exact answer publishes the
  // queried range at its l identifier owners, holder = origin.
  if (!best_exact) PublishRange(q, origin, report);
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
  uint64_t bytes = net_->MemoryBytes() + queue_.MemoryBytes() +
                   crash_epoch_.capacity() * sizeof(uint16_t);
  // unordered_map node overhead, measured generously: bucket array +
  // one heap node (key + vector header + control) per entry.
  bytes += buckets_.bucket_count() * sizeof(void*);
  for (const auto& [id, bucket] : buckets_) {
    (void)id;
    bytes += 48 + bucket.capacity() * sizeof(StoredDesc);
  }
  return bytes;
}

Result<ScenarioReport> ScenarioEngine::Run() {
  CHECK(on_owner_thread())
      << "ScenarioEngine is single-threaded by design; Run() must stay on "
         "the constructing thread";
  CHECK(!ran_) << "ScenarioEngine::Run is single-shot";
  ran_ = true;

  ScheduleWorkload();
  ScenarioReport report;

  double recall_before = 0.0;
  uint64_t queries_before = 0;
  double recall_during = 0.0;
  uint64_t queries_during = 0;
  double recall_after = 0.0;
  uint64_t queries_after = 0;
  const double wave_settle_ms = 2.0 * config_.recover_delay_ms;
  double pre_wave_mean = -1.0;

  std::vector<uint32_t> crash_victims;
  Event e;
  while (queue_.Pop(&e)) {
    now_ms_ = e.time_ms;
    switch (e.type) {
      case EventType::kQuery: {
        const double before_sum = report.recall_sum;
        RunQuery(&report);
        const double recall = report.recall_sum - before_sum;
        if (wave_time_ms_ >= 0.0) {
          if (now_ms_ < wave_time_ms_) {
            recall_before += recall;
            ++queries_before;
          } else if (now_ms_ < wave_time_ms_ + wave_settle_ms) {
            recall_during += recall;
            ++queries_during;
          } else {
            recall_after += recall;
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
        break;
      }
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
          queue_.Push(now_ms_ + config_.recover_delay_ms, EventType::kRecover,
                      victim);
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
  report.event_queue_depth = queue_.max_depth();
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
