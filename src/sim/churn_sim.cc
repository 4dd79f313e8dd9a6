#include "sim/churn_sim.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/logging.h"

namespace p2prange {

namespace {
/// Exponential inter-arrival time for a Poisson process of `rate_hz`.
double NextArrival(Rng& rng, double rate_hz) {
  if (rate_hz <= 0.0) return std::numeric_limits<double>::infinity();
  return -std::log(1.0 - rng.NextDouble()) / rate_hz;
}
}  // namespace

const char* LiveChurnEventKindName(LiveChurnEventKind kind) {
  switch (kind) {
    case LiveChurnEventKind::kJoin:
      return "join";
    case LiveChurnEventKind::kKill:
      return "kill";
    case LiveChurnEventKind::kRestart:
      return "restart";
  }
  return "unknown";
}

std::vector<LiveChurnEvent> GenerateLiveChurnSchedule(
    const ChurnScenarioConfig& config) {
  // Two independent Poisson processes, exactly as the simulator draws
  // them; departures split into kill/restart per event so the
  // fail_fraction holds in expectation at any schedule length.
  Rng rng(config.seed);
  std::vector<LiveChurnEvent> events;
  for (double t = NextArrival(rng, config.join_rate_hz);
       t <= config.duration_s; t += NextArrival(rng, config.join_rate_hz)) {
    events.push_back({t, LiveChurnEventKind::kJoin});
  }
  for (double t = NextArrival(rng, config.leave_rate_hz);
       t <= config.duration_s; t += NextArrival(rng, config.leave_rate_hz)) {
    events.push_back({t, rng.NextBernoulli(config.fail_fraction)
                             ? LiveChurnEventKind::kKill
                             : LiveChurnEventKind::kRestart});
  }
  std::sort(events.begin(), events.end(),
            [](const LiveChurnEvent& a, const LiveChurnEvent& b) {
              return a.t_s < b.t_s;
            });
  return events;
}

ChurnSimulator::ChurnSimulator(RangeCacheSystem* system,
                               std::function<PartitionKey()> make_query,
                               ChurnScenarioConfig config)
    : system_(system), make_query_(std::move(make_query)), config_(config) {
  CHECK(system_ != nullptr);
  CHECK(make_query_ != nullptr);
  rng_ = Rng(config.seed);
}

Result<ChurnReport> ChurnSimulator::Run(int num_slices) {
  if (num_slices < 1) {
    return Status::InvalidArgument("num_slices must be >= 1");
  }
  struct Event {
    double time;
    EventType type;
    bool operator>(const Event& other) const { return time > other.time; }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  queue.push({NextArrival(rng_, config_.query_rate_hz), EventType::kQuery});
  queue.push({NextArrival(rng_, config_.join_rate_hz), EventType::kJoin});
  queue.push({NextArrival(rng_, config_.leave_rate_hz), EventType::kLeave});
  if (config_.recover_rate_hz > 0.0) {
    queue.push({NextArrival(rng_, config_.recover_rate_hz), EventType::kRecover});
  }
  if (config_.stabilize_period_s > 0) {
    queue.push({config_.stabilize_period_s, EventType::kStabilize});
  }

  ChurnReport report;
  report.slices.resize(num_slices);
  const double slice_len = config_.duration_s / num_slices;
  for (int s = 0; s < num_slices; ++s) {
    report.slices[s].t_begin = s * slice_len;
    report.slices[s].t_end = (s + 1) * slice_len;
  }
  std::vector<double> recall_sums(num_slices, 0.0);

  // The repair counter is cumulative in SystemMetrics; slices report
  // the delta accumulated while they were current.
  uint64_t prev_repaired = system_->metrics().recovery_descriptors_repaired;
  auto close_slice = [&](int s) {
    ChurnTimeSlice& slice = report.slices[s];
    slice.alive_at_end = system_->overlay().num_alive();
    const uint64_t repaired = system_->metrics().recovery_descriptors_repaired;
    slice.descriptors_repaired = repaired - prev_repaired;
    prev_repaired = repaired;
  };

  int cur_slice = 0;
  while (!queue.empty() && queue.top().time <= config_.duration_s) {
    const Event ev = queue.top();
    queue.pop();
    int slice = static_cast<int>(ev.time / slice_len);
    if (slice >= num_slices) slice = num_slices - 1;
    // Crossing into a new slice: snapshot the overlay size at the end
    // of every slice we just left.
    while (cur_slice < slice) {
      close_slice(cur_slice++);
    }
    ChurnTimeSlice& out = report.slices[slice];

    switch (ev.type) {
      case EventType::kQuery: {
        auto outcome = system_->LookupRange(make_query_());
        ++report.total_queries;
        ++out.queries;
        if (!outcome.ok()) {
          ++report.protocol_errors;
        } else {
          const double recall =
              outcome->match ? outcome->match->recall : 0.0;
          out.matched += outcome->match.has_value();
          out.complete += recall >= 1.0;
          recall_sums[slice] += recall;
        }
        queue.push({ev.time + NextArrival(rng_, config_.query_rate_hz),
                    EventType::kQuery});
        break;
      }
      case EventType::kJoin: {
        if (system_->AddPeer().ok()) ++out.joins;
        queue.push({ev.time + NextArrival(rng_, config_.join_rate_hz),
                    EventType::kJoin});
        break;
      }
      case EventType::kLeave: {
        if (system_->overlay().num_alive() > config_.min_peers) {
          auto victim = system_->overlay().RandomAliveAddress();
          if (victim.ok() && *victim != system_->source_address()) {
            const bool graceful = !rng_.NextBernoulli(config_.fail_fraction);
            if (!graceful && config_.recover_rate_hz > 0.0) {
              // Abrupt departure as a transient crash: the peer keeps
              // its durable images and rejoins on a kRecover event.
              if (system_->CrashPeer(*victim).ok()) {
                crashed_.push_back(*victim);
                ++out.departures;
                ++out.crashes;
              }
            } else if (system_->RemovePeer(*victim, graceful).ok()) {
              ++out.departures;
            }
          }
        }
        queue.push({ev.time + NextArrival(rng_, config_.leave_rate_hz),
                    EventType::kLeave});
        break;
      }
      case EventType::kRecover: {
        if (!crashed_.empty()) {
          const NetAddress addr = crashed_.front();
          crashed_.erase(crashed_.begin());
          if (system_->RecoverPeer(addr).ok()) ++out.recoveries;
        }
        queue.push({ev.time + NextArrival(rng_, config_.recover_rate_hz),
                    EventType::kRecover});
        break;
      }
      case EventType::kStabilize: {
        system_->overlay().Stabilize(1);
        system_->overlay().RepairRouting();
        queue.push({ev.time + config_.stabilize_period_s, EventType::kStabilize});
        break;
      }
    }
  }

  // Slices the run ended in (or never reached) carry the final count.
  while (cur_slice < num_slices) {
    close_slice(cur_slice++);
  }
  for (int s = 0; s < num_slices; ++s) {
    ChurnTimeSlice& out = report.slices[s];
    out.mean_recall =
        out.queries == 0 ? 0.0 : recall_sums[s] / static_cast<double>(out.queries);
  }
  return report;
}

}  // namespace p2prange
