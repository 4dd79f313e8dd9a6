// engine_uniform and engine_zipf_wide: the paper's §5.1 scenario at
// 10^5 Chord peers in sim::ScenarioEngine.
//
// A run is a fixed number of batches (--seconds / the nominal batch
// time, at least kMinBatches). Batch b runs the scenario seeded with
// DeriveSeed(seed, b): Make is the set-up time, Run the measured work.
// Spreading one run over several seeds, and so several LSH families and
// peer sets, keeps hit rate and recall from hanging on one draw. Batch
// 0's scenario is run once more at the end and must reproduce its
// report exactly (the determinism check). The traced run adds
// the per-layer probes: IdentifiersInto over the workload's own range
// shape and CompactOverlay::Route at the workload's peer count, each
// timed in isolation, plus the ScenarioReport counters per query.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "hash/lsh.h"
#include "sim/engine/compact_overlay.h"
#include "sim/engine/scenario_engine.h"
#include "workload/range_workload.h"
#include "workloads.h"

namespace p2prange {
namespace perfbench {

namespace {

constexpr size_t kPeers = 100000;
constexpr uint32_t kDomain = 1000000;
constexpr size_t kMinBatches = 3;
/// Make is cheap next to Run: time it this often per batch.
constexpr int kMakeReps = 3;
/// Ranges / routes per per-layer timing pass, and passes per probe.
constexpr size_t kProbeSamples = 4096;
constexpr int kProbeReps = 5;
/// One engine workload: its scenario cell and the nominal wall time of
/// one Make + Run, which turns --seconds into a fixed batch count (so a
/// seed always yields the same batches).
struct EngineShape {
  sim::ScenarioConfig config;
  double nominal_batch_s = 1.0;
};

EngineShape ShapeFor(const RunOptions& options) {
  EngineShape shape;
  sim::ScenarioConfig& config = shape.config;
  config.kind = overlay::Kind::kChord;
  config.num_peers = kPeers;
  config.domain = kDomain;
  config.replication = 3;
  config.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise);
  if (options.workload == "engine_zipf_wide") {
    config.shape = sim::WorkloadShape::kZipf;
    config.zipf_theta = 0.8;
    config.zipf_mean_width = 333000.0;
    config.churn = sim::ChurnMode::kChurn;
    config.num_queries = 10000;
    shape.nominal_batch_s = 2.0;
  } else {
    config.shape = sim::WorkloadShape::kUniform;
    config.churn = sim::ChurnMode::kNone;
    config.num_queries = 20000;
    shape.nominal_batch_s = 1.3;
  }
  return shape;
}

/// Every counter of two runs of the same seeded scenario must agree.
bool SameReport(const sim::ScenarioReport& a, const sim::ScenarioReport& b) {
  return a.queries == b.queries && a.exact_hits == b.exact_hits &&
         a.approx_hits == b.approx_hits && a.misses == b.misses &&
         a.recall_sum == b.recall_sum && a.hops == b.hops &&
         a.messages == b.messages && a.bytes == b.bytes &&
         a.publishes == b.publishes &&
         a.descriptors_stored == b.descriptors_stored &&
         a.stale_evictions == b.stale_evictions && a.crashes == b.crashes &&
         a.recoveries == b.recoveries;
}

void CheckReport(const sim::ScenarioConfig& config,
                 const sim::ScenarioReport& r, Report* report) {
  report->Check(r.queries == config.num_queries,
                "engine completed every requested query");
  report->Check(r.exact_hits + r.approx_hits + r.misses == r.queries,
                "engine exact + approx + misses == queries");
  report->Check(r.mean_recall() >= 0.0 && r.mean_recall() <= 1.0,
                "engine mean recall within [0, 1]");
  report->Check(r.publishes == r.queries - r.exact_hits,
                "engine publishes once per non-exact answer");
}

/// The workload's own query-range shape, drawn with the src/workload
/// generators (the engine draws the same distributions internally).
std::vector<Range> WorkloadRanges(const sim::ScenarioConfig& config) {
  const uint64_t seed = config.seed ^ 0x7261'6e67'6573ULL;
  if (config.shape == sim::WorkloadShape::kZipf) {
    ZipfRangeGenerator gen(0, config.domain, config.zipf_theta,
                           config.zipf_mean_width, seed);
    return DrawRanges(gen, kProbeSamples);
  }
  UniformRangeGenerator gen(0, config.domain, seed);
  return DrawRanges(gen, kProbeSamples);
}

struct RouteProbe {
  double route_us = 0.0;
  double hops_per_route = 0.0;
};

/// Median microseconds per CompactOverlay::Route between random alive
/// origins and random identifiers, on the engine's own overlay.
RouteProbe TimeRoute(const sim::ScenarioConfig& config, Tracer* tracer,
                     Report* report) {
  RouteProbe probe;
  auto net = sim::MakeCompactOverlay(config.kind, config.num_peers,
                                     config.seed, config.can_dims);
  report->Check(net.ok(), "MakeCompactOverlay succeeded");
  if (!net.ok()) return probe;
  Rng rng(config.seed ^ 0x726f'7574'65ULL);
  std::vector<std::pair<uint32_t, uint32_t>> pairs(kProbeSamples);
  for (auto& [origin, id] : pairs) {
    origin = (*net)->RandomAliveSlot(rng);
    id = rng.Next32();
  }
  std::vector<double> per_call_us;
  uint64_t hops_total = 0;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    ScopedSpan span(tracer, "overlay.route");
    int hops = 0;
    const Clock::time_point t0 = Clock::now();
    for (const auto& [origin, id] : pairs) (*net)->Route(origin, id, &hops);
    per_call_us.push_back(SecondsSince(t0) * 1e6 /
                          static_cast<double>(pairs.size()));
    hops_total += static_cast<uint64_t>(hops);
  }
  probe.route_us = Median(per_call_us);
  probe.hops_per_route = static_cast<double>(hops_total) /
                         static_cast<double>(kProbeReps * pairs.size());
  return probe;
}

}  // namespace

double TimeIdentifiersUs(const std::vector<Range>& ranges, uint64_t lsh_seed,
                         Tracer* tracer) {
  auto scheme = LshScheme::Make(
      LshParams::Paper(HashFamilyType::kApproxMinwise, lsh_seed));
  if (!scheme.ok() || ranges.empty()) return 0.0;
  std::vector<uint32_t> ids;
  std::vector<double> per_call_us;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    ScopedSpan span(tracer, "hash.identifiers");
    const Clock::time_point t0 = Clock::now();
    for (const Range& r : ranges) scheme->IdentifiersInto(r, &ids);
    per_call_us.push_back(SecondsSince(t0) * 1e6 /
                          static_cast<double>(ranges.size()));
  }
  return Median(per_call_us);
}

void RunEngineWorkload(const RunOptions& options, Report* report,
                       Tracer* tracer) {
  const EngineShape shape = ShapeFor(options);
  const size_t batches = std::max<size_t>(
      kMinBatches,
      static_cast<size_t>(std::llround(options.seconds / shape.nominal_batch_s)));
  auto batch_config = [&](size_t batch) {
    sim::ScenarioConfig config = shape.config;
    config.seed = DeriveSeed(options.seed, batch);
    return config;
  };
  report->Context("peers", std::to_string(shape.config.num_peers));
  report->Context("queries_per_batch", std::to_string(shape.config.num_queries));
  report->Context("batches", std::to_string(batches));
  report->Context("shape", sim::WorkloadShapeName(shape.config.shape));
  report->Context("churn", sim::ChurnModeName(shape.config.churn));

  // One scenario: Make (the set-up time), then Run (the measured work).
  // Both are timed in process CPU seconds: the engine is single-threaded
  // and never blocks, so on an idle host CPU time equals wall time, and
  // on a busy one it leaves out the hypervisor's steal. Run's wall time
  // is kept too, for the context line.
  auto run_batch = [&](const sim::ScenarioConfig& config, double* make_s,
                       double* run_s, double* run_wall_s)
      -> Result<sim::ScenarioReport> {
    const uint32_t root = tracer->Begin("sim.batch");
    Result<sim::ScenarioEngine> engine = Status::InvalidArgument("not built");
    std::vector<double> make_samples;
    for (int rep = 0; rep < kMakeReps; ++rep) {
      const double cpu0 = ProcessCpuSeconds();
      {
        ScopedSpan span(tracer, "sim.make", root);
        engine = sim::ScenarioEngine::Make(config);
      }
      make_samples.push_back(ProcessCpuSeconds() - cpu0);
    }
    *make_s = Median(make_samples);
    if (!engine.ok()) {
      tracer->End(root);
      return engine.status();
    }
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    auto result = [&] {
      ScopedSpan span(tracer, "sim.run", root);
      return engine->Run();
    }();
    *run_s = ProcessCpuSeconds() - cpu0;
    *run_wall_s = SecondsSince(t0);
    tracer->End(root);
    return result;
  };

  // The end-to-end metrics charge Make and Run in full-core CPU seconds:
  // CPU time times the share of its core the vCPU had (CoreShare, taken
  // on either side of the batch, on the CPU PinToFastestCpu picked for
  // it). On this kind of shared host the engine's CPU-time rate swung
  // by up to 1.5x between minutes with the load of other guests; the
  // share follows most of that swing.
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> qps;
  std::vector<double> cpu_qps;
  std::vector<double> wall_qps;
  std::vector<double> core_share;
  std::vector<sim::ScenarioReport> reports;
  std::vector<double> cpus;
  uint64_t failed = 0;
  for (size_t batch = 0; batch < batches; ++batch) {
    const sim::ScenarioConfig config = batch_config(batch);
    double make_s = 0.0;
    double cpu_s = 0.0;
    double wall_s = 0.0;
    cpus.push_back(PinToFastestCpu());
    const double share_before = CoreShare();
    auto result = run_batch(config, &make_s, &cpu_s, &wall_s);
    const double share = (share_before + CoreShare()) / 2.0;
    if (!result.ok()) {
      failed += config.num_queries;
      report->Check(false, "ScenarioEngine: " + result.status().ToString());
      continue;
    }
    CheckReport(config, *result, report);
    const double queries = static_cast<double>(result->queries);
    const double full_core_s = cpu_s * share;
    setup_s.push_back(make_s * share);
    run_s.push_back(cpu_s);
    qps.push_back(queries / full_core_s);
    cpu_qps.push_back(queries / cpu_s);
    wall_qps.push_back(queries / wall_s);
    core_share.push_back(share);
    reports.push_back(*result);
  }
  // Determinism: batch 0's scenario again must reproduce its report.
  {
    double make_s = 0.0;
    double cpu_s = 0.0;
    double wall_s = 0.0;
    auto again = run_batch(batch_config(0), &make_s, &cpu_s, &wall_s);
    report->Check(again.ok() && !reports.empty() &&
                      SameReport(reports.front(), *again),
                  "a re-run of one seeded scenario reproduces its report");
  }
  auto joined = [](const std::vector<double>& values, double scale) {
    std::string text;
    for (const double v : values) {
      text += (text.empty() ? "" : ",") + std::to_string(std::llround(v * scale));
    }
    return text;
  };
  report->Context("batch_queries_per_full_core_s", joined(qps, 1.0));
  report->Context("batch_queries_per_cpu_s", joined(cpu_qps, 1.0));
  report->Context("batch_queries_per_wall_s", joined(wall_qps, 1.0));
  report->Context("batch_core_share_permille", joined(core_share, 1000.0));
  report->Context("batch_cpu", joined(cpus, 1.0));
  report->CountAttempts(batches * shape.config.num_queries, failed);
  if (reports.empty()) return;

  sim::ScenarioReport total;
  uint64_t bytes_per_peer = 0;
  uint64_t event_queue_depth = 0;
  for (const sim::ScenarioReport& r : reports) {
    total.queries += r.queries;
    total.exact_hits += r.exact_hits;
    total.approx_hits += r.approx_hits;
    total.recall_sum += r.recall_sum;
    total.hops += r.hops;
    total.messages += r.messages;
    total.bytes += r.bytes;
    total.publishes += r.publishes;
    total.descriptors_stored += r.descriptors_stored;
    total.stale_evictions += r.stale_evictions;
    bytes_per_peer = std::max(bytes_per_peer, r.bytes_per_peer);
    event_queue_depth = std::max(event_queue_depth, r.event_queue_depth);
  }
  const double queries = static_cast<double>(total.queries);
  std::vector<double> ms_per_query;
  for (const double q : qps) ms_per_query.push_back(1e3 / q);
  report->Set("setup_s", Median(setup_s));
  report->Set("queries_per_s", Median(qps));
  report->Set("hit_rate",
              static_cast<double>(total.exact_hits + total.approx_hits) /
                  queries);
  report->Set("mean_recall", total.mean_recall());
  report->Set("success_rate",
              1.0 - static_cast<double>(failed) /
                        static_cast<double>(batches * shape.config.num_queries));
  report->Set("peak_rss_mb", SelfPeakRssMb());
  if (!options.trace) return;

  // --- per-layer (traced run) ------------------------------------------
  // Shares of Run's CPU time (as measured, not scaled to a full core,
  // like the per-call timings), estimated from the isolated per-call
  // costs of batch 0's scheme and overlay.
  const sim::ScenarioConfig config = batch_config(0);
  const double wall_s = std::accumulate(run_s.begin(), run_s.end(), 0.0);
  const double publishes = static_cast<double>(total.publishes);
  const double identifiers_us = TimeIdentifiersUs(
      WorkloadRanges(config), config.seed ^ 0x5bd1e995u, tracer);
  const RouteProbe route = TimeRoute(config, tracer, report);
  report->Set("hash.identifiers_us", identifiers_us);
  report->Set("hash.est_share",
              (queries + publishes) * identifiers_us * 1e-6 / wall_s);
  report->Set("overlay.route_us", route.route_us);
  report->Set("overlay.hops_per_route", route.hops_per_route);
  report->Set("overlay.est_share", static_cast<double>(config.lsh.l) *
                                       (queries + publishes) * route.route_us *
                                       1e-6 / wall_s);
  report->Set("sim.hops_per_query", static_cast<double>(total.hops) / queries);
  report->Set("sim.messages_per_query",
              static_cast<double>(total.messages) / queries);
  report->Set("sim.bytes_per_query", static_cast<double>(total.bytes) / queries);
  report->Set("sim.publishes_per_query", publishes / queries);
  report->Set("sim.copies_stored_per_query",
              static_cast<double>(total.descriptors_stored) / queries);
  report->Set("sim.stale_evictions_per_query",
              static_cast<double>(total.stale_evictions) / queries);
  report->Set("sim.bytes_per_peer", static_cast<double>(bytes_per_peer));
  report->Set("sim.event_queue_depth", static_cast<double>(event_queue_depth));
  report->Set("sim.mean_recall", total.mean_recall());
  report->Set("trace.queries_per_s", Median(qps));
  report->Set("trace.lookup_p50_ms", Median(ms_per_query));
}

}  // namespace perfbench
}  // namespace p2prange
