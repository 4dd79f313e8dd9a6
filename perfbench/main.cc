// p2prange_perfbench: the benchmark binary (perfbench/run.py
// builds and runs it).
//
//   p2prange_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      --scratch DIR
//
// Workloads: engine_uniform, engine_zipf_wide, live_mixed (see
// workloads.h). With --trace 0 the result line carries the end-to-end
// metrics, with --trace 1 the per-layer ones; the two tables below are
// the single list of names and units, mirrored by BENCHMARK.json.
// Exit status: 0 when every output check passed, 1 when one failed,
// 2 on a usage error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace p2prange {
namespace perfbench {
namespace {

const std::vector<Report::MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"queries_per_s", "1/s"},
    {"hit_rate", "fraction"},
    {"mean_recall", "fraction"},
    {"success_rate", "fraction"},
    {"peak_rss_mb", "MB"},
};

const std::vector<Report::MetricSpec> kPerLayer = {
    {"hash.identifiers_us", "us"},
    {"hash.est_share", "fraction"},
    {"overlay.route_us", "us"},
    {"overlay.hops_per_route", "count"},
    {"overlay.est_share", "fraction"},
    {"sim.hops_per_query", "count"},
    {"sim.messages_per_query", "count"},
    {"sim.bytes_per_query", "bytes"},
    {"sim.publishes_per_query", "count"},
    {"sim.copies_stored_per_query", "count"},
    {"sim.stale_evictions_per_query", "count"},
    {"sim.bytes_per_peer", "bytes"},
    {"sim.event_queue_depth", "count"},
    {"sim.mean_recall", "fraction"},
    {"loadgen.late_p50_ms", "ms"},
    {"loadgen.late_p99_ms", "ms"},
    {"ring_client.lookup_p50_ms", "ms"},
    {"ring_client.publish_p50_ms", "ms"},
    {"ring_client.lookup_p99_ms", "ms"},
    {"ring_client.publish_p99_ms", "ms"},
    {"ring_client.batched_probes_per_lookup", "count"},
    {"ring_client.failovers", "count"},
    {"ring_client.redirects", "count"},
    {"ring_client.view_refreshes", "count"},
    {"ring_client.retransmits", "count"},
    {"rpc.ping_rtt_us", "us"},
    {"rpc.codec_probe_ns", "ns"},
    {"rpc.bytes_per_op", "bytes"},
    {"rpc.frames_per_op", "count"},
    {"executor.max_queue", "count"},
    {"executor.shed", "count"},
    {"node.probes_served", "count"},
    {"node.probe_hit_ratio", "fraction"},
    {"node.multi_ops", "count"},
    {"node.store_descriptors", "count"},
    {"node.probe_us", "us"},
    {"node.store_us", "us"},
    {"node.store_mem_us", "us"},
    {"store.durable_flush_us", "us"},
    {"store.wal_bytes_per_insert", "bytes"},
    {"store.checkpoints_per_insert", "count"},
    {"trace.queries_per_s", "1/s"},
    {"trace.lookup_p50_ms", "ms"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: p2prange_perfbench --workload "
               "engine_uniform|engine_zipf_wide|live_mixed --seed N "
               "--seconds S --trace 0|1 --scratch DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench
}  // namespace p2prange

int main(int argc, char** argv) {
  using namespace p2prange::perfbench;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--scratch") {
      options.scratch_dir = value;
    } else {
      return Usage();
    }
  }
  const bool engine = options.workload == "engine_uniform" ||
                      options.workload == "engine_zipf_wide";
  if ((!engine && options.workload != "live_mixed") ||
      options.scratch_dir.empty() || !(options.seconds > 0.0) || argc % 2 == 0) {
    return Usage();
  }

  Report report;
  report.Context("workload", options.workload);
  report.Context("seed", std::to_string(options.seed));
  report.Context("seconds", std::to_string(options.seconds));
  report.Context("trace", options.trace ? "1" : "0");
  report.Context("nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)));

  Tracer tracer(options.trace);
  if (engine) {
    RunEngineWorkload(options, &report, &tracer);
  } else {
    RunLiveWorkload(options, &report, &tracer);
  }
  for (const Report::MetricSpec& m : kEndToEnd) {
    report.Check(report.Has(m.name), std::string("measured ") + m.name);
  }
  if (tracer.enabled()) {
    const std::string spans = options.scratch_dir + "/spans-" +
                              options.workload + "-" +
                              std::to_string(options.seed) + ".jsonl";
    report.Check(tracer.WriteJsonLines(spans), "wrote " + spans);
    report.Context("spans", spans + " (" + std::to_string(tracer.size()) + ")");
  }
  report.Print(options.trace ? kPerLayer : kEndToEnd);
  return report.correct() ? 0 : 1;
}
