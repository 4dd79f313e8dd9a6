// The scenario matrix: every overlay substrate crossed with every
// workload shape and churn regime, on the event-driven engine.
//
// Grid: {chord, can, tapestry} x {uniform, zipf, hotspot} x
// {no-churn, steady churn, crash wave}, each cell reporting hops,
// recall, traffic, and (for the crash wave) the recovery clock —
// plus one million-peer cell proving the engine's memory-compact
// layout holds at 10^6 peers (bytes/peer is measured, not estimated).
//
// Output is a single JSON document on stdout (the checked-in
// BENCH_scenario_matrix.json); progress goes to stderr, one line per
// cell ending in its set-up and run wall time, the run's stage split,
// and the process's peak resident set so far (`make_ms=… run_ms=…
// draw_ms=… route_ms=… prefetch_ms=… probe_ms=… publish_ms=…
// peak_rss_mb=…`), the real footprint beside the engine's own
// `bytes_per_peer` count.
// The `nonzero_recall_overlays` field is the smoke-gate verdict: 3
// means every substrate produced cache hits under churn.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench/bench_args.h"
#include "common/logging.h"
#include "sim/engine/scenario_engine.h"

namespace p2prange {
namespace bench {
namespace {

struct Cell {
  overlay::Kind kind;
  sim::WorkloadShape shape;
  sim::ChurnMode churn;
  sim::ScenarioReport report;
};

/// Peak resident set of this process so far, MB (the kernel's VmHWM).
double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Runs one cell and ends its progress line on stderr with the wall
/// time of set-up (`Make`), of the run and of each of its stages, and
/// the process's peak resident set after it.
sim::ScenarioReport RunCell(const sim::ScenarioConfig& config) {
  using Clock = std::chrono::steady_clock;
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  const Clock::time_point start = Clock::now();
  auto engine = sim::ScenarioEngine::Make(config);
  CHECK(engine.ok()) << engine.status();
  const Clock::time_point made = Clock::now();
  sim::StageSplit split;
  auto report = engine->Run(&split);
  CHECK(report.ok()) << report.status();
  const double run_ms = ms(Clock::now() - made);
  const auto stage_ms = [](uint64_t ns) {
    return static_cast<double>(ns) / 1e6;
  };
  std::fprintf(stderr,
               " make_ms=%.1f run_ms=%.1f draw_ms=%.1f route_ms=%.1f "
               "prefetch_ms=%.1f probe_ms=%.1f publish_ms=%.1f "
               "peak_rss_mb=%.1f\n",
               ms(made - start), run_ms, stage_ms(split.draw_ns),
               stage_ms(split.route_ns), stage_ms(split.prefetch_ns),
               stage_ms(split.probe_ns), stage_ms(split.publish_ns),
               PeakRssMb());
  return *report;
}

std::string CellJson(const Cell& cell) {
  std::string out = "{\"overlay\":\"";
  out += overlay::KindName(cell.kind);
  out += "\",\"shape\":\"";
  out += sim::WorkloadShapeName(cell.shape);
  out += "\",\"churn\":\"";
  out += sim::ChurnModeName(cell.churn);
  out += "\",\"report\":";
  out += cell.report.ToJson();
  out += '}';
  return out;
}

void Run(size_t grid_peers, size_t grid_queries, size_t million_peers,
         size_t million_queries) {
  const overlay::Kind kKinds[] = {overlay::Kind::kChord, overlay::Kind::kCan,
                                  overlay::Kind::kTapestry};
  const sim::WorkloadShape kShapes[] = {sim::WorkloadShape::kUniform,
                                        sim::WorkloadShape::kZipf,
                                        sim::WorkloadShape::kHotspot};
  const sim::ChurnMode kChurns[] = {sim::ChurnMode::kNone,
                                    sim::ChurnMode::kChurn,
                                    sim::ChurnMode::kCrashWave};

  std::vector<Cell> cells;
  bool chord_churn_recall = false;
  bool can_churn_recall = false;
  bool tapestry_churn_recall = false;
  for (const overlay::Kind kind : kKinds) {
    for (const sim::WorkloadShape shape : kShapes) {
      for (const sim::ChurnMode churn : kChurns) {
        sim::ScenarioConfig config;
        config.kind = kind;
        config.shape = shape;
        config.churn = churn;
        config.num_peers = grid_peers;
        config.num_queries = grid_queries;
        config.seed = 1;
        std::fprintf(stderr, "scenario %s/%s/%s...",
                     overlay::KindName(kind), sim::WorkloadShapeName(shape),
                     sim::ChurnModeName(churn));
        Cell cell{kind, shape, churn, RunCell(config)};
        // The churn-resilience verdict: cache hits while peers fail.
        if (churn != sim::ChurnMode::kNone && cell.report.recall_sum > 0.0) {
          if (kind == overlay::Kind::kChord) chord_churn_recall = true;
          if (kind == overlay::Kind::kCan) can_churn_recall = true;
          if (kind == overlay::Kind::kTapestry) tapestry_churn_recall = true;
        }
        cells.push_back(std::move(cell));
      }
    }
  }

  std::fprintf(stderr, "scenario chord/uniform/none @ %zu peers...",
               million_peers);
  sim::ScenarioConfig big;
  big.kind = overlay::Kind::kChord;
  big.num_peers = million_peers;
  big.num_queries = million_queries;
  big.seed = 1;
  const sim::ScenarioReport million = RunCell(big);

  const int nonzero = (chord_churn_recall ? 1 : 0) +
                      (can_churn_recall ? 1 : 0) +
                      (tapestry_churn_recall ? 1 : 0);

  std::string out = "{\"grid_peers\":" + std::to_string(grid_peers);
  out += ",\"grid_queries\":" + std::to_string(grid_queries);
  out += ",\"cells\":[";
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += ',';
    out += CellJson(cells[i]);
  }
  out += "],\"million_peer\":{\"overlay\":\"chord\",\"peers\":" +
         std::to_string(million_peers);
  out += ",\"queries\":" + std::to_string(million_queries);
  out += ",\"report\":" + million.ToJson();
  out += "},\"nonzero_recall_overlays\":" + std::to_string(nonzero);
  out += "}";
  std::cout << out << std::endl;
}

}  // namespace
}  // namespace bench
}  // namespace p2prange

int main(int argc, char** argv) {
  // Smoke: the satellite gate's 10^4-peer grid plus the 10^6-peer
  // headline cell; full mode widens the grid tenfold.
  const size_t grid_peers =
      p2prange::bench::PeersFromArgs(argc, argv, 100000, 10000);
  const size_t grid_queries = grid_peers == 100000 ? 20000 : 3000;
  p2prange::bench::Run(grid_peers, grid_queries, 1000000, 100000);
  return 0;
}
