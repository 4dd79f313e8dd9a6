// Ablation: cache effectiveness under membership churn.
//
// The paper evaluates a static overlay; any real P2P deployment loses
// peers (and their cached descriptors and data) continuously. This
// bench runs the full protocol through the discrete-event churn
// simulator at several churn intensities, with and without descriptor
// replication, and reports per-phase match/complete rates — how well
// the self-repairing cache holds up.
#include <cstdlib>
#include <memory>

#include "bench/bench_args.h"
#include "bench/bench_util.h"
#include "sim/churn_sim.h"

namespace p2prange {
namespace bench {
namespace {

void RunScenario(double churn_hz, int replication, double recover_hz,
                 double duration_s, TablePrinter* table) {
  SystemConfig cfg;
  cfg.num_peers = 100;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, 42);
  cfg.criterion = MatchCriterion::kContainment;
  cfg.descriptor_replication = replication;
  cfg.seed = 42;
  auto sys = RangeCacheSystem::Make(
      cfg, MakeNumbersCatalog(10, kDomainLo, kDomainHi, 1));
  CHECK(sys.ok());

  auto gen = std::make_shared<UniformRangeGenerator>(kDomainLo, kDomainHi, 4242);
  ChurnScenarioConfig scenario;
  scenario.duration_s = duration_s;
  scenario.query_rate_hz = 4.0;
  scenario.join_rate_hz = churn_hz;
  scenario.leave_rate_hz = churn_hz;
  scenario.fail_fraction = 0.5;
  scenario.recover_rate_hz = recover_hz;
  scenario.stabilize_period_s = 15;
  scenario.seed = 42;
  ChurnSimulator sim(
      &*sys, [gen] { return PartitionKey{"Numbers", "key", gen->Next()}; },
      scenario);
  auto report = sim.Run(4);
  CHECK(report.ok()) << report.status();

  uint64_t queries = 0, matched = 0, complete = 0, churn_events = 0;
  uint64_t recoveries = 0, repaired = 0;
  for (const ChurnTimeSlice& s : report->slices) {
    queries += s.queries;
    matched += s.matched;
    complete += s.complete;
    churn_events += s.joins + s.departures;
    recoveries += s.recoveries;
    repaired += s.descriptors_repaired;
  }
  const ChurnTimeSlice& last = report->slices.back();
  table->AddRow(
      {TablePrinter::Fmt(churn_hz, 2), TablePrinter::Fmt(replication),
       TablePrinter::Fmt(recover_hz, 2),
       TablePrinter::Fmt(static_cast<uint64_t>(queries)),
       TablePrinter::Fmt(static_cast<uint64_t>(churn_events)),
       TablePrinter::Fmt(static_cast<uint64_t>(recoveries)),
       TablePrinter::Fmt(static_cast<uint64_t>(repaired)),
       TablePrinter::Fmt(
           100.0 * static_cast<double>(matched) / static_cast<double>(queries),
           1),
       TablePrinter::Fmt(100.0 * static_cast<double>(last.complete) /
                             static_cast<double>(std::max<uint64_t>(last.queries, 1)),
                         1),
       TablePrinter::Fmt(static_cast<uint64_t>(last.alive_at_end))});
}

void Run(double duration_s) {
  TablePrinter table({"churn rate (hz)", "replication", "recover (hz)",
                      "queries", "churn events", "recoveries",
                      "descr repaired", "% matched (all)",
                      "% complete (final phase)", "peers at end"});
  for (double churn : {0.0, 0.05, 0.2}) {
    for (int repl : {1, 3}) {
      RunScenario(churn, repl, /*recover_hz=*/0.0, duration_s, &table);
      if (churn == 0.0) break;  // replication is irrelevant without churn
      // Same scenario with durable crash recovery: abrupt departures
      // become transient crashes that replay their WAL and rejoin.
      RunScenario(churn, repl, /*recover_hz=*/churn, duration_s, &table);
    }
  }
  table.Print(std::cout,
              "Ablation: cache effectiveness under churn (" +
                  TablePrinter::Fmt(duration_s, 0) + "s simulated, 4 queries/s)");
  std::cout << "(expected: higher churn depresses match rates as departing\n"
               " peers take descriptors with them; replication recovers part\n"
               " of the loss; with a recover rate, abrupt departures replay\n"
               " their durable store and rejoin, keeping the overlay larger\n"
               " and the caches warmer)\n";
}

}  // namespace
}  // namespace bench
}  // namespace p2prange

int main(int argc, char** argv) {
  const double duration =
      p2prange::bench::DurationFromArgs(argc, argv, 600.0, 30.0);
  p2prange::bench::Run(duration);
  return 0;
}
