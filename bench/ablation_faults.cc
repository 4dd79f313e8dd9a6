// Ablation: lookup robustness under injected faults.
//
// The paper's protocol assumes reachable identifier owners and live
// descriptor holders. This bench drives the full query path through
// the fault injector at several fault intensities — abrupt transient
// crashes between and during queries, plus transit loss — and reports
// how gracefully the protocol degrades: query success rate, answer
// completeness, and the extra messages the fault machinery costs
// (retransmissions, failover probes, source fallbacks), for
// descriptor replication 1, 2, and 3.
#include <cstdlib>
#include <iostream>

#include "bench/bench_args.h"
#include "bench/bench_util.h"
#include "sim/fault_injector.h"
#include "workload/range_workload.h"

namespace p2prange {
namespace bench {
namespace {

void RunScenario(double fault_prob, int replication, size_t num_queries,
                 TablePrinter* table) {
  SystemConfig cfg;
  cfg.num_peers = 100;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, 42);
  cfg.criterion = MatchCriterion::kContainment;
  cfg.descriptor_replication = replication;
  cfg.overlay.latency.loss_rate = fault_prob > 0.0 ? 0.05 : 0.0;
  cfg.overlay.max_message_retries = 6;
  cfg.fault.max_retries = 6;
  cfg.seed = 42;
  auto sys = RangeCacheSystem::Make(
      cfg, MakeNumbersCatalog(10, kDomainLo, kDomainHi, 1));
  CHECK(sys.ok());

  FaultInjectorConfig fcfg;
  fcfg.crash_prob = fault_prob;
  fcfg.recover_prob = fault_prob / 2.0;
  fcfg.mid_query_crash_prob = fault_prob / 10.0;
  fcfg.stabilize_every = 10;
  fcfg.min_alive = 10;
  fcfg.seed = 4242;
  FaultInjector injector(&*sys, fcfg);

  UniformRangeGenerator gen(kDomainLo, kDomainHi, 4242);
  auto report = injector.RunLookups(
      [&gen] { return PartitionKey{"Numbers", "key", gen.Next()}; },
      num_queries);
  CHECK(report.ok()) << report.status();

  const SystemMetrics& m = sys->metrics();
  const double q = static_cast<double>(report->queries);
  const double extra_msgs =
      static_cast<double>(m.retransmissions + m.probe_failovers) / q;
  table->AddRow(
      {TablePrinter::Fmt(fault_prob, 2), TablePrinter::Fmt(replication),
       TablePrinter::Fmt(report->queries),
       TablePrinter::Fmt(100.0 *
                             static_cast<double>(report->queries -
                                                 report->errors) /
                             q,
                         1),
       TablePrinter::Fmt(
           100.0 * static_cast<double>(report->matched) / q, 1),
       TablePrinter::Fmt(100.0 * report->mean_recall, 1),
       TablePrinter::Fmt(
           100.0 * static_cast<double>(report->degraded) / q, 1),
       TablePrinter::Fmt(extra_msgs, 2),
       TablePrinter::Fmt(m.stale_evictions),
       TablePrinter::Fmt(report->crashes + report->kills)});
}

void Run(size_t num_queries) {
  TablePrinter table({"fault prob", "replication", "queries", "% ok",
                      "% matched", "mean recall %", "% degraded",
                      "extra msgs/query", "stale evictions", "faults"});
  for (double fault : {0.0, 0.05, 0.15, 0.3}) {
    for (int repl : {1, 2, 3}) {
      RunScenario(fault, repl, num_queries, &table);
      if (fault == 0.0) break;  // replication is irrelevant without faults
    }
  }
  table.Print(std::cout, "Ablation: lookup robustness under injected faults (" +
                             TablePrinter::Fmt(num_queries) + " lookups)");
  std::cout << "(expected: success rate stays at 100% — faults degrade\n"
               " answers, never fail queries; higher fault rates depress\n"
               " match/recall and inflate extra messages, replication\n"
               " buys back match rate at the cost of failover probes)\n";
}

}  // namespace
}  // namespace bench
}  // namespace p2prange

int main(int argc, char** argv) {
  const size_t n = p2prange::bench::CountFromArgs(argc, argv, 400, 60);
  p2prange::bench::Run(n);
  return 0;
}
