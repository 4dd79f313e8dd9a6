// Regenerates Figure 12: overlay path lengths of lookups.
//
//  (a) mean / 1st / 99th percentile path length (Chord routing hops per
//      identifier lookup) as the number of peers grows 100..5000 — the
//      paper observes means of order (1/2)log2 N;
//  (b) the probability distribution of path length in a 1000-node
//      network.
//
// Lookups target the actual LSH identifiers of uniform query ranges,
// initiated at uniformly random peers, 5 identifiers per query, per
// the paper's modified find operation.
#include <cmath>
#include <cstdlib>

#include "bench/bench_util.h"
#include "bench/bench_args.h"

namespace p2prange {
namespace bench {
namespace {

Summary MeasureHops(size_t num_peers, size_t num_queries, uint64_t seed,
                    std::vector<double>* raw_out = nullptr) {
  SystemConfig cfg;
  cfg.num_peers = num_peers;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, seed);
  cfg.seed = seed;
  auto sys = RangeCacheSystem::Make(
      cfg, MakeNumbersCatalog(10, kDomainLo, kDomainHi, 1));
  CHECK(sys.ok()) << sys.status();

  UniformRangeGenerator gen(kDomainLo, kDomainHi, seed ^ 0xABCD);
  Summary hops;
  for (size_t i = 0; i < num_queries; ++i) {
    const Range q = gen.Next();
    const auto origin = sys->overlay().RandomAliveAddress();
    CHECK(origin.ok());
    for (uint32_t id : sys->lsh().Identifiers(q)) {
      auto route = sys->overlay().RouteToOwner(*origin, id);
      CHECK(route.ok()) << route.status();
      hops.AddCount(static_cast<uint64_t>(route->hops));
      if (raw_out != nullptr) raw_out->push_back(route->hops);
    }
  }
  return hops;
}

void Run(size_t num_queries) {
  TablePrinter a({"peers", "mean hops", "1st pct", "99th pct",
                  "0.5*log2(N) reference"});
  for (size_t peers : {100u, 300u, 1000u, 2000u, 5000u}) {
    const Summary hops = MeasureHops(peers, num_queries, 3);
    a.AddRow({TablePrinter::Fmt(static_cast<uint64_t>(peers)),
              TablePrinter::Fmt(hops.Mean(), 2),
              TablePrinter::Fmt(hops.Percentile(1), 0),
              TablePrinter::Fmt(hops.Percentile(99), 0),
              TablePrinter::Fmt(0.5 * std::log2(static_cast<double>(peers)), 2)});
  }
  a.Print(std::cout, "Figure 12(a): path length vs number of peers (" +
                         std::to_string(num_queries) + " queries x 5 ids)");
  std::cout << "\n";

  std::vector<double> raw;
  (void)MeasureHops(1000, num_queries, 3, &raw);
  const std::vector<double> pdf = DiscretePdf(raw);
  TablePrinter b({"path length (hops)", "probability"});
  for (size_t h = 0; h < pdf.size(); ++h) {
    b.AddRow({TablePrinter::Fmt(static_cast<uint64_t>(h)),
              TablePrinter::Fmt(pdf[h], 4)});
  }
  b.Print(std::cout,
          "Figure 12(b): PDF of path length, 1000-node network");
}

}  // namespace
}  // namespace bench
}  // namespace p2prange

int main(int argc, char** argv) {
  const size_t n = p2prange::bench::CountFromArgs(argc, argv, 1000, 100);
  p2prange::bench::Run(n);
  return 0;
}
