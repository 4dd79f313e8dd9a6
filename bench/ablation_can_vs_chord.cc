// Substrate comparison: Chord vs CAN vs Tapestry as the DHT under the
// paper's architecture (§1 surveys all three; the paper builds on
// Chord, Harren et al. built on CAN, Tapestry is its citation [16]).
//
// All substrates are driven through the overlay::Overlay contract —
// the same RouteToOwner calls core::System makes — so this bench also
// doubles as a smoke test of the abstraction seam. Reported per
// overlay and size: mean/99th-percentile routing hops, per-node
// routing-state size (RoutingStateSizes: each substrate counts its own
// state layout), and the load imbalance of identifier ownership
// (max/mean of identifiers owned per node). Chord routes in O(log N) hops with O(log N) state;
// CAN in O(d*N^(1/d)) hops with O(d) state; Tapestry in O(log16 N)
// hops with compact prefix tables — the classical tradeoffs, measured
// on identical workloads.
#include <cmath>
#include <cstdlib>
#include <map>

#include "bench/bench_util.h"
#include "hash/lsh.h"
#include "overlay/overlay.h"

#include "bench/bench_args.h"

namespace p2prange {
namespace bench {
namespace {

std::vector<uint32_t> IdentifierStream(size_t count, uint64_t seed) {
  auto scheme = LshScheme::Make(LshParams::Paper(HashFamilyType::kApproxMinwise,
                                                 seed));
  CHECK(scheme.ok());
  UniformRangeGenerator gen(kDomainLo, kDomainHi, seed ^ 0xF00D);
  std::vector<uint32_t> ids;
  ids.reserve(count);
  while (ids.size() < count) {
    for (uint32_t id : scheme->Identifiers(gen.Next())) {
      if (ids.size() < count) ids.push_back(id);
    }
  }
  return ids;
}

struct OverlayRow {
  double mean_hops, p99_hops;
  double mean_state;  // routing-table entries per node
  double load_max_over_mean;
};

OverlayRow Measure(const overlay::OverlayParams& params, size_t n,
                   const std::vector<uint32_t>& ids) {
  auto net = overlay::MakeOverlay(params, n, 5);
  CHECK(net.ok()) << net.status();
  Summary hops;
  std::map<std::string, size_t> owned;  // owner address -> identifiers owned
  for (uint32_t id : ids) {
    auto origin = (*net)->RandomAliveAddress();
    CHECK(origin.ok());
    auto result = (*net)->RouteToOwner(*origin, id);
    CHECK(result.ok()) << result.status();
    hops.AddCount(static_cast<uint64_t>(result->hops));
    ++owned[result->owner.addr.ToString()];
  }
  Summary state;
  for (size_t entries : (*net)->RoutingStateSizes()) state.AddCount(entries);
  Summary load;
  for (const auto& [addr, count] : owned) load.AddCount(count);
  const double mean_per_owner =
      static_cast<double>(ids.size()) / static_cast<double>(n);
  return OverlayRow{hops.Mean(), hops.Percentile(99), state.Mean(),
                    load.Max() / mean_per_owner};
}

void AddRow(TablePrinter& table, size_t n, const std::string& label,
            const OverlayRow& row) {
  table.AddRow({TablePrinter::Fmt(static_cast<uint64_t>(n)), label,
                TablePrinter::Fmt(row.mean_hops, 2),
                TablePrinter::Fmt(row.p99_hops, 0),
                TablePrinter::Fmt(row.mean_state, 1),
                TablePrinter::Fmt(row.load_max_over_mean, 1)});
}

void Run(size_t lookups) {
  const std::vector<uint32_t> ids = IdentifierStream(lookups, 3);
  TablePrinter table({"peers", "overlay", "mean hops", "99th pct",
                      "state/node", "load max/mean"});
  for (size_t n : {64u, 256u, 1024u}) {
    overlay::OverlayParams params;
    params.kind = overlay::Kind::kChord;
    AddRow(table, n, "Chord", Measure(params, n, ids));
    for (int dims : {2, 4}) {
      params.kind = overlay::Kind::kCan;
      params.can_dims = dims;
      AddRow(table, n, "CAN d=" + std::to_string(dims), Measure(params, n, ids));
    }
    params.kind = overlay::Kind::kTapestry;
    AddRow(table, n, "Tapestry", Measure(params, n, ids));
  }
  table.Print(std::cout, "Substrate comparison: Chord vs CAN vs Tapestry on the paper's "
                         "identifier workload (" +
                             std::to_string(lookups) + " lookups)");
  std::cout << "(expected: Chord ~0.5*log2 N hops with O(log N) state; CAN\n"
               " ~(d/4)*N^(1/d) hops with O(d) state; Tapestry ~log16 N hops\n"
               " with compact prefix tables)\n";
}

}  // namespace
}  // namespace bench
}  // namespace p2prange

int main(int argc, char** argv) {
  const size_t n = p2prange::bench::CountFromArgs(argc, argv, 3000, 200);
  p2prange::bench::Run(n);
  return 0;
}
