// Churn: peers joining and leaving (including abrupt failures) while
// range queries keep flowing. Shows Chord's stabilization protocol
// repairing the ring and the cache re-warming itself after departures
// take descriptors away.
//
//   $ ./build/examples/churn_demo
#include <iostream>

#include "core/system.h"
#include "rel/generator.h"
#include "workload/range_workload.h"

using namespace p2prange;

int main() {
  SystemConfig config;
  config.num_peers = 60;
  config.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, /*seed=*/5);
  config.seed = 5;
  auto system = RangeCacheSystem::Make(
      config, MakeNumbersCatalog(1000, 0, 1000, /*seed=*/5));
  if (!system.ok()) {
    std::cerr << system.status() << "\n";
    return 1;
  }

  UniformRangeGenerator gen(0, 1000, 55);
  Rng churn(56);

  for (int round = 1; round <= 6; ++round) {
    // Twenty lookups per round.
    size_t hits = 0;
    int hops = 0;
    for (int i = 0; i < 20; ++i) {
      auto outcome =
          system->LookupRange(PartitionKey{"Numbers", "key", gen.Next()});
      if (!outcome.ok()) {
        std::cerr << "lookup failed: " << outcome.status() << "\n";
        return 1;
      }
      hits += outcome->match.has_value();
      hops += outcome->hops;
    }
    std::cout << "round " << round << ": " << system->overlay().num_alive()
              << " peers alive, " << hits << "/20 lookups matched, "
              << hops / 20 << " hops/lookup avg\n";

    // Churn: two peers leave (one gracefully, one by crashing), three
    // join.
    const auto nodes = system->overlay().AlivePeersOrdered();
    int removed = 0;
    for (size_t attempt = 0; attempt < nodes.size() && removed < 2; ++attempt) {
      const auto& addr = nodes[churn.NextBounded(nodes.size())].addr;
      if (addr == system->source_address()) continue;
      if (system->RemovePeer(addr, /*graceful=*/removed == 0).ok()) ++removed;
    }
    for (int j = 0; j < 3; ++j) {
      auto added = system->AddPeer();
      if (!added.ok()) {
        std::cerr << "join failed: " << added.status() << "\n";
        return 1;
      }
    }
    system->overlay().Stabilize(2);
    system->overlay().RepairRouting();
  }

  std::cout << "\nfinal ring size: " << system->overlay().num_alive()
            << " peers\nmetrics: " << system->metrics().ToString() << "\n";
  return 0;
}
