// Interactive SQL shell over a simulated P2P data-sharing system.
//
//   $ ./build/examples/sql_shell
//   p2p> SELECT * FROM Patient WHERE age > 30 AND age < 50
//   ... rows, and where each leaf's data came from ...
//   p2p> \metrics
//   p2p> \peers
//   p2p> \quit
//
// Also accepts a script on stdin:
//   $ echo "SELECT ... " | ./build/examples/sql_shell
#include <iostream>
#include <sstream>
#include <string>

#include "core/system.h"
#include "rel/csv.h"
#include "rel/generator.h"

using namespace p2prange;

namespace {

void PrintHelp() {
  std::cout <<
      "commands:\n"
      "  <SQL>        run a SELECT through the P2P system\n"
      "  \\metrics     show cumulative system metrics\n"
      "  \\peers       show overlay size and per-peer cache load\n"
      "  \\schema      list relations in the global schema\n"
      "  \\csv <SQL>   run a query and print the result as CSV\n"
      "  \\help        this text\n"
      "  \\quit        exit\n";
}

void RunQuery(RangeCacheSystem& system, const std::string& sql, bool as_csv) {
  auto outcome = system.ExecuteQuery(sql);
  if (!outcome.ok()) {
    std::cout << "error: " << outcome.status() << "\n";
    return;
  }
  if (as_csv) {
    if (Status s = WriteCsv(outcome->result, &std::cout); !s.ok()) {
      std::cout << "error: " << s << "\n";
    }
  } else {
    std::cout << outcome->result.ToString(/*max_rows=*/20);
  }
  if (outcome->from_result_cache) {
    std::cout << "(whole result served from the query-result cache)\n";
  }
  for (const LeafOutcome& leaf : outcome->leaves) {
    std::cout << "  leaf " << leaf.table << ": "
              << (leaf.used_cache ? "P2P cache" : "source");
    if (leaf.lookup && leaf.lookup->match) {
      std::cout << " (matched " << leaf.lookup->match->matched.ToString()
                << ", recall " << leaf.lookup->match->recall << ")";
    }
    std::cout << "\n";
  }
  std::cout << "  " << outcome->total_hops << " overlay hops, "
            << outcome->total_latency_ms << " ms simulated\n";
}

}  // namespace

int main() {
  Catalog catalog = MakeMedicalCatalog();
  MedicalDataSpec spec;
  spec.num_patients = 2000;
  spec.num_prescriptions = 3000;
  spec.num_diagnoses = 3000;
  if (Status s = PopulateMedicalData(spec, &catalog); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }

  SystemConfig config;
  config.num_peers = 100;
  config.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, /*seed=*/17);
  config.criterion = MatchCriterion::kContainment;
  config.cache_query_results = true;
  config.multi_attribute = true;
  config.seed = 17;
  auto system = RangeCacheSystem::Make(config, std::move(catalog));
  if (!system.ok()) {
    std::cerr << system.status() << "\n";
    return 1;
  }

  std::cout << "p2prange shell — " << config.num_peers
            << " peers, medical schema (Patient, Diagnosis, Physician, "
               "Prescription).\nType \\help for commands.\n";

  std::string line;
  while (true) {
    std::cout << "p2p> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    // Trim.
    const size_t begin = line.find_first_not_of(" \t");
    if (begin == std::string::npos) continue;
    const size_t end = line.find_last_not_of(" \t");
    line = line.substr(begin, end - begin + 1);

    if (line == "\\quit" || line == "\\q") break;
    if (line == "\\help") {
      PrintHelp();
    } else if (line == "\\metrics") {
      std::cout << system->metrics().ToString() << "\n";
    } else if (line == "\\peers") {
      const auto counts = system->DescriptorCountsPerPeer();
      size_t total = 0, loaded = 0;
      for (size_t c : counts) {
        total += c;
        loaded += (c > 0);
      }
      std::cout << system->overlay().num_alive() << " peers alive, " << total
                << " cached descriptors across " << loaded << " peers\n";
    } else if (line == "\\schema") {
      for (const std::string& rel : system->catalog().RelationNames()) {
        auto schema = system->catalog().GetSchema(rel);
        std::cout << "  " << rel << (schema.ok() ? schema->ToString() : "") << "\n";
      }
    } else if (line.rfind("\\csv ", 0) == 0) {
      RunQuery(*system, line.substr(5), /*as_csv=*/true);
    } else if (line[0] == '\\') {
      std::cout << "unknown command; \\help lists commands\n";
    } else {
      RunQuery(*system, line, /*as_csv=*/false);
    }
  }
  std::cout << "\n";
  return 0;
}
