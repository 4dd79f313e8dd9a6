// Shared CLI parsing for the figure and ablation benches.
//
// Every bench accepts an optional positional scale argument (query
// count, duration, ...) plus `--smoke`, which selects a tiny
// configuration that exercises the full harness in well under a
// second. tools/check.sh runs each binary with --smoke so that
// signature-affecting regressions in the figure harnesses are caught
// before anyone pays for a full regeneration run.
//
// The scale parses strictly (tools/flags.h): a count is a whole number
// >= 1, a peer count a whole number >= 2 and a duration a finite number
// > 0. Any other argument exits 2 with the usage line instead of
// running some other scale.
#ifndef P2PRANGE_BENCH_BENCH_ARGS_H_
#define P2PRANGE_BENCH_BENCH_ARGS_H_

#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "tools/flags.h"

namespace p2prange {
namespace bench {

/// True iff `--smoke` is among the arguments. A bench whose smoke run
/// differs in more than its scale asks this, never the scale: a short
/// real run is not a smoke run.
inline bool SmokeFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") return true;
  }
  return false;
}

/// Scale from argv: `--smoke` anywhere wins and selects `smoke`;
/// otherwise one positional argument that parses as a T accepted by
/// `valid` overrides `full`. `what` names the argument in the usage
/// line.
template <typename T, typename Valid>
T ScaleFromArgs(int argc, char** argv, T full, T smoke, const char* what,
                Valid valid) {
  bool overridden = false;
  T scale = full;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") continue;
    T value{};
    if (overridden || !tools::ParseNumber(arg, &value) || !valid(value)) {
      std::cerr << "malformed argument: " << arg << "\nusage: " << argv[0]
                << " [--smoke] [" << what << "]\n";
      std::exit(2);
    }
    scale = value;
    overridden = true;
  }
  return SmokeFromArgs(argc, argv) ? smoke : scale;
}

/// A count scale (queries, peers, ...): a whole number >= 1.
inline size_t CountFromArgs(int argc, char** argv, size_t full, size_t smoke) {
  return ScaleFromArgs(argc, argv, full, smoke, "COUNT",
                       [](size_t v) { return v >= 1; });
}

/// A peer count: a whole number >= 2, the fewest peers a scenario
/// engine cell runs with.
inline size_t PeersFromArgs(int argc, char** argv, size_t full, size_t smoke) {
  return ScaleFromArgs(argc, argv, full, smoke, "PEERS",
                       [](size_t v) { return v >= 2; });
}

/// A duration scale in seconds: a finite number > 0.
inline double DurationFromArgs(int argc, char** argv, double full,
                               double smoke) {
  return ScaleFromArgs(argc, argv, full, smoke, "SECONDS",
                       [](double v) { return v > 0.0; });
}

}  // namespace bench
}  // namespace p2prange

#endif  // P2PRANGE_BENCH_BENCH_ARGS_H_
