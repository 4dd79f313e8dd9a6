// The three workloads. Each fills the Report with every metric it
// measures: the end-to-end set always, the per-layer set when
// RunOptions::trace is on. main.cc reports a per-layer metric a
// workload leaves unset as 0 (that layer is bypassed).
#ifndef P2PRANGE_PERFBENCH_WORKLOADS_H_
#define P2PRANGE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "hash/range.h"
#include "report.h"

namespace p2prange {
namespace perfbench {

/// engine_uniform / engine_zipf_wide: sim::ScenarioEngine at 10^5
/// Chord peers, Make + Run of one scenario per batch, each batch seeded
/// from the run seed.
void RunEngineWorkload(const RunOptions& options, Report* report,
                       Tracer* tracer);

/// live_mixed: a forked 3-daemon p2prange_node ring driven by one
/// RingClient in an open loop.
void RunLiveWorkload(const RunOptions& options, Report* report,
                     Tracer* tracer);

/// Median microseconds per LshScheme::IdentifiersInto call over
/// `ranges`, for the paper's scheme (approximate min-wise, k=20, l=5)
/// seeded with `lsh_seed`.
double TimeIdentifiersUs(const std::vector<Range>& ranges, uint64_t lsh_seed,
                         Tracer* tracer);

}  // namespace perfbench
}  // namespace p2prange

#endif  // P2PRANGE_PERFBENCH_WORKLOADS_H_
