// The one number format of every JSON metrics export (SystemMetrics,
// NetworkStats, ScenarioReport), so their floats always render alike.
#ifndef P2PRANGE_COMMON_JSON_H_
#define P2PRANGE_COMMON_JSON_H_

#include <string>

namespace p2prange {

/// \brief `v` printed as "%.6g".
std::string JsonDouble(double v);

}  // namespace p2prange

#endif  // P2PRANGE_COMMON_JSON_H_
