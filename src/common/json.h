// The one float format of the JSON metrics exports. ScenarioReport is
// the only export with floats today; the daemon's sections (RpcStats,
// membership, re-replication, executor) are all integers.
#ifndef P2PRANGE_COMMON_JSON_H_
#define P2PRANGE_COMMON_JSON_H_

#include <string>

namespace p2prange {

/// \brief `v` printed as "%.6g".
std::string JsonDouble(double v);

}  // namespace p2prange

#endif  // P2PRANGE_COMMON_JSON_H_
