#include "common/json.h"

#include <cstdio>

namespace p2prange {

std::string JsonDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace p2prange
