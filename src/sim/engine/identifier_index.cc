#include "sim/engine/identifier_index.h"

namespace p2prange {
namespace sim {

IdentifierIndex::IdentifierIndex(size_t max_ids) : max_ids_(max_ids) {
  // A slot keeps row + 1 in its upper 32 bits.
  CHECK_LT(max_ids, size_t{1} << 32) << "rows are 32-bit";
  // At least two slots: an empty index still ends every probe, and
  // Home's shift stays below 64.
  int log2 = 1;
  while ((size_t{1} << log2) * 3 < max_ids * 4) ++log2;
  slots_.assign(size_t{1} << log2, 0);
  mask_ = slots_.size() - 1;
  shift_ = 64 - log2;
}

}  // namespace sim
}  // namespace p2prange
