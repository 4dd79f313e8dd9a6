#include "hash/bit_permutation.h"

#include <bit>

#include "common/bit_utils.h"
#include "common/logging.h"

namespace p2prange {

BitShuffleKeys BitShuffleKeys::Sample(int width, Rng& rng) {
  CHECK(bits::IsPowerOfTwo(static_cast<uint64_t>(width)) && width >= 2 && width <= 64)
      << "width must be a power of two in [2, 64], got " << width;
  BitShuffleKeys keys;
  keys.width = width;
  for (int block = width; block >= 2; block /= 2) {
    keys.level_keys.push_back(rng.NextBalancedMask(block, block / 2));
  }
  return keys;
}

namespace {

// Where does the bit at in-block offset `o` land after one sheep-and-
// goats round with `key` over a block of size `block`? Selected bits go
// to the upper half in order; the rest to the lower half in order.
int RoundOffset(uint64_t key, int block, int o) {
  const uint64_t below = bits::LowMask(o);
  if ((key >> o) & 1) {
    return block / 2 + bits::PopCount(key & below);
  }
  const uint64_t clear = ~key & bits::LowMask(block);
  return bits::PopCount(clear & below);
}

}  // namespace

BitPermutation::BitPermutation(const BitShuffleKeys& keys, int rounds)
    : width_(keys.width), rounds_(rounds), num_bytes_((keys.width + 7) / 8), keys_(keys) {
  CHECK_GE(rounds_, 1);
  CHECK_LE(rounds_, keys_.num_levels());

  // Compose the per-round position moves into one map.
  for (int j = 0; j < 64; ++j) position_map_[j] = j;
  for (int j = 0; j < width_; ++j) {
    int pos = j;
    for (int r = 0; r < rounds_; ++r) {
      const int block = width_ >> r;
      const int base = (pos / block) * block;
      pos = base + RoundOffset(keys_.level_keys[r], block, pos - base);
    }
    position_map_[j] = pos;
  }
  for (int j = 0; j < 64; ++j) inverse_map_[j] = j;
  for (int j = 0; j < width_; ++j) inverse_map_[position_map_[j]] = j;

  // Compile per-byte scatter tables: v's image is the image of v with
  // its lowest set bit cleared, OR that bit's image (none past width).
  table_.assign(num_bytes_, {});
  for (int i = 0; i < num_bytes_; ++i) {
    for (unsigned v = 1; v < 256; ++v) {
      const int j = 8 * i + std::countr_zero(v);
      const uint32_t low = j < width_ ? 1u << position_map_[j] : 0u;
      table_[i][v] = table_[i][v & (v - 1)] | low;
    }
  }
}

uint32_t BitPermutation::ApplyNaive(uint32_t x) const {
  uint64_t v = x;
  for (int r = 0; r < rounds_; ++r) {
    const int block = width_ >> r;
    const uint64_t key = keys_.level_keys[r];
    const uint64_t block_mask = bits::LowMask(block);
    uint64_t out = 0;
    for (int base = 0; base < width_; base += block) {
      const uint64_t blk = (v >> base) & block_mask;
      const uint64_t upper = bits::ExtractBits(blk, key);
      const uint64_t lower = bits::ExtractBits(blk, ~key & block_mask);
      out |= ((upper << (block / 2)) | lower) << base;
    }
    v = out;
  }
  return static_cast<uint32_t>(v);
}

}  // namespace p2prange
