#include "common/crc32c.h"

namespace p2prange {

namespace {
struct Crc32cTable {
  uint32_t t[256];
  Crc32cTable() {
    // Reflected polynomial of CRC-32C.
    constexpr uint32_t kPoly = 0x82F63B78u;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
  }
};
}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  static const Crc32cTable table;
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = table.t[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

size_t AppendCrc32cFrame(std::string_view payload, std::string* out) {
  const uint32_t header[2] = {static_cast<uint32_t>(payload.size()),
                              Crc32cMask(Crc32c(payload))};
  for (const uint32_t word : header) {
    for (int shift = 0; shift < 32; shift += 8) {
      out->push_back(static_cast<char>((word >> shift) & 0xFF));
    }
  }
  out->append(payload.data(), payload.size());
  return kCrc32cFrameHeaderBytes + payload.size();
}

Crc32cFrameHeader ReadCrc32cFrameHeader(const char* p) {
  uint32_t words[2] = {0, 0};
  for (size_t i = 0; i < kCrc32cFrameHeaderBytes; ++i) {
    words[i / 4] |= static_cast<uint32_t>(static_cast<unsigned char>(p[i]))
                    << (8 * (i % 4));
  }
  return Crc32cFrameHeader{words[0], Crc32cUnmask(words[1])};
}

}  // namespace p2prange
