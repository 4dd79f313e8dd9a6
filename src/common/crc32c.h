// CRC-32C (Castagnoli, polynomial 0x1EDC6F41) and the one frame layout
// built on it. Every durable record (store/wal, store/snapshot) and
// every RPC on the wire (rpc/frame) is a frame:
//
//   [payload_len u32 LE][masked crc32c(payload) u32 LE][payload bytes]
//
// The writer and header reader live here; each reader keeps its own
// policy for what a short or damaged frame means. Chosen over plain
// CRC-32 for its better burst-error detection; software table-driven
// implementation, no hardware dependencies.
#ifndef P2PRANGE_COMMON_CRC32C_H_
#define P2PRANGE_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace p2prange {

/// \brief Extends a running CRC-32C with `n` more bytes. Start from 0.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// \brief CRC-32C of a whole buffer.
inline uint32_t Crc32c(std::string_view data) {
  return Crc32cExtend(0, data.data(), data.size());
}

/// \brief Masked form for storage, as used by LevelDB/RocksDB: storing
/// the CRC of data that itself contains CRCs is vulnerable to
/// accidental fixed points, so frames store Mask(crc) instead.
inline uint32_t Crc32cMask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

inline uint32_t Crc32cUnmask(uint32_t masked) {
  const uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

/// Fixed bytes preceding every frame's payload.
inline constexpr size_t kCrc32cFrameHeaderBytes = 8;

/// \brief Appends one frame holding `payload` to `out`; returns the
/// bytes appended. The caller bounds the payload size.
size_t AppendCrc32cFrame(std::string_view payload, std::string* out);

/// \brief A decoded frame header.
struct Crc32cFrameHeader {
  uint32_t payload_len = 0;
  uint32_t crc = 0;  ///< unmasked CRC-32C the payload must carry

  bool Matches(std::string_view payload) const {
    return Crc32c(payload) == crc;
  }
};

/// \brief Decodes the header at `p`, which must hold at least
/// kCrc32cFrameHeaderBytes bytes.
Crc32cFrameHeader ReadCrc32cFrameHeader(const char* p);

}  // namespace p2prange

#endif  // P2PRANGE_COMMON_CRC32C_H_
