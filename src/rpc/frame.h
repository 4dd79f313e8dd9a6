// Length-prefixed CRC32C frames: the unit of transmission on a TCP
// connection.
//
// The durable store's frame layout (common/crc32c.h), written and read
// by the same codec on the wire so one checksum discipline covers disk
// and network:
//
//   [payload_len u32 LE][masked crc32c(payload) u32 LE][payload bytes]
//
// The policy is wire-only. The parser is incremental — TCP hands over
// arbitrary byte chunks — and hostile-input safe: a declared length
// beyond kMaxFramePayload is rejected *before* any allocation, a short
// buffer simply waits for more bytes, and a CRC mismatch poisons the
// parser (the connection must be dropped; nothing after a corrupt
// frame can be trusted).
#ifndef P2PRANGE_RPC_FRAME_H_
#define P2PRANGE_RPC_FRAME_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"

namespace p2prange {
namespace rpc {

/// Upper bound on one frame's payload (16 MiB). Caps what a hostile
/// or corrupt length prefix can make the receiver allocate.
inline constexpr size_t kMaxFramePayload = 16u << 20;

/// \brief Appends one framed payload to `out`. `payload` must not
/// exceed kMaxFramePayload (CHECKed). Returns bytes appended.
size_t AppendFrame(std::string_view payload, std::string* out);

/// \brief Incremental frame decoder over a byte stream.
class FrameParser {
 public:
  /// Appends raw bytes received from the stream.
  void Feed(std::string_view bytes);

  /// \brief Extracts the next complete frame's payload.
  ///  - a validated payload when a whole frame is buffered,
  ///  - nullopt when more bytes are needed,
  ///  - an error Status on an oversized length prefix or CRC mismatch;
  ///    the parser stays poisoned and every later call fails too.
  Result<std::optional<std::string>> Next();

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered() const { return buf_.size() - pos_; }

  bool poisoned() const { return poisoned_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
  bool poisoned_ = false;
};

}  // namespace rpc
}  // namespace p2prange

#endif  // P2PRANGE_RPC_FRAME_H_
