#include "rpc/frame.h"

#include "common/crc32c.h"
#include "common/logging.h"

namespace p2prange {
namespace rpc {

size_t AppendFrame(std::string_view payload, std::string* out) {
  CHECK(payload.size() <= kMaxFramePayload)  // p2plint: allow(P2P004): encode-side cap on a locally produced payload, not wire input
      << "frame payload of " << payload.size() << " bytes exceeds the "
      << kMaxFramePayload << "-byte cap";
  return AppendCrc32cFrame(payload, out);
}

void FrameParser::Feed(std::string_view bytes) {
  if (poisoned_) return;  // the connection is already condemned
  // Compact lazily: only when the consumed prefix dominates the buffer,
  // so steady-state parsing is append + in-place scan.
  if (pos_ > 0 && pos_ >= buf_.size() / 2 && pos_ >= 4096) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes.data(), bytes.size());
}

Result<std::optional<std::string>> FrameParser::Next() {
  if (poisoned_) {
    return Status::IOError("frame stream is poisoned by an earlier error");
  }
  if (buf_.size() - pos_ < kCrc32cFrameHeaderBytes) {
    return std::optional<std::string>(std::nullopt);
  }
  const Crc32cFrameHeader header = ReadCrc32cFrameHeader(buf_.data() + pos_);
  const uint32_t payload_len = header.payload_len;
  if (payload_len > kMaxFramePayload) {
    // Reject on the declared length alone — never allocate for it.
    poisoned_ = true;
    return Status::IOError("frame declares " + std::to_string(payload_len) +
                           " payload bytes, above the " +
                           std::to_string(kMaxFramePayload) + " cap");
  }
  if (buf_.size() - pos_ - kCrc32cFrameHeaderBytes < payload_len) {
    return std::optional<std::string>(std::nullopt);
  }
  const std::string_view payload(buf_.data() + pos_ + kCrc32cFrameHeaderBytes,
                                 payload_len);
  if (!header.Matches(payload)) {
    poisoned_ = true;
    return Status::IOError("frame payload failed its CRC32C check");
  }
  pos_ += kCrc32cFrameHeaderBytes + payload_len;
  return std::optional<std::string>(std::string(payload));
}

}  // namespace rpc
}  // namespace p2prange
