// Per-peer write-ahead log of descriptor-store mutations.
//
// The paper's premise is that peers *durably* hold their horizontal
// partitions and descriptors across sessions (§2, §4). This log is the
// durable half of a peer's BucketStore: every insert / stale-erase /
// LRU-evict is appended as a CRC32C-framed record before the next
// operation proceeds, and recovery replays checkpoint + log to rebuild
// the exact pre-crash store.
//
// Frame format (common/crc32c.h; little-endian fixed-width header so a
// torn header is detectable by length alone):
//
//   [payload_len u32][masked crc32c(payload) u32][payload bytes]
//
// Replay walks frames front to back and classifies the first failure:
//  * an incomplete frame (header cut short, or payload_len pointing
//    past the end of the image) is a *torn tail* — the crash hit
//    mid-append; the validated prefix is the recovered log.
//  * a complete frame whose CRC mismatches (or whose payload does not
//    decode) is *corruption* — bit rot inside the log; the caller must
//    not trust anything past the last checkpoint.
//
// The "disk" is an in-memory byte image: the simulation's crash
// semantics wipe a peer's volatile stores but keep these images, and
// the fault injector tears / bit-flips them to model real crash and
// media faults.
#ifndef P2PRANGE_STORE_WAL_H_
#define P2PRANGE_STORE_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "chord/id.h"
#include "store/partition_key.h"
#include "wire/serde.h"

namespace p2prange {
namespace store {

/// \brief One logged mutation of a peer's descriptor store.
struct WalRecord {
  enum class Op : uint8_t {
    kInsert = 0,  ///< descriptor inserted into (or refreshed in) `bucket`
    kErase = 1,   ///< stale erase of (key, holder) across all buckets
    kEvict = 2,   ///< LRU eviction of `descriptor.key` from `bucket`
  };

  Op op = Op::kInsert;
  /// Log sequence number, 1-based over the peer's lifetime. Recovery
  /// skips records with seq <= the snapshot's wal_seq (a crash between
  /// snapshot write and log truncation leaves them in the image) and
  /// refuses to replay across a seq gap (the records bridging an older
  /// fallback snapshot to the log were truncated at a checkpoint).
  uint64_t seq = 0;
  chord::ChordId bucket = 0;  ///< meaningful for kInsert / kEvict
  PartitionDescriptor descriptor;

  bool operator==(const WalRecord&) const = default;
};

const char* WalOpName(WalRecord::Op op);

void EncodeWalRecord(const WalRecord& rec, wire::Encoder* enc);
Result<WalRecord> DecodeWalRecord(wire::Decoder* dec);

/// \brief CRC32C-framed append-only log over an in-memory disk image.
class WriteAheadLog {
 public:
  /// Appends one framed record; returns the frame size in bytes.
  size_t Append(const WalRecord& rec);

  /// Truncates the log (after a checkpoint made its contents redundant).
  void Clear() { image_.clear(); }

  const std::string& image() const { return image_; }

  /// The raw disk image, exposed so crash harnesses can tear the tail
  /// or flip bits exactly as a real crash or media fault would.
  std::string& mutable_image() { return image_; }

  /// \brief What replaying a (possibly damaged) image yielded.
  struct ReplayResult {
    std::vector<WalRecord> records;  ///< the validated prefix, in order
    bool torn_tail = false;   ///< incomplete frame at the end (truncated)
    bool corrupted = false;   ///< complete frame failed CRC / decode
    size_t valid_bytes = 0;   ///< image offset of the first invalid byte
  };

  /// Validates and decodes `image` front to back (see file comment for
  /// the torn-tail vs corruption rule).
  static ReplayResult Replay(std::string_view image);

 private:
  std::string image_;
};

}  // namespace store
}  // namespace p2prange

#endif  // P2PRANGE_STORE_WAL_H_
