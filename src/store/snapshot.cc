#include "store/snapshot.h"

#include <limits>

#include "common/crc32c.h"
#include "wire/serde.h"

namespace p2prange {
namespace store {

namespace {

/// What Write needs of a slot, and where ParseSlot starts decoding.
struct SlotHead {
  uint64_t wal_seq = 0;
  std::string_view rest;  ///< the payload after wal_seq
};

/// Checks a slot image's frame length and CRC and reads its leading
/// wal_seq, without decoding the descriptors after it.
Result<SlotHead> ReadSlotHead(const std::string& image) {
  if (image.empty()) return Status::NotFound("empty snapshot slot");
  if (image.size() < kCrc32cFrameHeaderBytes) {
    return Status::InvalidArgument("snapshot slot truncated in the header");
  }
  const Crc32cFrameHeader header = ReadCrc32cFrameHeader(image.data());
  if (header.payload_len != image.size() - kCrc32cFrameHeaderBytes) {
    return Status::InvalidArgument("snapshot slot length mismatch");
  }
  const std::string_view payload =
      std::string_view(image).substr(kCrc32cFrameHeaderBytes);
  if (!header.Matches(payload)) {
    return Status::InvalidArgument("snapshot slot failed its CRC");
  }
  wire::Decoder dec(payload);
  SlotHead head;
  ASSIGN_OR_RETURN(head.wal_seq, dec.Varint());
  head.rest = payload.substr(payload.size() - dec.remaining());
  return head;
}

}  // namespace

size_t SnapshotStore::Write(const SnapshotData& snap) {
  wire::Encoder enc;
  enc.PutVarint(snap.wal_seq);
  wire::EncodeBucketEntries(snap.entries, &enc);
  std::string image;
  AppendCrc32cFrame(enc.Take(), &image);

  // Overwrite the slot that does NOT hold the newest valid snapshot.
  // Chosen by inspecting the slots rather than a volatile cursor, so
  // the decision survives crash/recovery cycles. A slot whose frame
  // and CRC check out was written whole by this function, so its
  // wal_seq alone ranks it; the descriptors need no decoding.
  size_t target = 0;
  uint64_t best_seq = 0;
  bool any = false;
  for (size_t i = 0; i < kNumSlots; ++i) {
    auto head = ReadSlotHead(slots_[i]);
    if (head.ok() && (!any || head->wal_seq >= best_seq)) {
      any = true;
      best_seq = head->wal_seq;
      target = 1 - i;
    }
  }
  ++writes_[target];
  slots_[target] = std::move(image);
  return slots_[target].size();
}

Result<SnapshotData> SnapshotStore::ParseSlot(size_t i) const {
  ASSIGN_OR_RETURN(const SlotHead head, ReadSlotHead(slots_[i]));
  wire::Decoder dec(head.rest);
  SnapshotData out;
  out.wal_seq = head.wal_seq;
  ASSIGN_OR_RETURN(out.entries, wire::DecodeBucketEntries(
                                    &dec, std::numeric_limits<size_t>::max()));
  return out;
}

SnapshotStore::LoadResult SnapshotStore::LoadLatestValid() const {
  LoadResult out;
  for (size_t i = 0; i < kNumSlots; ++i) {
    auto parsed = ParseSlot(i);
    if (parsed.ok()) {
      if (!out.found || parsed->wal_seq > out.data.wal_seq) {
        out.found = true;
        out.data = std::move(*parsed);
      }
    } else if (!parsed.status().IsNotFound()) {
      out.slot_corrupt = true;  // non-empty slot failed validation
    }
  }
  return out;
}

}  // namespace store
}  // namespace p2prange
