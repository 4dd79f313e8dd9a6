#include "store/snapshot.h"

#include "common/crc32c.h"
#include "wire/serde.h"

namespace p2prange {
namespace store {

void SnapshotStore::Write(const SnapshotData& snap) {
  wire::Encoder enc;
  enc.PutVarint(snap.wal_seq);
  enc.PutVarint(snap.entries.size());
  for (const auto& [bucket, descriptor] : snap.entries) {
    enc.PutVarint(bucket);
    wire::EncodePartitionDescriptor(descriptor, &enc);
  }
  std::string image;
  AppendCrc32cFrame(enc.Take(), &image);

  // Overwrite the slot that does NOT hold the newest valid snapshot.
  // Chosen by inspecting the slots rather than a volatile cursor, so
  // the decision survives crash/recovery cycles.
  size_t target = 0;
  uint64_t best_seq = 0;
  bool any = false;
  for (size_t i = 0; i < kNumSlots; ++i) {
    auto parsed = ParseSlot(i);
    if (parsed.ok() && (!any || parsed->wal_seq >= best_seq)) {
      any = true;
      best_seq = parsed->wal_seq;
      target = 1 - i;
    }
  }
  slots_[any ? target : 0] = std::move(image);
}

Result<SnapshotData> SnapshotStore::ParseSlot(size_t i) const {
  const std::string& image = slots_[i];
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
  SnapshotData out;
  ASSIGN_OR_RETURN(out.wal_seq, dec.Varint());
  ASSIGN_OR_RETURN(const uint64_t n, dec.Varint());
  // Each entry costs >= 5 encoded bytes (bucket + key + holder).
  if (n > dec.remaining() / 5) {
    return Status::InvalidArgument("snapshot entry count exceeds payload");
  }
  out.entries.reserve(n);
  for (uint64_t e = 0; e < n; ++e) {
    ASSIGN_OR_RETURN(const uint64_t bucket, dec.Varint());
    if (bucket > 0xFFFFFFFFull) {
      return Status::InvalidArgument("snapshot bucket id exceeds ring width");
    }
    ASSIGN_OR_RETURN(PartitionDescriptor d, wire::DecodePartitionDescriptor(&dec));
    out.entries.emplace_back(static_cast<chord::ChordId>(bucket), std::move(d));
  }
  if (!dec.AtEnd()) {
    return Status::InvalidArgument("snapshot payload has trailing bytes");
  }
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
