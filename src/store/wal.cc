#include "store/wal.h"

#include "common/crc32c.h"

namespace p2prange {
namespace store {

const char* WalOpName(WalRecord::Op op) {
  switch (op) {
    case WalRecord::Op::kInsert:
      return "insert";
    case WalRecord::Op::kErase:
      return "erase";
    case WalRecord::Op::kEvict:
      return "evict";
  }
  return "unknown";
}

void EncodeWalRecord(const WalRecord& rec, wire::Encoder* enc) {
  enc->PutU8(static_cast<uint8_t>(rec.op));
  enc->PutVarint(rec.seq);
  enc->PutVarint(rec.bucket);
  wire::EncodePartitionDescriptor(rec.descriptor, enc);
}

Result<WalRecord> DecodeWalRecord(wire::Decoder* dec) {
  WalRecord rec;
  ASSIGN_OR_RETURN(const uint8_t op, dec->U8());
  if (op > static_cast<uint8_t>(WalRecord::Op::kEvict)) {
    return Status::InvalidArgument("unknown wal op " + std::to_string(op));
  }
  rec.op = static_cast<WalRecord::Op>(op);
  ASSIGN_OR_RETURN(rec.seq, dec->Varint());
  ASSIGN_OR_RETURN(const uint64_t bucket, dec->Varint());
  if (bucket > 0xFFFFFFFFull) {
    return Status::InvalidArgument("wal bucket id exceeds the ring width");
  }
  rec.bucket = static_cast<chord::ChordId>(bucket);
  ASSIGN_OR_RETURN(rec.descriptor, wire::DecodePartitionDescriptor(dec));
  return rec;
}

size_t WriteAheadLog::Append(const WalRecord& rec) {
  wire::Encoder enc;
  EncodeWalRecord(rec, &enc);
  return AppendCrc32cFrame(enc.Take(), &image_);
}

WriteAheadLog::ReplayResult WriteAheadLog::Replay(std::string_view image) {
  ReplayResult out;
  size_t pos = 0;
  while (pos < image.size()) {
    if (image.size() - pos < kCrc32cFrameHeaderBytes) {
      out.torn_tail = true;  // header cut short mid-append
      break;
    }
    const Crc32cFrameHeader header = ReadCrc32cFrameHeader(image.data() + pos);
    const uint32_t len = header.payload_len;
    if (len > image.size() - pos - kCrc32cFrameHeaderBytes) {
      // Payload extends past the end of the image: either the append
      // was torn mid-payload, or the length field itself is damaged.
      // Both are indistinguishable from a torn tail at this point and
      // are treated as one — nothing past `pos` is trusted.
      out.torn_tail = true;
      break;
    }
    const std::string_view payload =
        image.substr(pos + kCrc32cFrameHeaderBytes, len);
    if (!header.Matches(payload)) {
      out.corrupted = true;  // complete frame, damaged bytes: bit rot
      break;
    }
    wire::Decoder dec(payload);
    auto rec = DecodeWalRecord(&dec);
    if (!rec.ok() || !dec.AtEnd()) {
      // CRC-consistent but undecodable: written by a damaged encoder
      // or a CRC collision. Treated as corruption, never replayed.
      out.corrupted = true;
      break;
    }
    out.records.push_back(std::move(*rec));
    pos += kCrc32cFrameHeaderBytes + len;
    out.valid_bytes = pos;
  }
  return out;
}

}  // namespace store
}  // namespace p2prange
