// Binary wire format for everything peers ship to each other: values,
// rows, schemas, whole relations, and partition descriptors.
//
// Purpose-built, compact, and versioned-by-tag: varint-encoded lengths
// and zigzag integers, no external dependencies. The SimNetwork
// charges these encoded sizes, so "bytes from source" vs "bytes from
// caches" in the system metrics reflect real payloads rather than
// counts.
#ifndef P2PRANGE_WIRE_SERDE_H_
#define P2PRANGE_WIRE_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chord/id.h"
#include "common/result.h"
#include "rel/relation.h"
#include "rel/schema.h"
#include "store/partition_key.h"

namespace p2prange {
namespace wire {

/// \brief Appends primitives to a byte buffer.
class Encoder {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutVarint(uint64_t v);
  void PutZigZag(int64_t v) { PutVarint(ZigZag(v)); }
  void PutString(std::string_view s);

  /// Encoded size so far.
  size_t size() const { return buf_.size(); }
  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }

  static uint64_t ZigZag(int64_t v) {
    return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
  }

 private:
  std::string buf_;
};

/// \brief Reads primitives back; every accessor validates bounds.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  Result<uint8_t> U8();
  Result<uint64_t> Varint();
  Result<int64_t> ZigZag();
  Result<std::string> String();

  /// \brief Reads a varint element count and validates it before any
  /// allocation: the count must not exceed `max_items`, and the buffer
  /// must hold at least `min_bytes_per_item` bytes per element. The
  /// one sanctioned way to read a repeated-field length from untrusted
  /// bytes — a hostile prefix can then neither force a huge reserve()
  /// nor spin a decode loop past the payload.
  Result<size_t> GuardedCount(size_t min_bytes_per_item, size_t max_items);

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

  static int64_t UnZigZag(uint64_t v) {
    return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// --- Domain types -----------------------------------------------------

void EncodeValue(const Value& v, Encoder* enc);
Result<Value> DecodeValue(Decoder* dec);

void EncodeSchema(const Schema& s, Encoder* enc);
Result<Schema> DecodeSchema(Decoder* dec);

void EncodeRelation(const Relation& r, Encoder* enc);
Result<Relation> DecodeRelation(Decoder* dec);

void EncodePartitionKey(const PartitionKey& k, Encoder* enc);
Result<PartitionKey> DecodePartitionKey(Decoder* dec);

void EncodeNetAddress(const NetAddress& a, Encoder* enc);
Result<NetAddress> DecodeNetAddress(Decoder* dec);

/// \brief Descriptor records: what the durable store logs and what
/// recovery pulls from replicas (key + holder).
void EncodePartitionDescriptor(const PartitionDescriptor& d, Encoder* enc);
Result<PartitionDescriptor> DecodePartitionDescriptor(Decoder* dec);

/// \brief A descriptor store's (bucket, descriptor) entries, oldest
/// first: a checkpoint snapshot's payload and a handoff batch.
using BucketEntries =
    std::vector<std::pair<chord::ChordId, PartitionDescriptor>>;

/// Appends `varint count, count x (varint bucket, PartitionDescriptor)`.
void EncodeBucketEntries(const BucketEntries& entries, Encoder* enc);
/// Reads an entry list that ends its payload. The count is checked
/// before allocation (at most `max_entries`, and at least 5 bytes left
/// per entry), each bucket id must fit the 32-bit ring, and trailing
/// bytes are rejected.
Result<BucketEntries> DecodeBucketEntries(Decoder* dec, size_t max_entries);

/// \brief The wire size of a relation payload (encode-and-measure).
size_t RelationWireSize(const Relation& r);

}  // namespace wire
}  // namespace p2prange

#endif  // P2PRANGE_WIRE_SERDE_H_
