#include "wire/serde.h"

#include <limits>

namespace p2prange {
namespace wire {

void Encoder::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  buf_.push_back(static_cast<char>(v));
}

void Encoder::PutString(std::string_view s) {
  PutVarint(s.size());
  buf_.append(s.data(), s.size());
}

Result<uint8_t> Decoder::U8() {
  if (pos_ >= data_.size()) {
    return Status::OutOfRange("decoder: truncated buffer (u8)");
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint64_t> Decoder::Varint() {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos_ >= data_.size()) {
      return Status::OutOfRange("decoder: truncated varint");
    }
    if (shift >= 64) {
      return Status::InvalidArgument("decoder: varint too long");
    }
    const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

Result<int64_t> Decoder::ZigZag() {
  ASSIGN_OR_RETURN(const uint64_t raw, Varint());
  return UnZigZag(raw);
}

Result<size_t> Decoder::GuardedCount(size_t min_bytes_per_item,
                                     size_t max_items) {
  ASSIGN_OR_RETURN(const uint64_t n, Varint());
  if (n > max_items) {
    return Status::InvalidArgument("element count " + std::to_string(n) +
                                   " exceeds cap " +
                                   std::to_string(max_items));
  }
  const size_t per_item = min_bytes_per_item == 0 ? 1 : min_bytes_per_item;
  if (n > remaining() / per_item) {
    return Status::InvalidArgument("element count " + std::to_string(n) +
                                   " exceeds remaining buffer");
  }
  return static_cast<size_t>(n);
}

Result<std::string> Decoder::String() {
  ASSIGN_OR_RETURN(const uint64_t len, Varint());
  if (len > remaining()) {
    return Status::OutOfRange("decoder: truncated string of length " +
                              std::to_string(len));
  }
  std::string out(data_.substr(pos_, len));
  pos_ += len;
  return out;
}

namespace {
// Wire tags for ValueType; never renumber.
constexpr uint8_t kTagInt = 0;
constexpr uint8_t kTagDouble = 1;
constexpr uint8_t kTagString = 2;
constexpr uint8_t kTagDate = 3;
}  // namespace

void EncodeValue(const Value& v, Encoder* enc) {
  switch (v.type()) {
    case ValueType::kInt64:
      enc->PutU8(kTagInt);
      enc->PutZigZag(v.AsInt());
      return;
    case ValueType::kDouble: {
      enc->PutU8(kTagDouble);
      uint64_t bits;
      const double d = v.AsDouble();
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      enc->PutVarint(bits);
      return;
    }
    case ValueType::kString:
      enc->PutU8(kTagString);
      enc->PutString(v.AsString());
      return;
    case ValueType::kDate:
      enc->PutU8(kTagDate);
      enc->PutZigZag(v.AsDate().days);
      return;
  }
}

Result<Value> DecodeValue(Decoder* dec) {
  ASSIGN_OR_RETURN(const uint8_t tag, dec->U8());
  switch (tag) {
    case kTagInt: {
      ASSIGN_OR_RETURN(const int64_t v, dec->ZigZag());
      return Value(v);
    }
    case kTagDouble: {
      ASSIGN_OR_RETURN(const uint64_t bits, dec->Varint());
      double d;
      __builtin_memcpy(&d, &bits, sizeof(d));
      return Value(d);
    }
    case kTagString: {
      ASSIGN_OR_RETURN(std::string s, dec->String());
      return Value(std::move(s));
    }
    case kTagDate: {
      ASSIGN_OR_RETURN(const int64_t days, dec->ZigZag());
      if (days < std::numeric_limits<int32_t>::min() ||
          days > std::numeric_limits<int32_t>::max()) {
        return Status::InvalidArgument("date days out of 32-bit range: " +
                                       std::to_string(days));
      }
      return Value(Date{static_cast<int32_t>(days)});
    }
    default:
      return Status::InvalidArgument("unknown value tag " + std::to_string(tag));
  }
}

void EncodeSchema(const Schema& s, Encoder* enc) {
  enc->PutVarint(s.num_fields());
  for (const Field& f : s.fields()) {
    enc->PutString(f.name);
    enc->PutU8(static_cast<uint8_t>(f.type));
    enc->PutU8(f.domain.has_value() ? 1 : 0);
    if (f.domain) {
      enc->PutZigZag(f.domain->lo);
      enc->PutZigZag(f.domain->hi);
    }
  }
}

Result<Schema> DecodeSchema(Decoder* dec) {
  ASSIGN_OR_RETURN(const uint64_t n, dec->Varint());
  // Every field costs at least 3 encoded bytes (name length, type,
  // domain presence); a count beyond that is garbage. Checked before
  // reserve() so corrupt input cannot force a huge allocation.
  if (n > dec->remaining() / 3) {
    return Status::InvalidArgument("field count " + std::to_string(n) +
                                   " exceeds remaining buffer");
  }
  std::vector<Field> fields;
  fields.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Field f;
    ASSIGN_OR_RETURN(f.name, dec->String());
    ASSIGN_OR_RETURN(const uint8_t type, dec->U8());
    if (type > static_cast<uint8_t>(ValueType::kDate)) {
      return Status::InvalidArgument("unknown field type " + std::to_string(type));
    }
    f.type = static_cast<ValueType>(type);
    ASSIGN_OR_RETURN(const uint8_t has_domain, dec->U8());
    if (has_domain == 1) {
      AttributeDomain d;
      ASSIGN_OR_RETURN(d.lo, dec->ZigZag());
      ASSIGN_OR_RETURN(d.hi, dec->ZigZag());
      if (d.lo > d.hi) {
        return Status::InvalidArgument("domain lo exceeds hi on the wire");
      }
      f.domain = d;
    } else if (has_domain != 0) {
      return Status::InvalidArgument("corrupt domain presence byte");
    }
    fields.push_back(std::move(f));
  }
  return Schema(std::move(fields));
}

void EncodeRelation(const Relation& r, Encoder* enc) {
  enc->PutString(r.name());
  EncodeSchema(r.schema(), enc);
  enc->PutVarint(r.num_rows());
  for (const Row& row : r.rows()) {
    for (const Value& v : row) EncodeValue(v, enc);
  }
}

Result<Relation> DecodeRelation(Decoder* dec) {
  ASSIGN_OR_RETURN(std::string name, dec->String());
  ASSIGN_OR_RETURN(Schema schema, DecodeSchema(dec));
  ASSIGN_OR_RETURN(const uint64_t rows, dec->Varint());
  // Each row costs at least one byte per value; a zero-column schema
  // cannot carry rows at all. Checked before Reserve() so corrupt
  // input can neither force a huge allocation nor spin the row loop.
  const size_t fields = schema.num_fields();
  if (fields == 0 ? rows != 0 : rows > dec->remaining() / fields) {
    return Status::InvalidArgument("row count " + std::to_string(rows) +
                                   " exceeds remaining buffer");
  }
  Relation out(std::move(name), std::move(schema));
  out.Reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    Row row;
    row.reserve(out.schema().num_fields());
    for (size_t c = 0; c < out.schema().num_fields(); ++c) {
      ASSIGN_OR_RETURN(Value v, DecodeValue(dec));
      if (v.type() != out.schema().field(c).type) {
        return Status::InvalidArgument("row value type mismatch on the wire");
      }
      row.push_back(std::move(v));
    }
    out.AppendUnchecked(std::move(row));
  }
  return out;
}

void EncodePartitionKey(const PartitionKey& k, Encoder* enc) {
  enc->PutString(k.relation);
  enc->PutString(k.attribute);
  enc->PutVarint(k.range.lo());
  enc->PutVarint(k.range.hi());
}

Result<PartitionKey> DecodePartitionKey(Decoder* dec) {
  PartitionKey k;
  ASSIGN_OR_RETURN(k.relation, dec->String());
  ASSIGN_OR_RETURN(k.attribute, dec->String());
  ASSIGN_OR_RETURN(const uint64_t lo, dec->Varint());
  ASSIGN_OR_RETURN(const uint64_t hi, dec->Varint());
  if (lo > hi || hi > 0xFFFFFFFFull) {
    return Status::InvalidArgument("corrupt range on the wire");
  }
  ASSIGN_OR_RETURN(k.range, Range::Make(static_cast<uint32_t>(lo),
                                        static_cast<uint32_t>(hi)));
  return k;
}

void EncodeNetAddress(const NetAddress& a, Encoder* enc) {
  enc->PutVarint(a.host);
  enc->PutVarint(a.port);
}

Result<NetAddress> DecodeNetAddress(Decoder* dec) {
  ASSIGN_OR_RETURN(const uint64_t host, dec->Varint());
  ASSIGN_OR_RETURN(const uint64_t port, dec->Varint());
  if (host > 0xFFFFFFFFull || port > 0xFFFFull) {
    return Status::InvalidArgument("corrupt net address on the wire");
  }
  return NetAddress{static_cast<uint32_t>(host), static_cast<uint16_t>(port)};
}

void EncodePartitionDescriptor(const PartitionDescriptor& d, Encoder* enc) {
  EncodePartitionKey(d.key, enc);
  EncodeNetAddress(d.holder, enc);
}

Result<PartitionDescriptor> DecodePartitionDescriptor(Decoder* dec) {
  PartitionDescriptor d;
  ASSIGN_OR_RETURN(d.key, DecodePartitionKey(dec));
  ASSIGN_OR_RETURN(d.holder, DecodeNetAddress(dec));
  return d;
}

void EncodeBucketEntries(const BucketEntries& entries, Encoder* enc) {
  enc->PutVarint(entries.size());
  for (const auto& [bucket, descriptor] : entries) {
    enc->PutVarint(bucket);
    EncodePartitionDescriptor(descriptor, enc);
  }
}

Result<BucketEntries> DecodeBucketEntries(Decoder* dec, size_t max_entries) {
  // An entry is a bucket varint, a key (two strings and a range) and a
  // holder: never under 5 bytes.
  ASSIGN_OR_RETURN(const size_t n, dec->GuardedCount(5, max_entries));
  BucketEntries entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(const uint64_t bucket, dec->Varint());
    if (bucket > UINT32_MAX) {
      return Status::InvalidArgument("bucket id exceeds the ring width");
    }
    ASSIGN_OR_RETURN(PartitionDescriptor descriptor,
                     DecodePartitionDescriptor(dec));
    entries.emplace_back(static_cast<chord::ChordId>(bucket),
                         std::move(descriptor));
  }
  if (!dec->AtEnd()) {
    return Status::InvalidArgument("trailing bytes after bucket entries");
  }
  return entries;
}

size_t RelationWireSize(const Relation& r) {
  Encoder enc;
  EncodeRelation(r, &enc);
  return enc.size();
}

}  // namespace wire
}  // namespace p2prange
