// Hostile-input robustness of the TCP frame codec and RPC envelope
// decoder: truncated frames, oversized length prefixes, corrupted
// CRCs, and pure garbage must all come back as Status errors — no
// crash, no unbounded allocation, no byte of a bad frame reaching a
// handler. Extends the serde fuzz discipline (tests/wire) to the
// transport layer.
#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/random.h"
#include "rpc/frame.h"
#include "rpc/message.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace p2prange {
namespace rpc {
namespace {

std::string Framed(std::string_view payload) {
  std::string out;
  AppendFrame(payload, &out);
  return out;
}

TEST(FrameTest, RoundTripsSingleFrame) {
  FrameParser parser;
  parser.Feed(Framed("hello, ring"));
  auto got = parser.Next();
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ(**got, "hello, ring");
  auto empty = parser.Next();
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->has_value());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameTest, RoundTripsEmptyPayload) {
  FrameParser parser;
  parser.Feed(Framed(""));
  auto got = parser.Next();
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ(**got, "");
}

TEST(FrameTest, ReassemblesAcrossArbitraryChunking) {
  Rng rng(501);
  for (int trial = 0; trial < 100; ++trial) {
    std::string stream;
    std::vector<std::string> payloads;
    const int n = 1 + static_cast<int>(rng.NextBounded(5));
    for (int i = 0; i < n; ++i) {
      std::string p;
      const size_t len = rng.NextBounded(300);
      for (size_t b = 0; b < len; ++b) {
        p.push_back(static_cast<char>(rng.Next32() & 0xFF));
      }
      payloads.push_back(p);
      stream += Framed(p);
    }
    FrameParser parser;
    size_t decoded = 0;
    size_t pos = 0;
    while (pos < stream.size()) {
      const size_t chunk =
          std::min(stream.size() - pos, 1 + rng.NextBounded(40));
      parser.Feed(std::string_view(stream).substr(pos, chunk));
      pos += chunk;
      for (;;) {
        auto got = parser.Next();
        ASSERT_TRUE(got.ok());
        if (!got->has_value()) break;
        ASSERT_LT(decoded, payloads.size());
        EXPECT_EQ(**got, payloads[decoded]);
        ++decoded;
      }
    }
    EXPECT_EQ(decoded, payloads.size());
  }
}

TEST(FrameTest, TruncationAtEveryPrefixJustWaits) {
  const std::string frame = Framed("partial delivery");
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    FrameParser parser;
    parser.Feed(std::string_view(frame).substr(0, cut));
    auto got = parser.Next();
    ASSERT_TRUE(got.ok()) << "cut at " << cut;
    EXPECT_FALSE(got->has_value()) << "cut at " << cut;
    // The rest arrives: the frame completes.
    parser.Feed(std::string_view(frame).substr(cut));
    auto rest = parser.Next();
    ASSERT_TRUE(rest.ok());
    ASSERT_TRUE(rest->has_value());
    EXPECT_EQ(**rest, "partial delivery");
  }
}

TEST(FrameTest, OversizedLengthPrefixRejectedBeforeAllocation) {
  // A length prefix claiming 4 GiB must fail from the 8 header bytes
  // alone — buffering until "the rest arrives" would be the allocation
  // blow-up this parser exists to prevent.
  std::string header;
  const uint32_t huge = 0xF0000000u;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  }
  header += std::string(4, '\0');  // any CRC
  FrameParser parser;
  parser.Feed(header);
  auto got = parser.Next();
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsIOError());
  EXPECT_TRUE(parser.poisoned());
}

TEST(FrameTest, JustOverCapRejectedJustUnderAccepted) {
  std::string ok_frame = Framed(std::string(1024, 'x'));
  FrameParser parser;
  parser.Feed(ok_frame);
  ASSERT_TRUE(parser.Next().ok());

  // Hand-build a header declaring kMaxFramePayload + 1.
  const uint32_t over = static_cast<uint32_t>(kMaxFramePayload + 1);
  std::string bad;
  for (int i = 0; i < 4; ++i) {
    bad.push_back(static_cast<char>((over >> (8 * i)) & 0xFF));
  }
  bad += std::string(4, '\0');
  parser.Feed(bad);
  EXPECT_FALSE(parser.Next().ok());
}

TEST(FrameTest, CorruptedPayloadFailsCrcAndPoisons) {
  Rng rng(502);
  for (int trial = 0; trial < 200; ++trial) {
    std::string frame = Framed("descriptor payload bytes");
    // Flip one bit anywhere: header length, CRC, or payload.
    const size_t pos = rng.NextBounded(frame.size());
    frame[pos] = static_cast<char>(frame[pos] ^ (1 << rng.NextBounded(8)));
    FrameParser parser;
    parser.Feed(frame);
    auto got = parser.Next();
    if (!got.ok()) {
      EXPECT_TRUE(parser.poisoned());
      // Poisoned stays poisoned, even when good bytes follow.
      parser.Feed(Framed("good"));
      EXPECT_FALSE(parser.Next().ok());
      continue;
    }
    // A length-field flip can turn the frame into a shorter/longer
    // still-pending one; it must never decode to a wrong payload.
    if (got->has_value()) {
      EXPECT_EQ(**got, "descriptor payload bytes");
    }
  }
}

TEST(FrameTest, WalImageAndSnapshotSlotParseAsWireFrames) {
  // One codec for disk and wire: the stream parser reads a WAL image
  // frame by frame and a snapshot slot as its single frame.
  store::WriteAheadLog wal;
  std::vector<store::WalRecord> written;
  for (uint32_t i = 1; i <= 5; ++i) {
    store::WalRecord rec;
    rec.seq = i;
    rec.bucket = i * 977;
    rec.descriptor = PartitionDescriptor{
        PartitionKey{"T", "a", Range(i, i + 9)}, NetAddress{i, 7000}};
    wal.Append(rec);
    written.push_back(rec);
  }
  FrameParser parser;
  parser.Feed(wal.image());
  for (const store::WalRecord& want : written) {
    auto frame = parser.Next();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_TRUE(frame->has_value());
    wire::Decoder dec(**frame);
    auto rec = store::DecodeWalRecord(&dec);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(*rec, want);
  }
  auto end = parser.Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
  EXPECT_EQ(parser.buffered(), 0u);

  store::SnapshotStore snapshots;
  store::SnapshotData snap;
  snap.wal_seq = 5;
  for (const store::WalRecord& rec : written) {
    snap.entries.emplace_back(rec.bucket, rec.descriptor);
  }
  snapshots.Write(snap);
  const std::string& slot = snapshots.slot(0);
  FrameParser slot_parser;
  slot_parser.Feed(slot);
  auto payload = slot_parser.Next();
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  ASSERT_TRUE(payload->has_value());
  EXPECT_EQ(kCrc32cFrameHeaderBytes + (*payload)->size(), slot.size());
  wire::Decoder dec(**payload);
  auto wal_seq = dec.Varint();
  ASSERT_TRUE(wal_seq.ok());
  EXPECT_EQ(*wal_seq, 5u);
  EXPECT_EQ(slot_parser.buffered(), 0u);
}

TEST(FrameTest, GarbageStreamNeverCrashes) {
  Rng rng(503);
  for (int trial = 0; trial < 500; ++trial) {
    FrameParser parser;
    const size_t len = rng.NextBounded(600);
    std::string garbage;
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.Next32() & 0xFF));
    }
    parser.Feed(garbage);
    for (int i = 0; i < 8; ++i) {
      auto got = parser.Next();
      if (!got.ok()) break;            // rejected cleanly
      if (!got->has_value()) break;    // waiting for more
      // An accidental valid frame (possible only if the garbage built
      // a correct CRC) is fine; keep draining.
    }
  }
}

// --- Envelope decoding over fuzzed bytes --------------------------------

std::string ValidEnvelope() {
  RpcHeader h;
  h.call_id = 77;
  h.type = MsgType::kProbeBucket;
  h.is_response = false;
  return EncodeEnvelope(h, "request body");
}

TEST(EnvelopeFuzzTest, RoundTripsAllTypesAndFlags) {
  for (uint8_t raw = 1; raw <= 6; ++raw) {
    for (const bool response : {false, true}) {
      RpcHeader h;
      h.call_id = 0xDEADBEEFULL << 7;
      h.type = static_cast<MsgType>(raw);
      h.is_response = response;
      h.status = response ? StatusCode::kNotFound : StatusCode::kOk;
      auto got = DecodeEnvelope(EncodeEnvelope(h, "abc"));
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->header.call_id, h.call_id);
      EXPECT_EQ(got->header.type, h.type);
      EXPECT_EQ(got->header.is_response, h.is_response);
      EXPECT_EQ(got->header.status, h.status);
      EXPECT_EQ(got->body, "abc");
    }
  }
}

TEST(EnvelopeFuzzTest, TruncationAtEveryPrefixFails) {
  const std::string full = ValidEnvelope();
  // Every strict prefix of the header region must fail; a cut inside
  // the body region decodes with a shorter body (length is implicit).
  for (size_t cut = 0; cut < 4; ++cut) {
    EXPECT_FALSE(DecodeEnvelope(std::string_view(full).substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(EnvelopeFuzzTest, UnknownVersionTypeFlagsAndStatusRejected) {
  std::string bytes = ValidEnvelope();
  std::string bad = bytes;
  bad[0] = 9;  // version
  EXPECT_FALSE(DecodeEnvelope(bad).ok());
  bad = bytes;
  bad[1] = 0;  // message type 0 is unassigned
  EXPECT_FALSE(DecodeEnvelope(bad).ok());
  bad = bytes;
  bad[1] = 55;  // unknown message type
  EXPECT_FALSE(DecodeEnvelope(bad).ok());
  bad = bytes;
  bad[2] = 0x7E;  // undefined flag bits
  EXPECT_FALSE(DecodeEnvelope(bad).ok());
  bad = bytes;
  bad[3] = 99;  // status code beyond the enum
  EXPECT_FALSE(DecodeEnvelope(bad).ok());
}

TEST(EnvelopeFuzzTest, MutatedEnvelopeNeverMisbehaves) {
  Rng rng(504);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes = ValidEnvelope();
    const int mutations = 1 + static_cast<int>(rng.NextBounded(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.NextBounded(bytes.size());
      bytes[pos] = static_cast<char>(rng.Next32() & 0xFF);
    }
    auto got = DecodeEnvelope(bytes);  // ok or clean error; never a crash
    (void)got;
  }
}

}  // namespace
}  // namespace rpc
}  // namespace p2prange
