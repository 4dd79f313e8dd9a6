#include "store/wal.h"

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/random.h"
#include "store/durable_store.h"
#include "store/snapshot.h"

namespace p2prange {
namespace store {
namespace {

PartitionDescriptor Desc(uint32_t lo, uint32_t hi, uint32_t host) {
  return PartitionDescriptor{PartitionKey{"Patient", "age", Range(lo, hi)},
                             NetAddress{host, 7000}};
}

WalRecord Rec(WalRecord::Op op, uint64_t seq, chord::ChordId bucket,
              const PartitionDescriptor& d) {
  WalRecord rec;
  rec.op = op;
  rec.seq = seq;
  rec.bucket = bucket;
  rec.descriptor = d;
  return rec;
}

// --- CRC32C ----------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // The canonical CRC-32C (Castagnoli) check value.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  // 32 zero bytes, per RFC 3720 appendix B.4.
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  std::string ones(32, static_cast<char>(0xFF));
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendComposes) {
  const std::string data = "the quick brown fox";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32cExtend(0, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, Crc32c(data)) << "split at " << split;
  }
}

TEST(Crc32cTest, MaskRoundTripsAndDiffers) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const uint32_t crc = rng.Next32();
    const uint32_t masked = Crc32cMask(crc);
    EXPECT_EQ(Crc32cUnmask(masked), crc);
    EXPECT_NE(masked, crc) << "masking must perturb the stored value";
  }
}

TEST(Crc32cTest, EveryBitFlipDetected) {
  const std::string data = "partition descriptor payload";
  const uint32_t good = Crc32c(data);
  for (size_t bit = 0; bit < data.size() * 8; ++bit) {
    std::string mutated = data;
    mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    EXPECT_NE(Crc32c(mutated), good) << "bit " << bit;
  }
}

// --- WAL record serde ------------------------------------------------

TEST(WalRecordTest, RoundTripsEveryOp) {
  const WalRecord::Op ops[] = {WalRecord::Op::kInsert, WalRecord::Op::kErase,
                               WalRecord::Op::kEvict};
  uint64_t seq = 0;
  for (WalRecord::Op op : ops) {
    const WalRecord rec = Rec(op, ++seq, 0xDEADBEEFu, Desc(10, 99, 42));
    wire::Encoder enc;
    EncodeWalRecord(rec, &enc);
    wire::Decoder dec(enc.buffer());
    auto got = DecodeWalRecord(&dec);
    ASSERT_TRUE(got.ok()) << WalOpName(op) << ": " << got.status();
    EXPECT_EQ(*got, rec);
    EXPECT_TRUE(dec.AtEnd());
  }
}

TEST(WalRecordTest, UnknownOpRejected) {
  wire::Encoder enc;
  EncodeWalRecord(Rec(WalRecord::Op::kInsert, 1, 7, Desc(1, 2, 3)), &enc);
  std::string bytes = enc.Take();
  bytes[0] = 9;  // no such op
  wire::Decoder dec(bytes);
  EXPECT_TRUE(DecodeWalRecord(&dec).status().IsInvalidArgument());
}

// --- WAL append / replay ---------------------------------------------

TEST(WalTest, AppendThenReplayReturnsRecordsInOrder) {
  WriteAheadLog wal;
  std::vector<WalRecord> written;
  for (uint64_t i = 1; i <= 20; ++i) {
    written.push_back(Rec(i % 3 == 0 ? WalRecord::Op::kErase
                                     : WalRecord::Op::kInsert,
                          i, static_cast<chord::ChordId>(i * 977),
                          Desc(10 * static_cast<uint32_t>(i),
                               10 * static_cast<uint32_t>(i) + 5,
                               static_cast<uint32_t>(i))));
    wal.Append(written.back());
  }
  const auto replay = WriteAheadLog::Replay(wal.image());
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_FALSE(replay.corrupted);
  EXPECT_EQ(replay.valid_bytes, wal.image().size());
  ASSERT_EQ(replay.records.size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(replay.records[i], written[i]) << "record " << i;
  }
}

TEST(WalTest, EmptyImageReplaysToNothing) {
  const auto replay = WriteAheadLog::Replay("");
  EXPECT_TRUE(replay.records.empty());
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_FALSE(replay.corrupted);
}

TEST(WalTest, TornTailAtEveryOffsetKeepsExactlyTheValidPrefix) {
  WriteAheadLog wal;
  std::vector<size_t> frame_ends;  // cumulative image size per record
  for (uint64_t i = 1; i <= 8; ++i) {
    wal.Append(Rec(WalRecord::Op::kInsert, i, static_cast<chord::ChordId>(i),
                   Desc(static_cast<uint32_t>(i), 100, 1)));
    frame_ends.push_back(wal.image().size());
  }
  const std::string full = wal.image();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    const auto replay = WriteAheadLog::Replay(std::string_view(full).substr(0, cut));
    // Count the whole frames that survive the cut.
    size_t expect = 0;
    while (expect < frame_ends.size() && frame_ends[expect] <= cut) ++expect;
    ASSERT_EQ(replay.records.size(), expect) << "cut at " << cut;
    EXPECT_FALSE(replay.corrupted) << "cut at " << cut;
    // A cut exactly on a frame boundary is a clean (complete) log.
    const bool on_boundary = cut == 0 || (expect > 0 && frame_ends[expect - 1] == cut);
    EXPECT_EQ(replay.torn_tail, !on_boundary) << "cut at " << cut;
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_EQ(replay.records[i].seq, i + 1) << "cut at " << cut;
    }
  }
}

TEST(WalTest, EveryBitFlipIsDetectedNeverSilentlyReplayed) {
  WriteAheadLog wal;
  std::vector<WalRecord> written;
  for (uint64_t i = 1; i <= 4; ++i) {
    written.push_back(Rec(WalRecord::Op::kInsert, i,
                          static_cast<chord::ChordId>(i * 31), Desc(5, 50, 2)));
    wal.Append(written.back());
  }
  const std::string full = wal.image();
  for (size_t bit = 0; bit < full.size() * 8; ++bit) {
    std::string mutated = full;
    mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    const auto replay = WriteAheadLog::Replay(mutated);
    // The flip may hit a length field (torn tail / truncated frames) or
    // payload/crc bytes (corruption); either way no undetected-bad
    // record may surface: every replayed record must be one we wrote.
    EXPECT_TRUE(replay.torn_tail || replay.corrupted ||
                replay.records.size() == written.size())
        << "bit " << bit << " vanished without a trace";
    for (size_t i = 0; i < replay.records.size(); ++i) {
      EXPECT_EQ(replay.records[i], written[i])
          << "bit " << bit << " silently altered record " << i;
    }
  }
}

// --- Snapshot store --------------------------------------------------

SnapshotData MakeSnap(uint64_t seq, int entries) {
  SnapshotData snap;
  snap.wal_seq = seq;
  for (int i = 0; i < entries; ++i) {
    snap.entries.emplace_back(static_cast<chord::ChordId>(i * 131),
                              Desc(static_cast<uint32_t>(i), 200, 9));
  }
  return snap;
}

TEST(SnapshotTest, RoundTripsNewestValidSlot) {
  SnapshotStore snaps;
  EXPECT_FALSE(snaps.LoadLatestValid().found);
  snaps.Write(MakeSnap(10, 3));
  snaps.Write(MakeSnap(20, 5));
  const auto load = snaps.LoadLatestValid();
  ASSERT_TRUE(load.found);
  EXPECT_FALSE(load.slot_corrupt);
  EXPECT_EQ(load.data.wal_seq, 20u);
  ASSERT_EQ(load.data.entries.size(), 5u);
  EXPECT_EQ(load.data.entries[2].second, Desc(2, 200, 9));
}

TEST(SnapshotTest, AlternatingSlotsPreserveThePreviousCheckpoint) {
  SnapshotStore snaps;
  snaps.Write(MakeSnap(1, 1));
  const std::string slot_of_first =
      snaps.slot(0).empty() ? "slot1" : "slot0";
  snaps.Write(MakeSnap(2, 2));
  // Both slots populated now; the first checkpoint was not overwritten.
  EXPECT_FALSE(snaps.slot(0).empty());
  EXPECT_FALSE(snaps.slot(1).empty());
  snaps.Write(MakeSnap(3, 3));
  EXPECT_EQ(snaps.LoadLatestValid().data.wal_seq, 3u);
  (void)slot_of_first;
}

TEST(SnapshotTest, CorruptNewestSlotFallsBackToOlder) {
  SnapshotStore snaps;
  snaps.Write(MakeSnap(10, 2));
  snaps.Write(MakeSnap(20, 4));
  // Find and damage the slot holding seq 20.
  for (size_t i = 0; i < SnapshotStore::kNumSlots; ++i) {
    std::string& img = snaps.mutable_slot(i);
    if (!img.empty()) {
      std::string probe = img;
      img[img.size() / 2] ^= 0x40;
      if (snaps.LoadLatestValid().data.wal_seq == 20) img = probe;  // wrong slot
    }
  }
  const auto load = snaps.LoadLatestValid();
  ASSERT_TRUE(load.found);
  EXPECT_TRUE(load.slot_corrupt);
  EXPECT_EQ(load.data.wal_seq, 10u);
}

TEST(SnapshotTest, TornCheckpointWriteNeverDestroysTheOldSnapshot) {
  SnapshotStore snaps;
  snaps.Write(MakeSnap(10, 3));
  snaps.Write(MakeSnap(20, 3));
  // A crash mid-write leaves the target slot truncated at any length;
  // the other slot must still load.
  for (size_t i = 0; i < SnapshotStore::kNumSlots; ++i) {
    SnapshotStore copy = snaps;
    std::string& img = copy.mutable_slot(i);
    img.resize(img.size() / 2);
    const auto load = copy.LoadLatestValid();
    ASSERT_TRUE(load.found) << "slot " << i;
    EXPECT_TRUE(load.slot_corrupt);
  }
}

// --- Durable store ---------------------------------------------------

TEST(DurableStoreTest, CrashLosesVolatileRecoverReplaysExactly) {
  DurableDescriptorStore durable(/*store_capacity=*/0, DurabilityConfig{});
  for (uint32_t i = 0; i < 30; ++i) {
    durable.Insert(i * 17, Desc(i, i + 10, i % 5));
  }
  durable.EraseStale(Desc(3, 13, 3).key, Desc(3, 13, 3).holder);
  const auto before = durable.store().EntriesOldestFirst();
  durable.Crash();
  EXPECT_EQ(durable.store().num_descriptors(), 0u);
  const RecoveryReport report = durable.Recover();
  EXPECT_FALSE(report.torn_tail);
  EXPECT_FALSE(report.wal_corrupted);
  EXPECT_EQ(durable.store().EntriesOldestFirst(), before);
  EXPECT_EQ(report.descriptors_restored, before.size());
}

TEST(DurableStoreTest, CheckpointBoundsReplayAndPreservesState) {
  DurabilityConfig cfg;
  cfg.checkpoint_every = 8;
  DurableDescriptorStore durable(/*store_capacity=*/10, cfg);
  for (uint32_t i = 0; i < 100; ++i) {
    durable.Insert(i % 7, Desc(i, i + 3, i % 4));
  }
  EXPECT_GT(durable.checkpoints(), 0u);
  // The WAL only holds what the last checkpoint has not absorbed.
  EXPECT_LT(WriteAheadLog::Replay(durable.wal().image()).records.size(),
            cfg.checkpoint_every + 2 * 10);
  const auto before = durable.store().EntriesOldestFirst();
  durable.Crash();
  const RecoveryReport report = durable.Recover();
  EXPECT_EQ(durable.store().EntriesOldestFirst(), before);
  EXPECT_LE(report.wal_records_replayed, 3 * cfg.checkpoint_every);
}

TEST(DurableStoreTest, LruOrderSurvivesRecovery) {
  DurabilityConfig cfg;
  cfg.checkpoint_every = 0;  // pure WAL replay
  DurableDescriptorStore durable(/*store_capacity=*/3, cfg);
  durable.Insert(1, Desc(0, 10, 1));
  durable.Insert(2, Desc(10, 20, 1));
  durable.Insert(3, Desc(20, 30, 1));
  durable.Insert(1, Desc(0, 10, 1));   // refresh: 1 is now most recent
  durable.Insert(4, Desc(30, 40, 1));  // evicts bucket 2's entry
  const auto before = durable.store().EntriesOldestFirst();
  durable.Crash();
  durable.Recover();
  EXPECT_EQ(durable.store().EntriesOldestFirst(), before);
  // Another insert must evict the same victim it would have pre-crash.
  durable.Insert(5, Desc(40, 50, 1));
  EXPECT_FALSE(durable.store().ContainsExact(3, Desc(20, 30, 1).key));
}

TEST(DurableStoreTest, TornTailRecoversThePrefix) {
  DurabilityConfig cfg;
  cfg.checkpoint_every = 0;
  DurableDescriptorStore durable(/*store_capacity=*/0, cfg);
  for (uint32_t i = 0; i < 10; ++i) durable.Insert(i, Desc(i, i + 1, 1));
  const size_t full = durable.wal().mutable_image().size();
  durable.wal().mutable_image().resize(full - 3);  // shear the last frame
  durable.Crash();
  const RecoveryReport report = durable.Recover();
  EXPECT_TRUE(report.torn_tail);
  EXPECT_FALSE(report.wal_corrupted);
  EXPECT_EQ(report.wal_records_replayed, 9u);
  EXPECT_EQ(durable.store().num_descriptors(), 9u);
  EXPECT_FALSE(durable.store().ContainsExact(9, Desc(9, 10, 1).key));
}

TEST(DurableStoreTest, MidLogCorruptionFallsBackToCheckpoint) {
  DurabilityConfig cfg;
  cfg.checkpoint_every = 5;
  DurableDescriptorStore durable(/*store_capacity=*/0, cfg);
  for (uint32_t i = 0; i < 14; ++i) durable.Insert(i, Desc(i, i + 1, 1));
  ASSERT_GT(durable.checkpoints(), 0u);
  ASSERT_FALSE(durable.wal().image().empty());
  // Rot a payload byte of the FIRST post-checkpoint frame: the whole
  // log is voided and only the checkpoint state survives.
  durable.wal().mutable_image()[WriteAheadLog::kFrameHeaderBytes] ^= 0x01;
  durable.Crash();
  const RecoveryReport report = durable.Recover();
  EXPECT_TRUE(report.wal_corrupted);
  EXPECT_EQ(report.wal_records_replayed, 0u);
  EXPECT_EQ(durable.store().num_descriptors(), report.snapshot_entries);
  EXPECT_LT(durable.store().num_descriptors(), 14u);
}

TEST(DurableStoreTest, MidCheckpointCrashDoesNotDoubleApply) {
  DurabilityConfig cfg;
  cfg.checkpoint_every = 4;
  DurableDescriptorStore durable(/*store_capacity=*/3, cfg);
  // Capture the disk exactly between the snapshot write and the WAL
  // truncation; records covered by the snapshot are still in the log.
  std::string wal_at_hook;
  std::string slot0_at_hook, slot1_at_hook;
  bool captured = false;
  durable.set_checkpoint_hook([&] {
    wal_at_hook = durable.wal().image();
    slot0_at_hook = durable.snapshots().slot(0);
    slot1_at_hook = durable.snapshots().slot(1);
    captured = true;
  });
  for (uint32_t i = 0; i < 4; ++i) durable.Insert(i, Desc(i, i + 1, 1));
  ASSERT_TRUE(captured);
  ASSERT_FALSE(wal_at_hook.empty());
  const auto state = durable.store().EntriesOldestFirst();
  // Crash with the mid-checkpoint disk restored.
  durable.set_checkpoint_hook(nullptr);
  durable.wal().mutable_image() = wal_at_hook;
  durable.snapshots().mutable_slot(0) = slot0_at_hook;
  durable.snapshots().mutable_slot(1) = slot1_at_hook;
  durable.Crash();
  const RecoveryReport report = durable.Recover();
  // Sequence numbers tell recovery the log's records are already in
  // the snapshot: nothing replays twice.
  EXPECT_EQ(report.wal_records_replayed, 0u);
  EXPECT_EQ(durable.store().EntriesOldestFirst(), state);
}

}  // namespace
}  // namespace store
}  // namespace p2prange
