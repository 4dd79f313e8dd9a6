#include "store/durable_store.h"

namespace p2prange {
namespace store {

DurableDescriptorStore::DurableDescriptorStore(size_t store_capacity,
                                               DurabilityConfig config)
    : capacity_(store_capacity), config_(config), store_(store_capacity) {
  AttachEvictionListener();
}

void DurableDescriptorStore::AttachEvictionListener() {
  store_.set_eviction_listener(
      [this](chord::ChordId bucket, const PartitionDescriptor& victim) {
        // An insert overflowed capacity; the eviction is part of that
        // insert's effect and must replay in the same place. Suppressed
        // during replay: the re-applied insert re-triggers it there.
        if (!replaying_) LogRecord(WalRecord::Op::kEvict, bucket, victim);
      });
}

void DurableDescriptorStore::LogRecord(WalRecord::Op op, chord::ChordId bucket,
                                       const PartitionDescriptor& descriptor) {
  WalRecord rec;
  rec.op = op;
  rec.seq = ++wal_seq_;
  rec.bucket = bucket;
  rec.descriptor = descriptor;
  wal_.Append(rec);
  ++records_since_checkpoint_;
}

bool DurableDescriptorStore::Insert(chord::ChordId id,
                                    const PartitionDescriptor& descriptor) {
  // Write-ahead: the record hits the log before the store mutates, so
  // a crash after this line replays to the post-insert state and a
  // crash before it (a torn append) replays to the pre-insert state.
  LogRecord(WalRecord::Op::kInsert, id, descriptor);
  const bool fresh = store_.Insert(id, descriptor);
  MaybeCheckpoint();
  return fresh;
}

size_t DurableDescriptorStore::EraseStale(const PartitionKey& key,
                                          const NetAddress& holder) {
  PartitionDescriptor d;
  d.key = key;
  d.holder = holder;
  LogRecord(WalRecord::Op::kErase, /*bucket=*/0, d);
  const size_t removed = store_.EraseStale(key, holder);
  MaybeCheckpoint();
  return removed;
}

void DurableDescriptorStore::MaybeCheckpoint() {
  if (config_.checkpoint_every == 0) return;
  if (records_since_checkpoint_ >= config_.checkpoint_every) ForceCheckpoint();
}

void DurableDescriptorStore::ForceCheckpoint() {
  SnapshotData snap;
  snap.wal_seq = wal_seq_;
  snap.entries = store_.EntriesOldestFirst();
  snaps_.Write(snap);
  ++checkpoints_;
  // Crash window: the snapshot is durable but the log still holds the
  // records it covers. Recovery skips them by sequence number; the
  // hook lets crash harnesses capture exactly this state.
  if (checkpoint_hook_) checkpoint_hook_();
  wal_.Clear();
  records_since_checkpoint_ = 0;
}

void DurableDescriptorStore::Crash() {
  store_ = BucketStore(capacity_);
  AttachEvictionListener();
}

RecoveryReport DurableDescriptorStore::Recover() {
  RecoveryReport report;
  store_ = BucketStore(capacity_);
  AttachEvictionListener();
  records_since_checkpoint_ = 0;
  replaying_ = true;
  const SnapshotStore::LoadResult snap = snaps_.LoadLatestValid();
  report.snapshot_fallback = snap.slot_corrupt;
  uint64_t applied_seq = 0;
  if (snap.found) {
    applied_seq = snap.data.wal_seq;
    report.snapshot_entries = snap.data.entries.size();
    for (const auto& [bucket, descriptor] : snap.data.entries) {
      store_.Insert(bucket, descriptor);
    }
  }

  const WriteAheadLog::ReplayResult replay = WriteAheadLog::Replay(wal_.image());
  report.torn_tail = replay.torn_tail;
  report.wal_corrupted = replay.corrupted;
  if (!replay.corrupted) {
    for (const WalRecord& rec : replay.records) {
      if (rec.seq <= applied_seq) continue;  // already in the snapshot
      if (rec.seq != applied_seq + 1) {
        // The log starts past the snapshot it would have to extend —
        // the bridging records were truncated at a newer checkpoint
        // whose snapshot slot we could not load. Replaying across the
        // gap would fabricate a state that never existed.
        report.wal_gap = true;
        break;
      }
      switch (rec.op) {
        case WalRecord::Op::kInsert:
          store_.Insert(rec.bucket, rec.descriptor);
          break;
        case WalRecord::Op::kErase:
          store_.EraseStale(rec.descriptor.key, rec.descriptor.holder);
          break;
        case WalRecord::Op::kEvict:
          // Usually a no-op: replaying the triggering insert already
          // re-evicted it. Kept for logs whose capacity context differs.
          store_.EraseOne(rec.bucket, rec.descriptor.key);
          break;
      }
      ++report.wal_records_replayed;
      applied_seq = rec.seq;
    }
  }
  replaying_ = false;

  // Future records must order after everything this recovery trusted.
  wal_seq_ = applied_seq;
  report.descriptors_restored = store_.num_descriptors();
  // Re-establish a clean baseline so the next crash replays from here
  // instead of re-walking (or re-trusting) the damaged log.
  ForceCheckpoint();
  return report;
}

}  // namespace store
}  // namespace p2prange
