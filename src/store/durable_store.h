// The durable half of a peer's descriptor store.
//
// Wraps the volatile BucketStore with a write-ahead log and periodic
// two-slot checkpoint snapshots so a crashed peer can rebuild its
// descriptors instead of silently forgetting them (the paper assumes
// peers hold their partitions durably across sessions, §2). Every
// mutation is logged *before* it is applied; LRU evictions triggered
// by an insert are logged through the store's eviction listener, so
// the log is a complete, deterministic replay script.
//
// Crash model: Crash() discards the volatile store only — the WAL and
// snapshot byte images survive, exactly like files on disk. Recover()
// loads the newest valid snapshot, replays the WAL's validated prefix
// on top (skipping records the snapshot already covers, by sequence
// number), and re-establishes a clean checkpoint. A torn log tail is
// truncated; mid-log corruption (a complete frame failing its CRC)
// voids the whole log and recovery falls back to the snapshot alone.
#ifndef P2PRANGE_STORE_DURABLE_STORE_H_
#define P2PRANGE_STORE_DURABLE_STORE_H_

#include <cstdint>
#include <functional>

#include "store/bucket_store.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace p2prange {
namespace store {

/// \brief Knobs for per-peer descriptor durability.
struct DurabilityConfig {
  /// Checkpoint after this many WAL records; 0 disables checkpoints
  /// (the log grows without bound and replays from the beginning).
  uint64_t checkpoint_every = 64;
};

/// \brief What one Recover() call reconstructed, for metrics/tests.
struct RecoveryReport {
  size_t snapshot_entries = 0;      ///< entries loaded from the snapshot
  size_t wal_records_replayed = 0;  ///< log records applied on top
  size_t descriptors_restored = 0;  ///< store size after recovery
  bool torn_tail = false;           ///< log ended in a torn append
  bool wal_corrupted = false;       ///< mid-log CRC/decode failure
  bool snapshot_fallback = false;   ///< a non-empty snapshot slot was bad
  bool wal_gap = false;             ///< log did not connect to snapshot
};

/// \brief BucketStore + WAL + checkpoints behind one mutation API.
///
/// All descriptor mutations MUST go through Insert / EraseStale here
/// (reads can use store() freely); mutating the BucketStore directly
/// would desynchronize it from the log.
class DurableDescriptorStore {
 public:
  DurableDescriptorStore(size_t store_capacity, DurabilityConfig config);

  DurableDescriptorStore(const DurableDescriptorStore&) = delete;
  DurableDescriptorStore& operator=(const DurableDescriptorStore&) = delete;

  /// Logs and applies an insert; returns true on a fresh insert.
  bool Insert(chord::ChordId id, const PartitionDescriptor& descriptor);

  /// Logs and applies a stale erase; returns descriptors removed.
  size_t EraseStale(const PartitionKey& key, const NetAddress& holder);

  /// Drops the volatile store, keeping the durable images — what a
  /// process crash does to a peer.
  void Crash();

  /// Rebuilds the store from snapshot + WAL (see file comment).
  RecoveryReport Recover();

  /// Writes a checkpoint now and truncates the log.
  void ForceCheckpoint();

  const BucketStore& store() const { return store_; }
  BucketStore& store() { return store_; }

  const WriteAheadLog& wal() const { return wal_; }
  WriteAheadLog& wal() { return wal_; }
  const SnapshotStore& snapshots() const { return snaps_; }
  SnapshotStore& snapshots() { return snaps_; }
  const DurabilityConfig& config() const { return config_; }
  uint64_t wal_seq() const { return wal_seq_; }
  uint64_t checkpoints() const { return checkpoints_; }

  /// Test seam: invoked between the snapshot write and the WAL
  /// truncation of a checkpoint, so crash harnesses can capture the
  /// disk mid-checkpoint (snapshot complete, log not yet cleared).
  void set_checkpoint_hook(std::function<void()> hook) {
    checkpoint_hook_ = std::move(hook);
  }

 private:
  void AttachEvictionListener();
  void LogRecord(WalRecord::Op op, chord::ChordId bucket,
                 const PartitionDescriptor& descriptor);
  void MaybeCheckpoint();

  size_t capacity_;
  DurabilityConfig config_;
  BucketStore store_;
  WriteAheadLog wal_;
  SnapshotStore snaps_;
  uint64_t wal_seq_ = 0;  ///< seq of the last record logged
  uint64_t records_since_checkpoint_ = 0;
  uint64_t checkpoints_ = 0;
  bool replaying_ = false;  ///< suppress logging while Recover() applies
  std::function<void()> checkpoint_hook_;
};

}  // namespace store
}  // namespace p2prange

#endif  // P2PRANGE_STORE_DURABLE_STORE_H_
