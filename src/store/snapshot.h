// Checkpoint snapshots of a peer's descriptor store.
//
// A checkpoint bounds WAL replay time and the damage a corrupted log
// can do: recovery loads the newest valid snapshot and replays only
// the WAL records logged after it. Snapshots are written to two
// alternating slots so a crash *during* a checkpoint write can never
// destroy the previous good snapshot — the torn slot fails its CRC
// and recovery falls back to the other one.
//
// Slot image format: one CRC32C frame (common/crc32c.h, the WAL's
// framing) whose payload is
//
//   varint wal_seq        -- log sequence number this snapshot covers
//   varint n              -- number of descriptor entries
//   n x (varint bucket, PartitionDescriptor)   -- oldest-first, so
//                            re-inserting in order rebuilds LRU order
#ifndef P2PRANGE_STORE_SNAPSHOT_H_
#define P2PRANGE_STORE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chord/id.h"
#include "common/result.h"
#include "store/partition_key.h"

namespace p2prange {
namespace store {

/// \brief The logical content of one checkpoint.
struct SnapshotData {
  /// Log sequence number (records logged since the peer was born) the
  /// snapshot covers; WAL records at seq > wal_seq replay on top.
  uint64_t wal_seq = 0;
  /// Descriptor entries in recency order, oldest first.
  std::vector<std::pair<chord::ChordId, PartitionDescriptor>> entries;
};

/// \brief Two-slot checkpoint storage with CRC-validated loads.
class SnapshotStore {
 public:
  static constexpr size_t kNumSlots = 2;

  /// Writes `snap` to the slot NOT holding the newest valid snapshot,
  /// so the previous checkpoint survives until this one is complete.
  /// Returns the byte size of the slot image written.
  size_t Write(const SnapshotData& snap);

  /// \brief Outcome of scanning both slots at recovery.
  struct LoadResult {
    bool found = false;        ///< some valid snapshot exists
    bool slot_corrupt = false; ///< a non-empty slot failed validation
    SnapshotData data;         ///< newest valid snapshot (when found)
  };
  LoadResult LoadLatestValid() const;

  const std::string& slot(size_t i) const { return slots_[i]; }

  /// Times Write has replaced slot i's image. A copy of the slot
  /// written elsewhere is stale exactly when this has moved since;
  /// edits through mutable_slot do not count.
  uint64_t writes(size_t i) const { return writes_[i]; }

  /// Raw slot images for crash harnesses (tear / bit-flip injection).
  std::string& mutable_slot(size_t i) { return slots_[i]; }

  /// Total snapshot bytes currently held.
  size_t TotalBytes() const { return slots_[0].size() + slots_[1].size(); }

 private:
  Result<SnapshotData> ParseSlot(size_t i) const;

  std::string slots_[kNumSlots];
  uint64_t writes_[kNumSlots] = {};
};

}  // namespace store
}  // namespace p2prange

#endif  // P2PRANGE_STORE_SNAPSHOT_H_
