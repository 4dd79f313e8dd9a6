// Application-level state of one peer: the descriptor buckets for the
// ring slice it owns, plus any partition data it has materialized.
#ifndef P2PRANGE_CORE_PEER_H_
#define P2PRANGE_CORE_PEER_H_

#include <optional>
#include <string>
#include <unordered_map>

#include "chord/id.h"
#include "overlay/overlay.h"
#include "rel/relation.h"
#include "store/bucket_store.h"
#include "store/durable_store.h"

namespace p2prange {

/// \brief Descriptor of an exact-match (equality) partition, e.g.
/// Diagnosis tuples with diagnosis = 'Glaucoma' (§3.1's put/get path).
struct EqDescriptor {
  std::string key;     ///< canonical "relation|attribute|value"
  NetAddress holder;

  bool operator==(const EqDescriptor&) const = default;
};

/// \brief One peer of the data-sharing system.
class Peer {
 public:
  explicit Peer(overlay::PeerInfo info, size_t store_capacity)
      : info_(info), durable_(store_capacity) {}

  const overlay::PeerInfo& info() const { return info_; }
  const NetAddress& addr() const { return info_.addr; }

  BucketStore& store() { return durable_.store(); }
  const BucketStore& store() const { return durable_.store(); }

  // --- Durable descriptor mutations ----------------------------------
  // Mutations go through these (not store() directly) so they hit the
  // write-ahead log before the volatile store.

  /// Logs + inserts a descriptor into bucket `id`.
  bool InsertDescriptor(chord::ChordId id, const PartitionDescriptor& d) {
    return durable_.Insert(id, d);
  }

  /// Logs + removes every descriptor of `key` held by dead `holder`.
  size_t EraseStaleDescriptors(const PartitionKey& key, const NetAddress& holder) {
    return durable_.EraseStale(key, holder);
  }

  /// Crash semantics: all volatile state is lost (descriptor store,
  /// materialized partitions, equality index). Durable images survive.
  void CrashVolatileState() {
    durable_.Crash();
    data_.clear();
    eq_index_.clear();
    eq_data_.clear();
  }

  /// Replays checkpoint + WAL to rebuild the descriptor store.
  store::RecoveryReport RecoverDurableState() { return durable_.Recover(); }

  store::DurableDescriptorStore& durable() { return durable_; }
  const store::DurableDescriptorStore& durable() const { return durable_; }

  // --- Materialized range partitions (this peer is the holder) -------

  void StorePartitionData(const PartitionKey& key, Relation data) {
    data_[key] = std::move(data);
  }
  const Relation* GetPartitionData(const PartitionKey& key) const {
    auto it = data_.find(key);
    return it == data_.end() ? nullptr : &it->second;
  }
  size_t num_materialized() const { return data_.size(); }

  // --- Exact-match partitions (§3.1 put/get path) ---------------------

  void StoreEqDescriptor(chord::ChordId id, EqDescriptor d);
  std::optional<EqDescriptor> FindEqDescriptor(chord::ChordId id,
                                               const std::string& key) const;

  /// Lazy repair: removes the descriptor for `key` in bucket `id` when
  /// it still points at `holder` (a peer found to be dead). Returns
  /// true if something was removed.
  bool EraseEqDescriptor(chord::ChordId id, const std::string& key,
                         const NetAddress& holder);

  void StoreEqData(const std::string& key, Relation data) {
    eq_data_[key] = std::move(data);
  }
  const Relation* GetEqData(const std::string& key) const {
    auto it = eq_data_.find(key);
    return it == eq_data_.end() ? nullptr : &it->second;
  }

 private:
  overlay::PeerInfo info_;
  store::DurableDescriptorStore durable_;
  std::unordered_map<PartitionKey, Relation, PartitionKeyHash> data_;
  std::unordered_map<chord::ChordId, std::vector<EqDescriptor>> eq_index_;
  std::unordered_map<std::string, Relation> eq_data_;
};

}  // namespace p2prange

#endif  // P2PRANGE_CORE_PEER_H_
