// The per-peer store of partition descriptors, keyed by DHT identifier.
//
// A peer owns a slice of the identifier ring; every identifier in that
// slice is a *bucket* that may hold descriptors of several partitions
// (distinct ranges can collide on an identifier, and one range is
// published under l identifiers). A lookup probes one bucket and
// returns the best match under the chosen similarity; §5.3's extension
// instead matches against every bucket the peer holds.
#ifndef P2PRANGE_STORE_BUCKET_STORE_H_
#define P2PRANGE_STORE_BUCKET_STORE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chord/id.h"
#include "common/result.h"
#include "hash/range.h"
#include "store/partition_key.h"

namespace p2prange {

/// \brief How a bucket picks its best match for a query range (§5.2).
enum class MatchCriterion {
  kJaccard,      ///< maximize |Q∩R| / |Q∪R| (what the hashing optimizes)
  kContainment,  ///< maximize |Q∩R| / |Q| (what the user actually wants)
};

const char* MatchCriterionName(MatchCriterion c);

/// \brief A candidate answer: a stored descriptor plus its score
/// against the query range under the criterion used.
struct MatchCandidate {
  PartitionDescriptor descriptor;
  double similarity = 0.0;  ///< score under the criterion that selected it
  bool exact = false;       ///< stored range equals the query range
};

// The §4 match rule. The bucket scan, the simulator, the live client and
// the scenario engine all rank candidates through these three functions.

/// \brief Score of `stored` as an answer to `query` under `criterion`.
inline double ScoreMatch(const Range& query, const Range& stored,
                         MatchCriterion criterion) {
  switch (criterion) {
    case MatchCriterion::kJaccard:
      return query.Jaccard(stored);
    case MatchCriterion::kContainment:
      return query.ContainmentIn(stored);
  }
  return 0.0;
}

/// \brief True when (score_a, exact_a) is the better answer: the higher
/// score wins, and an exact copy wins a tie (under containment a
/// superset scores 1 too, and must not hide the exact copy).
inline bool Outranks(double score_a, bool exact_a, double score_b,
                     bool exact_b) {
  if (score_a != score_b) return score_a > score_b;
  return exact_a && !exact_b;
}

/// \brief Stable sort of `candidates`, best first by Outranks.
void RankCandidates(std::vector<MatchCandidate>* candidates);

/// \brief Appends `candidate` unless `*candidates` already holds its
/// descriptor (the same key and holder): a copy that several buckets
/// return counts once, where it was first seen.
void AddCandidateOnce(MatchCandidate candidate,
                      std::vector<MatchCandidate>* candidates);

/// \brief Capacity-bounded descriptor store of one peer.
class BucketStore {
 public:
  /// `max_descriptors` == 0 means unbounded; otherwise least-recently-
  /// used descriptors are evicted once the total exceeds the bound.
  explicit BucketStore(size_t max_descriptors = 0)
      : max_descriptors_(max_descriptors) {}

  /// Inserts a descriptor into bucket `id`. Duplicate (bucket, key)
  /// pairs refresh recency and update the holder instead of growing
  /// the bucket. Returns true on a fresh insert, false on a refresh.
  bool Insert(chord::ChordId id, const PartitionDescriptor& descriptor);

  /// \brief Best match for `query` among the descriptors of bucket
  /// `id` over the same relation+attribute. nullopt if the bucket is
  /// empty (or holds only other columns).
  std::optional<MatchCandidate> BestMatch(chord::ChordId id,
                                          const PartitionKey& query,
                                          MatchCriterion criterion) const;

  /// \brief §5.3 extension: best match across *all* buckets this peer
  /// holds, by one pass over every entry, most recent first. A tie in
  /// (score, exact) goes to the larger (lo, hi), and a key held in
  /// several buckets reports its most recently inserted or refreshed
  /// holder. When nothing overlaps the query, the column's smallest
  /// (lo, hi) comes back at score 0. The result is always an entry the
  /// store holds, so EraseStale of its (key, holder) removes it.
  std::optional<MatchCandidate> BestMatchAnywhere(const PartitionKey& query,
                                                  MatchCriterion criterion) const;

  /// \brief All same-column candidates of bucket `id` that overlap the
  /// query range, scored under `criterion` (for multi-partition
  /// coverage assembly).
  std::vector<MatchCandidate> OverlappingCandidates(chord::ChordId id,
                                                    const PartitionKey& query,
                                                    MatchCriterion criterion) const;

  /// \brief Lazy repair: removes every descriptor of `key` whose
  /// holder is `holder`, across all buckets. Called by a probing owner
  /// when it learns the holder is dead (the descriptor outlived the
  /// peer). Returns the number of descriptors removed.
  size_t EraseStale(const PartitionKey& key, const NetAddress& holder);

  /// \brief Removes `key` from bucket `id` alone (other buckets keep
  /// their copies). Used by WAL replay to re-apply a logged LRU
  /// eviction; a no-op returning false when the pair is absent, so
  /// replay stays idempotent when capacity already evicted it.
  bool EraseOne(chord::ChordId id, const PartitionKey& key);

  /// True if bucket `id` holds exactly `key`.
  bool ContainsExact(chord::ChordId id, const PartitionKey& key) const;

  /// \brief Every (bucket, descriptor) entry in recency order, oldest
  /// first — re-inserting in this order rebuilds the identical store,
  /// including LRU order. Checkpoint and replica-repair both walk this.
  std::vector<std::pair<chord::ChordId, PartitionDescriptor>> EntriesOldestFirst()
      const;

  /// \brief Observer invoked just before an LRU eviction removes an
  /// entry (the durable store logs the eviction through this seam).
  using EvictionListener =
      std::function<void(chord::ChordId, const PartitionDescriptor&)>;
  void set_eviction_listener(EvictionListener listener) {
    eviction_listener_ = std::move(listener);
  }

  size_t num_descriptors() const { return recency_.size(); }
  size_t num_buckets() const { return buckets_.size(); }
  size_t max_descriptors() const { return max_descriptors_; }
  uint64_t evictions() const { return evictions_; }

  /// All descriptors in bucket `id` (diagnostics/tests).
  std::vector<PartitionDescriptor> BucketContents(chord::ChordId id) const;

 private:
  struct Entry {
    chord::ChordId bucket;
    PartitionDescriptor descriptor;
  };
  using RecencyList = std::list<Entry>;

  void EvictIfNeeded();

  size_t max_descriptors_;
  uint64_t evictions_ = 0;
  EvictionListener eviction_listener_;
  // LRU order: front = most recent. Buckets point into the list.
  RecencyList recency_;
  std::unordered_map<chord::ChordId, std::vector<RecencyList::iterator>> buckets_;
};

}  // namespace p2prange

#endif  // P2PRANGE_STORE_BUCKET_STORE_H_
