#include "store/bucket_store.h"

#include <algorithm>

#include "common/logging.h"

namespace p2prange {

const char* MatchCriterionName(MatchCriterion c) {
  switch (c) {
    case MatchCriterion::kJaccard:
      return "jaccard";
    case MatchCriterion::kContainment:
      return "containment";
  }
  return "unknown";
}

void RankCandidates(std::vector<MatchCandidate>* candidates) {
  std::stable_sort(candidates->begin(), candidates->end(),
                   [](const MatchCandidate& a, const MatchCandidate& b) {
                     return Outranks(a.similarity, a.exact, b.similarity,
                                     b.exact);
                   });
}

void AddCandidateOnce(MatchCandidate candidate,
                      std::vector<MatchCandidate>* candidates) {
  for (const MatchCandidate& seen : *candidates) {
    if (seen.descriptor == candidate.descriptor) return;
  }
  candidates->push_back(std::move(candidate));
}

bool BucketStore::Insert(chord::ChordId id, const PartitionDescriptor& descriptor) {
  auto& bucket = buckets_[id];
  for (auto it : bucket) {
    if (it->descriptor.key == descriptor.key) {
      // Refresh: move to the front of the recency list, adopt the
      // (possibly new) holder.
      it->descriptor.holder = descriptor.holder;
      recency_.splice(recency_.begin(), recency_, it);
      return false;
    }
  }
  recency_.push_front(Entry{id, descriptor});
  bucket.push_back(recency_.begin());
  EvictIfNeeded();
  return true;
}

void BucketStore::EvictIfNeeded() {
  if (max_descriptors_ == 0) return;
  while (recency_.size() > max_descriptors_) {
    const Entry& victim = recency_.back();
    if (eviction_listener_) eviction_listener_(victim.bucket, victim.descriptor);
    auto bucket_it = buckets_.find(victim.bucket);
    DCHECK(bucket_it != buckets_.end());
    auto& vec = bucket_it->second;
    auto last = std::prev(recency_.end());
    std::erase_if(vec, [&](const RecencyList::iterator& it) { return it == last; });
    if (vec.empty()) buckets_.erase(bucket_it);
    recency_.pop_back();
    ++evictions_;
  }
}

size_t BucketStore::EraseStale(const PartitionKey& key, const NetAddress& holder) {
  size_t removed = 0;
  for (auto it = recency_.begin(); it != recency_.end();) {
    if (it->descriptor.key != key || !(it->descriptor.holder == holder)) {
      ++it;
      continue;
    }
    auto bucket_it = buckets_.find(it->bucket);
    DCHECK(bucket_it != buckets_.end());
    if (bucket_it != buckets_.end()) {
      auto& vec = bucket_it->second;
      std::erase_if(vec, [&](const RecencyList::iterator& e) { return e == it; });
      if (vec.empty()) buckets_.erase(bucket_it);
    }
    it = recency_.erase(it);
    ++removed;
  }
  return removed;
}

std::optional<MatchCandidate> BucketStore::BestMatch(chord::ChordId id,
                                                     const PartitionKey& query,
                                                     MatchCriterion criterion) const {
  auto it = buckets_.find(id);
  if (it == buckets_.end()) return std::nullopt;
  std::optional<MatchCandidate> best;
  for (const auto& entry_it : it->second) {
    const PartitionDescriptor& d = entry_it->descriptor;
    if (!d.key.SameColumn(query)) continue;
    const double score = ScoreMatch(query.range, d.key.range, criterion);
    const bool exact = d.key.range == query.range;
    if (!best || Outranks(score, exact, best->similarity, best->exact)) {
      best = MatchCandidate{d, score, exact};
    }
  }
  return best;
}

std::optional<MatchCandidate> BucketStore::BestMatchAnywhere(
    const PartitionKey& query, MatchCriterion criterion) const {
  // Only overlapping ranges score above zero under either criterion.
  // The walk is newest first, so the strict comparisons below leave an
  // equal range's newer holder in place.
  const auto packed = [](const Range& r) {
    return (static_cast<uint64_t>(r.lo()) << 32) | r.hi();
  };
  std::optional<MatchCandidate> best;
  const PartitionDescriptor* lowest = nullptr;  // zero-score fallback
  for (const Entry& entry : recency_) {
    const PartitionDescriptor& d = entry.descriptor;
    if (!d.key.SameColumn(query)) continue;
    if (!query.range.Overlaps(d.key.range)) {
      if (lowest == nullptr || packed(d.key.range) < packed(lowest->key.range)) {
        lowest = &d;
      }
      continue;
    }
    const double score = ScoreMatch(query.range, d.key.range, criterion);
    const bool exact = d.key.range == query.range;
    if (!best || Outranks(score, exact, best->similarity, best->exact) ||
        (!Outranks(best->similarity, best->exact, score, exact) &&
         packed(d.key.range) > packed(best->descriptor.key.range))) {
      best = MatchCandidate{d, score, exact};
    }
  }
  // Zero-similarity fallback: the §4 protocol still reports a
  // same-column partition when nothing overlaps.
  if (!best && lowest != nullptr) best = MatchCandidate{*lowest, 0.0, false};
  return best;
}

std::vector<MatchCandidate> BucketStore::OverlappingCandidates(
    chord::ChordId id, const PartitionKey& query, MatchCriterion criterion) const {
  std::vector<MatchCandidate> out;
  auto it = buckets_.find(id);
  if (it == buckets_.end()) return out;
  for (const auto& entry_it : it->second) {
    const PartitionDescriptor& d = entry_it->descriptor;
    if (!d.key.SameColumn(query)) continue;
    if (!query.range.Overlaps(d.key.range)) continue;
    out.push_back(MatchCandidate{d, ScoreMatch(query.range, d.key.range, criterion),
                                 d.key.range == query.range});
  }
  return out;
}

bool BucketStore::EraseOne(chord::ChordId id, const PartitionKey& key) {
  auto bucket_it = buckets_.find(id);
  if (bucket_it == buckets_.end()) return false;
  auto& vec = bucket_it->second;
  for (size_t i = 0; i < vec.size(); ++i) {
    RecencyList::iterator entry_it = vec[i];
    if (!(entry_it->descriptor.key == key)) continue;
    vec.erase(vec.begin() + static_cast<ptrdiff_t>(i));
    if (vec.empty()) buckets_.erase(bucket_it);
    recency_.erase(entry_it);
    return true;
  }
  return false;
}

std::vector<std::pair<chord::ChordId, PartitionDescriptor>>
BucketStore::EntriesOldestFirst() const {
  std::vector<std::pair<chord::ChordId, PartitionDescriptor>> out;
  out.reserve(recency_.size());
  for (auto it = recency_.rbegin(); it != recency_.rend(); ++it) {
    out.emplace_back(it->bucket, it->descriptor);
  }
  return out;
}

bool BucketStore::ContainsExact(chord::ChordId id, const PartitionKey& key) const {
  auto it = buckets_.find(id);
  if (it == buckets_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [&](const RecencyList::iterator& e) {
                       return e->descriptor.key == key;
                     });
}

std::vector<PartitionDescriptor> BucketStore::BucketContents(chord::ChordId id) const {
  std::vector<PartitionDescriptor> out;
  auto it = buckets_.find(id);
  if (it == buckets_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& entry_it : it->second) out.push_back(entry_it->descriptor);
  return out;
}

}  // namespace p2prange
