// Configuration of the whole P2P range-selection system.
#ifndef P2PRANGE_CORE_CONFIG_H_
#define P2PRANGE_CORE_CONFIG_H_

#include <cstdint>

#include "core/adaptive_padding.h"
#include "core/fault_policy.h"
#include "hash/lsh.h"
#include "overlay/overlay.h"
#include "store/bucket_store.h"

namespace p2prange {

/// \brief All tunables of a RangeCacheSystem.
struct SystemConfig {
  /// Number of peers in the overlay.
  size_t num_peers = 100;

  /// LSH identifier scheme (paper: k=20, l=5, approx min-wise).
  LshParams lsh = LshParams{};

  /// Best-match criterion used inside a bucket (§5.2 / Figure 9).
  MatchCriterion criterion = MatchCriterion::kJaccard;

  /// Query padding fraction per edge (§5.2 / Figure 10); 0 disables.
  double padding = 0.0;

  /// §5.2 future work: adapt the padding fraction per column from
  /// observed recall instead of using the fixed `padding` value.
  bool adaptive_padding = false;
  AdaptivePaddingConfig adaptive;

  /// §5.3 extension: match against every bucket the probed peer holds
  /// (one pass over its store) instead of only the probed identifier's
  /// bucket.
  bool use_peer_index = false;

  /// The paper's protocol stores the queried partition at the l
  /// identifier owners when no exact match exists.
  bool cache_on_miss = true;

  /// When a range query's best cached match does not fully contain it,
  /// accept the partial (approximate) answer instead of fetching the
  /// remainder from the source (the paper's broad-query philosophy).
  bool accept_partial_answers = false;

  /// §6 extension: allow selections on several ordinal attributes of
  /// one relation. Each attribute's cache is probed; the leaf is served
  /// from a fully-covering partition of any attribute with the other
  /// predicates applied locally.
  bool multi_attribute = false;

  /// Extension: when no single cached partition covers the query,
  /// assemble the answer from several overlapping partitions that
  /// jointly do (greedy interval cover, at most max_coverage_pieces).
  bool assemble_coverage = false;
  size_t max_coverage_pieces = 8;

  /// §6 extension: cache whole query results, addressed by the
  /// canonical plan text through the exact-match DHT path. Only
  /// complete (non-approximate) results are cached.
  bool cache_query_results = false;

  /// Robustness extension: each published descriptor is replicated at
  /// the identifier owner's first `descriptor_replication - 1`
  /// successors, so departures do not erase bucket contents (the new
  /// owner of the identifier slice already holds copies). 1 = the
  /// paper's behavior (owner only).
  int descriptor_replication = 1;

  /// Per-peer descriptor capacity; 0 = unbounded.
  size_t store_capacity = 0;

  /// Retry/backoff/timeout discipline for the system's own messages
  /// (descriptor stores, owner replies, data transfers). The Chord
  /// layer's routing retries stay under overlay.max_message_retries.
  FaultPolicy fault;

  /// Which routing substrate backs the system, and its tunables.
  /// Defaults to Chord (the paper's choice); CAN and Tapestry run the
  /// same §4 protocol unmodified through the overlay contract, over
  /// the same `overlay.latency` model.
  overlay::OverlayParams overlay;

  /// Master seed: peers, LSH keys, and query origins all derive from it.
  uint64_t seed = 1;
};

}  // namespace p2prange

#endif  // P2PRANGE_CORE_CONFIG_H_
