// Running counters of the RangeCacheSystem.
#ifndef P2PRANGE_CORE_METRICS_H_
#define P2PRANGE_CORE_METRICS_H_

#include <cstdint>
#include <string>

namespace p2prange {

/// \brief System-wide counters; all costs are simulated.
struct SystemMetrics {
  uint64_t range_lookups = 0;   ///< §4 protocol invocations
  uint64_t exact_hits = 0;      ///< best reply was the identical range
  uint64_t approx_hits = 0;     ///< best reply overlapped but was not exact
  uint64_t misses = 0;          ///< no same-column descriptor found

  uint64_t partitions_published = 0;  ///< distinct (range, l-ids) publishes
  uint64_t descriptors_stored = 0;    ///< descriptor insertions at peers

  uint64_t eq_lookups = 0;
  uint64_t eq_hits = 0;

  uint64_t result_cache_lookups = 0;  ///< whole-query result probes
  uint64_t result_cache_hits = 0;

  uint64_t coverage_assemblies = 0;  ///< leaves served by multiple partitions

  uint64_t source_fetches = 0;  ///< leaf answered from the base relation
  uint64_t cache_fetches = 0;   ///< leaf answered from a cached partition

  uint64_t bytes_from_source = 0;  ///< payload bytes shipped by the source
  uint64_t bytes_from_cache = 0;   ///< payload bytes shipped by peer caches

  uint64_t chord_hops = 0;      ///< overlay routing messages for lookups
  double latency_ms = 0.0;      ///< simulated latency across all traffic

  // --- Fault-tolerance counters: every degradation is observable ----

  uint64_t retransmissions = 0;    ///< system messages resent after loss
  double backoff_latency_ms = 0.0; ///< latency charged waiting between retries
  uint64_t probes_failed = 0;      ///< identifier probes with no reachable replica
  uint64_t probe_failovers = 0;    ///< probes answered by an owner's successor
  uint64_t degraded_lookups = 0;   ///< lookups that lost >= 1 of their l probes
  uint64_t stale_evictions = 0;    ///< descriptors lazily evicted (dead holder)
  uint64_t source_fallbacks = 0;   ///< leaves sent to the source after a cache
                                   ///< match failed (stale/unreachable holder)
  uint64_t budget_exhausted = 0;   ///< operations cut short by op_budget_ms

  // --- Durability / crash-recovery counters -------------------------

  uint64_t peer_crashes = 0;      ///< CrashPeer calls (volatile state wiped)
  uint64_t peer_recoveries = 0;   ///< RecoverPeer calls that replayed storage
  uint64_t wal_records_replayed = 0;     ///< log records applied on recovery
  uint64_t recoveries_torn_tail = 0;     ///< recoveries that truncated a torn log
  uint64_t recoveries_wal_corrupted = 0; ///< recoveries that voided a rotted log
  uint64_t recovery_descriptors_restored = 0;  ///< descriptors back via replay
  uint64_t recovery_descriptors_repaired = 0;  ///< descriptors re-pulled from
                                               ///< live replicas post-recovery

  std::string ToString() const;
};

}  // namespace p2prange

#endif  // P2PRANGE_CORE_METRICS_H_
