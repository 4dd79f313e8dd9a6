#include "core/metrics.h"

namespace p2prange {

namespace {

/// Every counter with its export name, in one place: ToString walks
/// this list, so a new counter is exported by adding one row here.
struct Field {
  const char* name;
  uint64_t SystemMetrics::*value;
};

constexpr Field kCounters[] = {
    {"range_lookups", &SystemMetrics::range_lookups},
    {"exact_hits", &SystemMetrics::exact_hits},
    {"approx_hits", &SystemMetrics::approx_hits},
    {"misses", &SystemMetrics::misses},
    {"published", &SystemMetrics::partitions_published},
    {"descriptors", &SystemMetrics::descriptors_stored},
    {"eq_lookups", &SystemMetrics::eq_lookups},
    {"eq_hits", &SystemMetrics::eq_hits},
    {"result_cache_lookups", &SystemMetrics::result_cache_lookups},
    {"result_cache_hits", &SystemMetrics::result_cache_hits},
    {"coverage_assemblies", &SystemMetrics::coverage_assemblies},
    {"source_fetches", &SystemMetrics::source_fetches},
    {"cache_fetches", &SystemMetrics::cache_fetches},
    {"bytes_from_source", &SystemMetrics::bytes_from_source},
    {"bytes_from_cache", &SystemMetrics::bytes_from_cache},
    {"chord_hops", &SystemMetrics::chord_hops},
    {"retransmissions", &SystemMetrics::retransmissions},
    {"probes_failed", &SystemMetrics::probes_failed},
    {"probe_failovers", &SystemMetrics::probe_failovers},
    {"degraded_lookups", &SystemMetrics::degraded_lookups},
    {"stale_evictions", &SystemMetrics::stale_evictions},
    {"source_fallbacks", &SystemMetrics::source_fallbacks},
    {"budget_exhausted", &SystemMetrics::budget_exhausted},
    {"peer_crashes", &SystemMetrics::peer_crashes},
    {"peer_recoveries", &SystemMetrics::peer_recoveries},
    {"wal_records_replayed", &SystemMetrics::wal_records_replayed},
    {"recoveries_torn_tail", &SystemMetrics::recoveries_torn_tail},
    {"recoveries_wal_corrupted", &SystemMetrics::recoveries_wal_corrupted},
    {"recovery_descriptors_restored",
     &SystemMetrics::recovery_descriptors_restored},
    {"recovery_descriptors_repaired",
     &SystemMetrics::recovery_descriptors_repaired},
};

}  // namespace

std::string SystemMetrics::ToString() const {
  std::string out;
  for (const Field& f : kCounters) {
    if (!out.empty()) out += ' ';
    out += f.name;
    out += '=';
    out += std::to_string(this->*f.value);
  }
  return out;
}

}  // namespace p2prange
