// RangeCacheSystem — the paper's architecture, assembled.
//
// Peers form a Chord ring over a 32-bit identifier space. Horizontal
// partitions of relations are published under l LSH identifiers; a
// range-selection query hashes to the same l identifiers, routes to
// their owners, and takes the best cached match (§4). Full SQL
// execution (§2) resolves every leaf selection through this protocol
// (or through the exact-match path for equality predicates) and joins
// locally at the querying peer.
#ifndef P2PRANGE_CORE_SYSTEM_H_
#define P2PRANGE_CORE_SYSTEM_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "core/peer.h"
#include "hash/lsh.h"
#include "overlay/overlay.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/plan.h"
#include "rel/catalog.h"
#include "store/bucket_store.h"

namespace p2prange {

/// \brief The best cached partition found for a range query.
struct RangeMatch {
  PartitionKey matched;
  NetAddress holder;
  /// Score under the system's match criterion against the effective
  /// (possibly padded) query.
  double score = 0.0;
  /// Jaccard similarity against the *original* query range — the §5.1
  /// quality metric (Figures 6-7).
  double jaccard = 0.0;
  /// |Q ∩ R| / |Q| against the original query — the §5.2 recall
  /// metric (Figures 8-10).
  double recall = 0.0;
  /// The stored range equals the effective query range.
  bool exact = false;
};

/// \brief Result of one §4 range-lookup protocol run.
struct RangeLookupOutcome {
  Range query;             ///< as asked
  Range effective_query;   ///< after padding (== query when padding=0)
  std::vector<uint32_t> identifiers;  ///< the l LSH identifiers probed
  std::optional<RangeMatch> match;
  int hops = 0;            ///< Chord routing messages
  double latency_ms = 0.0;
  int peers_contacted = 0; ///< distinct identifier owners probed
  /// With SystemConfig::assemble_coverage: cached partitions jointly
  /// covering the (original) query and their combined coverage.
  std::vector<PartitionDescriptor> coverage_pieces;
  double coverage_recall = 0.0;

  // --- Fault-tolerance bookkeeping (how degraded this lookup was) ----

  /// Identifier probes whose owner (and every replica) was unreachable;
  /// their buckets contributed nothing to the answer.
  int probes_failed = 0;
  /// Probes answered by one of the owner's successors after the owner
  /// itself was unreachable (descriptor_replication > 1).
  int failovers = 0;
  /// True when the fan-out lost at least one probe or was cut short by
  /// FaultPolicy::op_budget_ms — the answer may be worse than a healthy
  /// ring would have produced.
  bool degraded = false;
  /// Every distinct candidate collected from the owners that answered,
  /// best first (`match` duplicates the front). The fetch stage walks
  /// this list when a holder turns out to be dead.
  std::vector<RangeMatch> ranked;
  /// Distinct peers whose buckets were probed (owners and failover
  /// replicas) — the peers to repair when a descriptor proves stale.
  std::vector<NetAddress> probed_owners;
};

/// \brief How one plan leaf was answered.
struct LeafOutcome {
  std::string table;
  bool used_cache = false;
  bool from_source = false;
  /// Range-level recall of the data this leaf was answered from.
  double recall = 1.0;
  std::optional<RangeLookupOutcome> lookup;
};

/// \brief Result of a full SQL query.
struct QueryOutcome {
  Relation result;
  std::vector<LeafOutcome> leaves;
  int total_hops = 0;
  double total_latency_ms = 0.0;
  /// True if some leaf was answered from a partial cached match, i.e.
  /// the result may be missing tuples (never contains wrong ones).
  bool approximate = false;
  /// True if the whole result came from the query-result cache
  /// (SystemConfig::cache_query_results); `leaves` is then empty.
  bool from_result_cache = false;
};

/// \brief The peer-to-peer data sharing system of the paper.
class RangeCacheSystem {
 public:
  /// Builds the overlay and installs `catalog` as the global schema;
  /// the first peer acts as the data source for its base relations.
  static Result<RangeCacheSystem> Make(const SystemConfig& config, Catalog catalog);

  RangeCacheSystem(RangeCacheSystem&&) noexcept = default;
  RangeCacheSystem& operator=(RangeCacheSystem&&) noexcept = default;

  // --- The §4 range-lookup protocol -----------------------------------

  /// Runs the protocol from a uniformly random peer.
  Result<RangeLookupOutcome> LookupRange(const PartitionKey& query);

  /// Runs the protocol from `origin`: hash to l identifiers, locate
  /// their owners via Chord, collect each owner's best bucket match,
  /// pick the overall best; on a non-exact outcome publish the
  /// (effective) query partition at those owners with `origin` as the
  /// holder (the paper's cache-on-miss rule).
  Result<RangeLookupOutcome> LookupRangeFrom(const NetAddress& origin,
                                             const PartitionKey& query);

  /// Publishes descriptors for `key` (holder = `holder`) under its l
  /// identifiers, without running a lookup.
  Status PublishPartition(const PartitionKey& key, const NetAddress& holder);

  /// Fetches `key`'s tuples from the source relation and materializes
  /// them at `holder`.
  Status MaterializePartition(const PartitionKey& key, const NetAddress& holder);

  // --- Full SQL (§2) ----------------------------------------------------

  /// Parses, plans (selection pushdown), answers every leaf through
  /// the P2P caches (or the source), joins locally, projects.
  Result<QueryOutcome> ExecuteQuery(const std::string& sql);
  Result<QueryOutcome> ExecuteQueryFrom(const NetAddress& client,
                                        const std::string& sql);

  // --- Membership (churn) ------------------------------------------------

  /// A new peer joins the overlay (Chord join + stabilization at the
  /// ring layer) and starts with an empty store.
  Result<NetAddress> AddPeer();

  /// A peer departs. `graceful` uses the Chord leave protocol;
  /// otherwise the peer fails abruptly. Its cached descriptors and
  /// materialized partitions are lost either way (the §4 protocol
  /// re-publishes on later misses). The source peer cannot leave.
  Status RemovePeer(const NetAddress& addr, bool graceful = true);

  /// Abrupt crash: `addr` becomes unreachable without handoff or
  /// detection, and its volatile state (descriptor store, materialized
  /// partitions, equality index) is lost. Its durable images — the WAL
  /// and checkpoint snapshots, when SystemConfig::durability is on —
  /// survive for a later RecoverPeer. Descriptors pointing at it go
  /// stale until lazily repaired. The source peer cannot crash.
  Status CrashPeer(const NetAddress& addr);

  /// A crashed peer comes back: it replays its checkpoint + WAL to
  /// rebuild the descriptor store (truncating a torn log tail; falling
  /// back to the last good checkpoint on mid-log corruption),
  /// re-bootstraps its routing, and — with descriptor_replication > 1 —
  /// pulls descriptors the replay lost back from live replicas.
  Status RecoverPeer(const NetAddress& addr);

  /// Fault-injection hook: invoked at protocol step boundaries
  /// ("probe" before each identifier probe, "failover" before a replica
  /// probe, "fetch" before fetching a matched partition) so a harness
  /// can crash or recover peers *during* a query. The hook must not
  /// call back into query execution. Empty function disables.
  using StepHook = std::function<void(const char* stage)>;
  void set_step_hook(StepHook hook) { step_hook_ = std::move(hook); }

  // --- Introspection ---------------------------------------------------

  const SystemMetrics& metrics() const { return metrics_; }
  void ResetMetrics() { metrics_ = SystemMetrics{}; }

  /// The routing substrate behind the system (Chord by default; CAN or
  /// Tapestry via SystemConfig::overlay).
  overlay::Overlay& overlay() { return *overlay_; }
  const overlay::Overlay& overlay() const { return *overlay_; }

  const Catalog& catalog() const { return catalog_; }
  const LshScheme& lsh() const { return *lsh_; }
  const SystemConfig& config() const { return config_; }

  Peer* peer(const NetAddress& addr);
  const Peer* peer(const NetAddress& addr) const;

  /// The adaptive-padding state (meaningful when
  /// config().adaptive_padding is set).
  const AdaptivePaddingController& padding_controller() const {
    return padding_controller_;
  }

  /// Address of the data-source peer.
  const NetAddress& source_address() const { return source_; }

  /// Number of stored descriptors per peer, in ring order — the
  /// Figure 11 load metric.
  std::vector<size_t> DescriptorCountsPerPeer() const;

 private:
  RangeCacheSystem(const SystemConfig& config, Catalog catalog);

  /// Latency a single top-level operation has accumulated, checked
  /// against FaultPolicy::op_budget_ms.
  struct OpBudget {
    double spent_ms = 0.0;
    bool exhausted = false;
  };

  /// Delivers one system message under the FaultPolicy: retransmits
  /// transit losses with exponential backoff (jittered, charged as
  /// latency), fails fast on a dead peer, and abandons retries once
  /// `budget` (optional) is exhausted. Returns the total latency of
  /// all attempts including backoff waits.
  Result<double> DeliverWithPolicy(const NetAddress& from, const NetAddress& to,
                                   uint64_t payload_bytes, OpBudget* budget);

  /// True (and counts the exhaustion once) when `budget` has spent the
  /// policy's op budget.
  bool BudgetExhausted(OpBudget* budget);

  /// The attribute-domain for a partition key (for padding bounds and
  /// decoding).
  Result<AttributeDomain> DomainFor(const PartitionKey& key) const;

  /// Applies the configured padding to `r`, clamped to the encoded
  /// domain width.
  Result<Range> EffectiveRange(const PartitionKey& key) const;

  /// Answers one plan leaf, filling `outcome` and inserting the leaf's
  /// input relation into `inputs`.
  Status AnswerLeaf(const NetAddress& client, const TableSelection& leaf,
                    std::map<std::string, Relation>* inputs, LeafOutcome* outcome);

  /// Ships `payload` from `server` to `client`, charging its wire
  /// size; attributes the bytes to source or cache traffic.
  Status TransferData(const NetAddress& client, const NetAddress& server,
                      const Relation& payload, bool from_source);

  /// Fetches every coverage piece's tuples from its holder and merges
  /// them (deduplicated). nullopt when some holder lacks the data.
  Result<std::optional<Relation>> FetchCoverage(
      const NetAddress& client, const std::vector<PartitionDescriptor>& pieces);

  /// Stores a descriptor at identifier `id`'s owner and, with
  /// descriptor_replication > 1, at the owner's next live successors.
  void StoreReplicated(chord::ChordId id, const PartitionDescriptor& descriptor,
                       const NetAddress& from, double* latency_acc);

  /// Post-recovery anti-entropy: the freshly recovered peer at `addr`
  /// pulls descriptors for buckets it owns from its live successor
  /// replicas, restoring what WAL replay could not.
  void RepairRecoveredPeerFromReplicas(const NetAddress& addr);

  SystemConfig config_;
  Catalog catalog_;
  AdaptivePaddingController padding_controller_;
  std::unique_ptr<overlay::Overlay> overlay_;
  std::unique_ptr<LshScheme> lsh_;
  std::unordered_map<NetAddress, std::unique_ptr<Peer>, NetAddressHash> peers_;
  NetAddress source_;
  SystemMetrics metrics_;
  Rng rng_;  ///< backoff jitter (deterministic from config.seed)
  StepHook step_hook_;
  /// Reused buffer for batched LSH signature evaluation on the publish
  /// path (the lookup path writes into its outcome's vector directly).
  std::vector<uint32_t> identifier_scratch_;
};

}  // namespace p2prange

#endif  // P2PRANGE_CORE_SYSTEM_H_
