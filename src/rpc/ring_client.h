// The caller half of a deployable peer: publishes partitions into a
// live ring and runs the paper's §4 range lookup against it.
//
// Mirrors the simulator's RangeCacheSystem protocol step for step so
// live answers are comparable to simulated ones: the same LSH scheme
// maps a range to l identifiers, each identifier's bucket is probed at
// its owner, per-probe best matches are deduplicated and ranked by
// (similarity desc, exact tie-break). Probes are pipelined over the
// call-id multiplexing of TcpTransport — all l requests go out before
// the first response is awaited — and probes whose buckets share an
// owner coalesce into a single kMultiOp round trip (small rings put
// several of the l identifiers on the same peer).
//
// Fault handling wires the existing FaultPolicy into the real network:
// an IOError (deadline missed, stream corrupted) is retried with
// jittered exponential backoff — FaultPolicy.backoff_jitter spreads the
// retry instants so synchronized clients do not stampede a recovering
// peer — under an optional per-operation budget
// (FaultPolicy.op_budget_ms), and counted as a retransmission;
// Unavailable (the peer is gone) fails over to the next replica of the
// bucket.
//
// Against a membership-enabled ring (DESIGN.md §9) the client's view is
// dynamic: a wrong-owner redirect teaches it the member it was missing,
// and when every replica of a bucket fails it refreshes the whole view
// from any reachable member's gossip before giving up on the probe.
// Static rings answer the refresh with NotImplemented, which degrades
// to exactly the old fixed-view behavior.
#ifndef P2PRANGE_RPC_RING_CLIENT_H_
#define P2PRANGE_RPC_RING_CLIENT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/fault_policy.h"
#include "hash/lsh.h"
#include "rel/relation.h"
#include "rpc/node_service.h"
#include "rpc/tcp_transport.h"
#include "store/bucket_store.h"

namespace p2prange {
namespace rpc {

struct RingClientOptions {
  /// Must match every node's publisher: identifiers are only
  /// comparable under one scheme.
  LshParams lsh;
  MatchCriterion criterion = MatchCriterion::kJaccard;
  /// Retry discipline for transient failures (only IOError retries,
  /// as everywhere else in the system).
  FaultPolicy fault;
  /// Per-call deadline on the wire.
  double deadline_ms = 1000.0;
  /// Replicas per descriptor (owner + successors), as in the sim.
  int descriptor_replication = 1;
  /// Coalesce first-wave probes that share an owner into one kMultiOp
  /// round trip instead of one frame each. Off forces the one-frame-
  /// per-probe wire behavior (ablation baselines, old-server rings);
  /// on, a batch the server rejects wholesale degrades to the per-
  /// replica fallback path, so correctness never depends on it.
  bool batch_probes = true;
  TcpTransport::Options transport;
};

/// \brief Outcome of one live range lookup.
struct LiveLookupOutcome {
  std::vector<uint32_t> identifiers;     ///< the l probed bucket ids
  std::vector<MatchCandidate> ranked;    ///< deduped, best first
  int probes_failed = 0;                 ///< groups with no reachable replica
  int failovers = 0;                     ///< probes answered by a successor
  int redirects = 0;                     ///< wrong-owner redirects followed
  int view_refreshes = 0;                ///< gossip view pulls performed
  int batched_probes = 0;                ///< probes that rode a kMultiOp
  /// Wall clock the lookup spent per probe, summed — every path
  /// counts: the first-wave wait, retries and their backoff, failover,
  /// redirects, and the view refresh.
  double latency_ms = 0.0;
};

class RingClient {
 public:
  static Result<std::unique_ptr<RingClient>> Make(
      const std::vector<NetAddress>& members, RingClientOptions options);

  RingClient(const RingClient&) = delete;
  RingClient& operator=(const RingClient&) = delete;

  /// \brief What one Publish did, for tests and observability.
  struct PublishStats {
    int buckets = 0;        ///< identifiers the key published into
    int copies_stored = 0;  ///< distinct addresses holding a copy, summed
    int redirects = 0;      ///< wrong-owner redirects followed
  };

  /// \brief Publishes `key`'s descriptor (holder = `holder`) into the
  /// bucket of each of its l identifiers, at every replica. Fails only
  /// if some bucket could not be stored anywhere. A replica that
  /// redirects to an address already holding the bucket adds no copy:
  /// copies are counted per distinct address.
  Status Publish(const PartitionKey& key, const NetAddress& holder,
                 PublishStats* stats = nullptr);

  /// Materializes `tuples` at `holder` (the bytes the descriptors
  /// point at).
  Status StorePartition(const PartitionKey& key, const Relation& tuples,
                        const NetAddress& holder);

  /// Fetches a materialized partition back from its holder.
  Result<Relation> FetchPartition(const PartitionKey& key,
                                  const NetAddress& holder);

  /// \brief The §4 range lookup against the live ring (see file
  /// comment). Degrades like the simulator: failed probes shrink the
  /// fan-out; the outcome reports how many.
  Result<LiveLookupOutcome> Lookup(const PartitionKey& query);

  /// \brief Replaces the routing view with the alive members of any
  /// reachable peer's gossip view. Fails (without touching the view)
  /// when no member answers or the ring is static (NotImplemented).
  Status RefreshView();

  /// Adds one member to the routing view (from a wrong-owner
  /// redirect); no-op if already present or its identifier collides.
  void LearnMember(const NetAddress& addr);

  /// One liveness round trip (also the readiness check for harnesses).
  Result<double> Ping(const NetAddress& node);

  /// A node's single-line metrics JSON.
  Result<std::string> NodeMetrics(const NetAddress& node);

  const RingView& view() const { return view_; }
  TcpTransport& transport() { return transport_; }
  const LshScheme& lsh() const { return *lsh_; }

 private:
  RingClient(RingView view, LshScheme lsh, RingClientOptions options);

  /// One call with the FaultPolicy retry loop: IOError retries with
  /// jittered backoff (counted as retransmits) while the per-operation
  /// budget lasts, anything else returns at once.
  Result<std::string> CallWithPolicy(const NetAddress& to, MsgType type,
                                     const std::string& body);

  RingView view_;
  std::unique_ptr<LshScheme> lsh_;
  RingClientOptions options_;
  TcpTransport transport_;
  Rng retry_rng_;
};

}  // namespace rpc
}  // namespace p2prange

#endif  // P2PRANGE_RPC_RING_CLIENT_H_
