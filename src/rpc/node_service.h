// The server half of a deployable peer: one NodeService owns the
// peer's durable descriptor store and materialized partitions, and
// serves every message of the peer protocol (rpc/message.h) through
// one Handle() call, which the daemon plugs into a TcpServer and tests
// call directly.
//
// Ring membership is a static full view (RingView): every process is
// started with the same member list, each member's Chord identifier is
// the SHA-1 of its address, and an identifier's owner is its successor
// on the ring — the fully-converged routing state a long-running
// stabilized overlay reaches, the same steady state ChordRing::Make
// builds for the simulations.
#ifndef P2PRANGE_RPC_NODE_SERVICE_H_
#define P2PRANGE_RPC_NODE_SERVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chord/id.h"
#include "common/result.h"
#include "common/sync.h"
#include "net/address.h"
#include "rel/relation.h"
#include "rpc/message.h"
#include "rpc/ring_view.h"
#include "store/bucket_store.h"
#include "store/durable_store.h"

namespace p2prange {
namespace rpc {

class LiveMembership;  // rpc/membership.h

// --------------------------------------------------------------------------
// Protocol bodies
// --------------------------------------------------------------------------
//
// Shared by the service (decoding requests, encoding responses) and
// RingClient (the reverse), so the two halves cannot drift apart.

struct StoreDescriptorRequest {
  chord::ChordId bucket = 0;
  PartitionDescriptor descriptor;
};
std::string EncodeStoreDescriptorRequest(const StoreDescriptorRequest& req);
Result<StoreDescriptorRequest> DecodeStoreDescriptorRequest(
    std::string_view body);

struct ProbeBucketRequest {
  chord::ChordId bucket = 0;
  PartitionKey query;
  MatchCriterion criterion = MatchCriterion::kJaccard;
};
std::string EncodeProbeBucketRequest(const ProbeBucketRequest& req);
Result<ProbeBucketRequest> DecodeProbeBucketRequest(std::string_view body);

/// A probe's reply: the bucket's best same-column match, if any.
std::string EncodeProbeBucketResponse(const std::optional<MatchCandidate>& c);
Result<std::optional<MatchCandidate>> DecodeProbeBucketResponse(
    std::string_view body);

struct StorePartitionRequest {
  PartitionKey key;
  Relation tuples;
};
std::string EncodeStorePartitionRequest(const StorePartitionRequest& req);
Result<StorePartitionRequest> DecodeStorePartitionRequest(
    std::string_view body);

std::string EncodeFetchPartitionRequest(const PartitionKey& key);
Result<PartitionKey> DecodeFetchPartitionRequest(std::string_view body);

/// \brief A joiner's request for the descriptors of the identifier arc
/// (lo, hi] it is about to own (kPullBuckets).
struct PullBucketsRequest {
  chord::ChordId lo = 0;
  chord::ChordId hi = 0;
};
std::string EncodePullBucketsRequest(const PullBucketsRequest& req);
Result<PullBucketsRequest> DecodePullBucketsRequest(std::string_view body);

/// \brief A bulk descriptor transfer: re-replication pushes, graceful
/// handoff, and the kPullBuckets response all carry one of these.
struct HandoffBatch {
  std::vector<std::pair<chord::ChordId, PartitionDescriptor>> entries;
};
/// Most entries one batch may carry (senders chunk at this size; a
/// hostile count beyond it is rejected before any allocation).
inline constexpr size_t kMaxHandoffEntries = 65536;
std::string EncodeHandoffBatch(const HandoffBatch& batch);
Result<HandoffBatch> DecodeHandoffBatch(std::string_view body);

// --------------------------------------------------------------------------
// NodeService
// --------------------------------------------------------------------------

struct NodeServiceOptions {
  /// Descriptor-store capacity; 0 = unbounded.
  size_t store_capacity = 0;
  /// Directory for the WAL image and snapshot slots. Empty keeps
  /// durability in memory only (tests); non-empty persists every
  /// mutation so a restarted process recovers its descriptors.
  std::string wal_dir;
  /// Replicas per descriptor the ring runs with. Used for wrong-owner
  /// redirects: with live membership attached, a store/probe for a
  /// bucket whose replica set excludes this node is answered with a
  /// redirect to the real owner instead of being silently accepted.
  int descriptor_replication = 1;
};

/// \brief Counters of one node's service activity. Atomic because the
/// data-path handlers bump them from worker threads while the poll
/// thread reads them for metrics; read individual fields, the struct
/// itself is neither copyable nor a consistent snapshot.
struct NodeCounters {
  std::atomic<uint64_t> pings{0};
  std::atomic<uint64_t> descriptors_stored{0};
  std::atomic<uint64_t> probes_served{0};
  std::atomic<uint64_t> probe_hits{0};
  std::atomic<uint64_t> partitions_stored{0};
  std::atomic<uint64_t> partitions_fetched{0};
  std::atomic<uint64_t> bad_requests{0};
  std::atomic<uint64_t> handoffs_received{0};    ///< kHandoff batches applied
  std::atomic<uint64_t> handoff_descriptors{0};  ///< descriptors those held
  std::atomic<uint64_t> buckets_pulled{0};       ///< kPullBuckets served
  std::atomic<uint64_t> redirects_sent{0};       ///< wrong-owner answers
  std::atomic<uint64_t> multi_ops{0};            ///< kMultiOp batches served
};

class NodeService {
 public:
  /// Creates the service; when options.wal_dir holds a previous
  /// incarnation's images, the store is recovered from them (see
  /// recovery()).
  static Result<std::unique_ptr<NodeService>> Make(const NetAddress& self,
                                                   NodeServiceOptions options);

  NodeService(const NodeService&) = delete;
  NodeService& operator=(const NodeService&) = delete;

  /// The protocol handler: plug into a TcpServer.
  Result<std::string> Handle(MsgType type, std::string_view body)
      EXCLUDES(data_mu_, ring_mu_);

  /// Attaches live membership: its handlers serve the membership
  /// messages, and its alive ring drives wrong-owner redirects (this
  /// publishes the first snapshot, see PublishRedirectRing). Without
  /// one (static deployments, tests) membership messages are answered
  /// NotImplemented and no redirects are ever sent. The object must
  /// outlive this service.
  void set_membership(LiveMembership* membership) EXCLUDES(ring_mu_) {
    membership_ = membership;
    PublishRedirectRing();
  }

  /// \brief Publishes an immutable snapshot of the alive ring, the only
  /// input of the redirect decision. LiveMembership belongs to the poll
  /// thread, so the daemon calls this from that thread on every loop
  /// iteration; a handler, inline or on a worker, never touches
  /// membership, and its redirects lag the view by at most one
  /// iteration.
  void PublishRedirectRing() EXCLUDES(ring_mu_);

  /// \brief Stores one descriptor durably (insert + WAL/snapshot
  /// flush) — the local half of every descriptor-bearing message, also
  /// used directly by the re-replicator.
  Status InsertDescriptor(chord::ChordId bucket,
                          const PartitionDescriptor& descriptor)
      EXCLUDES(data_mu_);

  /// \brief Applies one handoff batch durably (all inserts, then a
  /// single flush) and returns how many descriptors it held. Serves
  /// kHandoff and the re-replicator's pull path.
  Result<size_t> ApplyHandoff(const HandoffBatch& batch) EXCLUDES(data_mu_);

  /// Single-line JSON `{"node":{...}}`: this node's counters and store
  /// gauges. `extra` is spliced in after the node block as further
  /// top-level sections (either empty or a ",\"key\":..." fragment);
  /// the daemon passes its transport, membership, re-replication and
  /// executor sections.
  std::string MetricsJson(std::string_view extra = {}) const
      EXCLUDES(data_mu_);

  const NetAddress& self() const { return self_; }
  chord::ChordId id() const { return id_; }
  const NodeCounters& counters() const { return counters_; }

  /// A locked snapshot of every (bucket, descriptor), oldest first —
  /// for the poll-thread maintenance paths (re-replication sweeps,
  /// graceful handoff) that enumerate the store while workers insert.
  std::vector<std::pair<chord::ChordId, PartitionDescriptor>> SnapshotEntries()
      const EXCLUDES(data_mu_) {
    ReaderMutexLock lock(&data_mu_);
    return store_->store().EntriesOldestFirst();
  }
  /// What startup recovery rebuilt (zeros when wal_dir was empty/new).
  const store::RecoveryReport& recovery() const { return recovery_; }

 private:
  NodeService(const NetAddress& self, NodeServiceOptions options);

  Result<std::string> HandleStoreDescriptor(std::string_view body);
  Result<std::string> HandleProbeBucket(std::string_view body);
  Result<std::string> HandleStorePartition(std::string_view body);
  Result<std::string> HandleFetchPartition(std::string_view body);
  Result<std::string> HandleMembership(MsgType type, std::string_view body);
  Result<std::string> HandlePullBuckets(std::string_view body);
  Result<std::string> HandleHandoff(std::string_view body);
  Result<std::string> HandleMultiOp(std::string_view body);

  /// The redirect decision, from the published snapshot: with >1 alive
  /// member, returns the bucket's owner when this node is not among
  /// its replicas (nullopt = serve locally).
  std::optional<NetAddress> RedirectFor(chord::ChordId bucket) const
      EXCLUDES(ring_mu_);

  /// Loads WAL + snapshot images from wal_dir (missing files = fresh).
  /// Takes data_mu_ exclusively: it runs before any worker exists, but
  /// it mutates the store and flushes, so it holds the same lock those
  /// operations always require — the annotation gate allows no
  /// "too early to race" exceptions.
  Status LoadDurable() EXCLUDES(data_mu_);
  /// Writes the images to wal_dir after a mutation: first each snapshot
  /// slot a checkpoint replaced since the slot's last successful write
  /// (one slot after one checkpoint; both after two, or after a failed
  /// write), then the WAL. A checkpoint empties the log, so wal.bin
  /// first would, on a crash or failed write before the slots, lose
  /// every insert acknowledged since the previous checkpoint.
  Status SaveDurable() REQUIRES(data_mu_);

  NetAddress self_;
  chord::ChordId id_;
  NodeServiceOptions options_;
  LiveMembership* membership_ = nullptr;
  std::unique_ptr<store::DurableDescriptorStore> store_ GUARDED_BY(data_mu_);
  /// Per slot, store_->snapshots().writes(i) when SaveDurable last
  /// wrote its file; the files LoadDurable read count as written.
  std::array<uint64_t, store::SnapshotStore::kNumSlots> flushed_slot_writes_
      GUARDED_BY(data_mu_) = {};
  std::unordered_map<PartitionKey, Relation, PartitionKeyHash> partitions_
      GUARDED_BY(data_mu_);
  NodeCounters counters_;
  store::RecoveryReport recovery_;

  /// Guards store_ + partitions_ against concurrent data-path
  /// handlers: shared for the read-heavy probe/fetch side, exclusive
  /// for inserts and the durable flush that follows them. Membership
  /// handlers never take it (they touch neither).
  mutable SharedMutex data_mu_{lock_rank::kNodeData};

  /// The published redirect snapshot (see PublishRedirectRing);
  /// nullptr while fewer than two members are alive. ring_mu_ guards
  /// the pointer swap only — the pointee is immutable.
  mutable Mutex ring_mu_{lock_rank::kRedirectRing};
  std::shared_ptr<const RingView> redirect_ring_ GUARDED_BY(ring_mu_);
};

}  // namespace rpc
}  // namespace p2prange

#endif  // P2PRANGE_RPC_NODE_SERVICE_H_
