// Descriptor re-replication on membership change (DESIGN.md §9).
//
// Consumes LiveMembership's view-change events and keeps every
// descriptor's replica set equal to what the *current* alive ring
// prescribes: when a member joins, the descriptors of arcs it now
// serves are pushed to it; when a member dies or leaves, the surviving
// replicas push the orphaned arcs to the promoted successors. Both
// directions ride the same kHandoff bulk message, applied durably at
// the receiver (DurableStore insert + flush), so a subsequent crash of
// the new replica still recovers the handed-off descriptors.
//
// Transfers are planned as per-destination jobs and drained one job
// per Tick() with a short deadline, so the daemon's poll loop stays
// responsive under churn; failed jobs retry a bounded number of times
// (the next view change replans anyway).
//
// The joiner's side of the protocol is PullPartition(): after a
// successful Join, the new member pulls the (predecessor, self] arc it
// now owns from its successor (kPullBuckets) instead of waiting for
// the push sweep to find it.
#ifndef P2PRANGE_RPC_REREPLICATE_H_
#define P2PRANGE_RPC_REREPLICATE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/address.h"
#include "rpc/membership.h"
#include "rpc/node_service.h"
#include "rpc/tcp_transport.h"

namespace p2prange {
namespace rpc {

struct RereplicateConfig {
  /// Replicas per descriptor the ring runs with (owner + successors).
  int replication = 2;
  /// Wall-clock budget of one HandoffAll() drain. The graceful-leave
  /// path runs while SIGTERM is being serviced: if the successor is
  /// unreachable, the drain must give up and let the exit proceed —
  /// the WAL still holds everything, and the survivors' failure
  /// detector replans the arcs. 0 disables the bound.
  double handoff_deadline_ms = 5000.0;

  Status Validate() const {
    if (replication < 1) {
      return Status::InvalidArgument("replication must be >= 1");
    }
    if (handoff_deadline_ms < 0.0) {
      return Status::InvalidArgument("handoff_deadline_ms must be >= 0");
    }
    return Status::OK();
  }
};

struct RereplicateCounters {
  uint64_t sweeps = 0;              ///< view changes planned for
  uint64_t jobs_planned = 0;        ///< per-destination batches queued
  uint64_t batches_sent = 0;        ///< kHandoff pushes acknowledged
  uint64_t descriptors_pushed = 0;  ///< descriptors those pushes held
  uint64_t push_failures = 0;       ///< failed attempts (incl. retries)
  uint64_t jobs_dropped = 0;        ///< jobs that ran out of attempts
  uint64_t descriptors_pulled = 0;  ///< via PullPartition

  std::string ToJson() const;
};

class Rereplicator {
 public:
  /// All pointers must outlive this object.
  static Result<Rereplicator> Make(NodeService* service,
                                   LiveMembership* membership,
                                   TcpTransport* transport,
                                   RereplicateConfig config);

  Rereplicator(Rereplicator&&) = default;
  Rereplicator(const Rereplicator&) = delete;
  Rereplicator& operator=(const Rereplicator&) = delete;
  Rereplicator& operator=(Rereplicator&&) = delete;

  /// Drains pending membership changes into transfer jobs and sends at
  /// most one job (bounded work per event-loop iteration).
  void Tick();

  /// Joiner bootstrap: pulls the (predecessor, self] arc from the
  /// successor into the local durable store.
  Status PullPartition();

  /// Graceful-leave handoff: pushes every local descriptor to the
  /// successor (all batches, synchronously — the process is exiting).
  /// Bounded by handoff_deadline_ms of wall clock: an unreachable
  /// successor aborts the drain instead of stalling the SIGTERM path.
  Status HandoffAll();

  bool idle() const { return jobs_.empty(); }
  const RereplicateCounters& counters() const { return counters_; }

 private:
  struct Job {
    NetAddress to;
    HandoffBatch batch;
    int attempts = 0;
  };

  Rereplicator(NodeService* service, LiveMembership* membership,
               TcpTransport* transport, RereplicateConfig config)
      : service_(service),
        membership_(membership),
        transport_(transport),
        config_(config) {}

  /// Plans the pushes one view change requires: for every local
  /// descriptor whose replica set gained members not in the pre-change
  /// set, batch it toward the newcomers.
  void PlanSweep(const ViewChange& change);
  Status SendJob(Job& job, double deadline_ms);

  NodeService* service_;
  LiveMembership* membership_;
  TcpTransport* transport_;
  RereplicateConfig config_;
  std::deque<Job> jobs_;
  RereplicateCounters counters_;
};

}  // namespace rpc
}  // namespace p2prange

#endif  // P2PRANGE_RPC_REREPLICATE_H_
