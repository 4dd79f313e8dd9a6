#include "rpc/rereplicate.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

namespace p2prange {
namespace rpc {

namespace {

/// Descriptors per kHandoff message; bounds frame sizes under churn.
constexpr size_t kBatchEntries = 512;
/// Wire deadline of one push/pull call.
constexpr double kCallDeadlineMs = 500.0;
/// Attempts per job before it is dropped (a later view change will
/// replan anything still missing).
constexpr int kMaxAttempts = 3;

bool Contains(const std::vector<NetAddress>& v, const NetAddress& a) {
  return std::find(v.begin(), v.end(), a) != v.end();
}

}  // namespace

std::string RereplicateCounters::ToJson() const {
  std::string out = "{";
  out += "\"sweeps\":" + std::to_string(sweeps);
  out += ",\"jobs_planned\":" + std::to_string(jobs_planned);
  out += ",\"batches_sent\":" + std::to_string(batches_sent);
  out += ",\"descriptors_pushed\":" + std::to_string(descriptors_pushed);
  out += ",\"push_failures\":" + std::to_string(push_failures);
  out += ",\"jobs_dropped\":" + std::to_string(jobs_dropped);
  out += ",\"descriptors_pulled\":" + std::to_string(descriptors_pulled);
  out += "}";
  return out;
}

Result<Rereplicator> Rereplicator::Make(NodeService* service,
                                        LiveMembership* membership,
                                        TcpTransport* transport,
                                        RereplicateConfig config) {
  RETURN_NOT_OK(config.Validate());
  if (service == nullptr || membership == nullptr || transport == nullptr) {
    return Status::InvalidArgument(
        "re-replication needs a service, membership, and transport");
  }
  return Rereplicator(service, membership, transport, config);
}

void Rereplicator::PlanSweep(const ViewChange& change) {
  ++counters_.sweeps;
  // The membership table already reflects the change; reconstruct the
  // pre-change alive set by toggling the changed address.
  std::vector<NetAddress> now = membership_->AliveAddresses();
  std::vector<NetAddress> before = now;
  if (change.is_alive) {
    std::erase(before, change.addr);
  } else if (!Contains(before, change.addr)) {
    before.push_back(change.addr);
  }
  if (before.empty()) return;
  const auto old_ring = RingView::Make(before);
  const auto new_ring = RingView::Make(now);
  if (!old_ring.ok() || !new_ring.ok()) return;

  const NetAddress self = membership_->self();
  std::unordered_map<NetAddress, HandoffBatch, NetAddressHash> per_dest;
  for (const auto& [bucket, descriptor] : service_->SnapshotEntries()) {
    const auto old_reps = old_ring->Replicas(bucket, config_.replication);
    const auto new_reps = new_ring->Replicas(bucket, config_.replication);
    // Only the bucket's previous or current replicas push it; a node
    // merely caching a stale copy stays out of the repair traffic.
    if (!Contains(old_reps, self) && !Contains(new_reps, self)) continue;
    for (const NetAddress& dest : new_reps) {
      if (dest == self || Contains(old_reps, dest)) continue;
      per_dest[dest].entries.emplace_back(bucket, descriptor);
    }
  }

  for (auto& [dest, batch] : per_dest) {
    for (size_t off = 0; off < batch.entries.size(); off += kBatchEntries) {
      Job job;
      job.to = dest;
      const size_t end = std::min(off + kBatchEntries, batch.entries.size());
      job.batch.entries.assign(batch.entries.begin() + static_cast<long>(off),
                               batch.entries.begin() + static_cast<long>(end));
      jobs_.push_back(std::move(job));
      ++counters_.jobs_planned;
    }
  }
}

Status Rereplicator::SendJob(Job& job, double deadline_ms) {
  TcpTransport::CallOptions call_options;
  call_options.deadline_ms = deadline_ms;
  ASSIGN_OR_RETURN(TcpTransport::CallResult result,
                   transport_->Call(job.to, MsgType::kHandoff,
                                    EncodeHandoffBatch(job.batch),
                                    call_options));
  (void)result;
  ++counters_.batches_sent;
  counters_.descriptors_pushed += job.batch.entries.size();
  return Status::OK();
}

void Rereplicator::Tick() {
  for (const ViewChange& change : membership_->TakeChanges()) {
    PlanSweep(change);
  }
  if (jobs_.empty()) return;
  // One bounded push per tick keeps the event loop responsive; the
  // queue drains across iterations.
  Job job = std::move(jobs_.front());
  jobs_.pop_front();
  if (!Contains(membership_->AliveAddresses(), job.to)) {
    // The destination fell out of the view while queued; a fresh
    // sweep for its departure is already planned or coming.
    ++counters_.jobs_dropped;
    return;
  }
  const Status sent = SendJob(job, kCallDeadlineMs);
  if (sent.ok()) return;
  ++counters_.push_failures;
  if (++job.attempts < kMaxAttempts) {
    jobs_.push_back(std::move(job));
  } else {
    ++counters_.jobs_dropped;
  }
}

Status Rereplicator::PullPartition() {
  const auto succ = membership_->Successor();
  if (!succ.has_value()) return Status::OK();  // alone: nothing to pull
  const auto pred = membership_->Predecessor();
  PullBucketsRequest req;
  req.hi = membership_->self_id();
  // (predecessor, self]: the arc this node now owns. Replica copies of
  // preceding arcs arrive via the existing members' push sweeps.
  req.lo = pred.has_value() ? RingView::IdOf(*pred) : req.hi;
  TcpTransport::CallOptions call_options;
  call_options.deadline_ms = kCallDeadlineMs;
  ASSIGN_OR_RETURN(TcpTransport::CallResult result,
                   transport_->Call(*succ, MsgType::kPullBuckets,
                                    EncodePullBucketsRequest(req),
                                    call_options));
  ASSIGN_OR_RETURN(HandoffBatch batch, DecodeHandoffBatch(result.body));
  ASSIGN_OR_RETURN(const size_t applied, service_->ApplyHandoff(batch));
  counters_.descriptors_pulled += applied;
  return Status::OK();
}

Status Rereplicator::HandoffAll() {
  const auto succ = membership_->Successor();
  if (!succ.has_value()) return Status::OK();  // alone: nowhere to hand off
  const auto entries = service_->SnapshotEntries();
  const auto started = std::chrono::steady_clock::now();
  Status last = Status::OK();
  for (size_t off = 0; off < entries.size(); off += kBatchEntries) {
    // Shrink each call's deadline to the remaining wall-clock budget;
    // once the budget is gone the drain stops. Everything unsent is
    // still in the WAL, and the survivors re-replicate the arcs once
    // the failure detector notices the departure.
    double call_deadline = kCallDeadlineMs;
    if (config_.handoff_deadline_ms > 0.0) {
      const double elapsed =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - started)
              .count();
      const double remaining = config_.handoff_deadline_ms - elapsed;
      if (remaining <= 0.0) {
        return Status::IOError("handoff drain ran out of its " +
                               std::to_string(config_.handoff_deadline_ms) +
                               "ms budget");
      }
      call_deadline = std::min(call_deadline, remaining);
    }
    Job job;
    job.to = *succ;
    const size_t end = std::min(off + kBatchEntries, entries.size());
    job.batch.entries.assign(entries.begin() + static_cast<long>(off),
                             entries.begin() + static_cast<long>(end));
    const Status sent = SendJob(job, call_deadline);
    if (!sent.ok()) {
      ++counters_.push_failures;
      // An unreachable successor fails every later batch the same way;
      // abort the drain rather than burning the budget batch by batch.
      if (sent.IsUnavailable()) return sent;
      last = sent;
    }
  }
  return last;
}

}  // namespace rpc
}  // namespace p2prange
