#include "rpc/ring_client.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>

#include "common/memory.h"
#include "rpc/membership.h"
#include "rpc/multi_op.h"

namespace p2prange {
namespace rpc {

namespace {

/// Seed of the retry-jitter stream: fixed, so a client's backoff
/// schedule is reproducible run to run.
constexpr uint64_t kRetryJitterSeed = 0x5e41c1ed5eedULL;

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

RingClient::RingClient(RingView view, LshScheme lsh, RingClientOptions options)
    : view_(std::move(view)),
      lsh_(std::make_unique<LshScheme>(std::move(lsh))),
      options_(std::move(options)),
      transport_(options_.transport),
      retry_rng_(kRetryJitterSeed) {
  for (const auto& [id, addr] : view_.members()) {
    transport_.Register(addr);
  }
}

Result<std::unique_ptr<RingClient>> RingClient::Make(
    const std::vector<NetAddress>& members, RingClientOptions options) {
  RETURN_NOT_OK(options.fault.Validate());
  if (options.descriptor_replication < 1) {
    return Status::InvalidArgument("descriptor_replication must be >= 1");
  }
  ASSIGN_OR_RETURN(RingView view, RingView::Make(members));
  ASSIGN_OR_RETURN(LshScheme lsh, LshScheme::Make(options.lsh));
  return WrapUnique(
      new RingClient(std::move(view), std::move(lsh), std::move(options)));
}

Result<std::string> RingClient::CallWithPolicy(const NetAddress& to,
                                               MsgType type,
                                               const std::string& body) {
  const FaultPolicy& policy = options_.fault;
  const auto started = std::chrono::steady_clock::now();
  Transport::CallOptions call_options;
  call_options.deadline_ms = options_.deadline_ms;
  double wait_ms = policy.backoff_base_ms;
  Status last;
  for (int attempt = 0; attempt <= policy.max_retries; ++attempt) {
    if (attempt > 0) {
      // Real wall-clock backoff before the retransmission, spread by
      // the policy's jitter so synchronized clients desynchronize
      // instead of stampeding a recovering peer.
      const double sleep_ms =
          wait_ms * (1.0 - policy.backoff_jitter +
                     policy.backoff_jitter * retry_rng_.NextDouble());
      if (policy.op_budget_ms > 0.0 &&
          ElapsedMs(started) + sleep_ms >= policy.op_budget_ms) {
        return Status(last.code(),
                      last.message() + " (op budget of " +
                          std::to_string(policy.op_budget_ms) +
                          "ms exhausted after " + std::to_string(attempt) +
                          " attempts)");
      }
      // Pump, don't sleep: other pipelined calls' responses keep
      // draining (parked for their own waits) while this one backs
      // off, so one flaky peer cannot freeze the rest of a lookup.
      transport_.PumpFor(sleep_ms);
      wait_ms = std::min(wait_ms * policy.backoff_multiplier,
                         policy.backoff_max_ms);
      ++transport_.mutable_rpc_stats().retransmits;
    }
    if (policy.op_budget_ms > 0.0) {
      // The last attempt before the budget line gets only what's left
      // of it, so the operation as a whole lands inside the budget.
      const double remaining = policy.op_budget_ms - ElapsedMs(started);
      call_options.deadline_ms = std::min(options_.deadline_ms, remaining);
      if (call_options.deadline_ms <= 0.0) {
        return last.ok() ? Status::IOError("op budget exhausted") : last;
      }
    }
    auto result = transport_.Call(NetAddress{}, to, type, body, call_options);
    if (result.ok()) return std::move(result->body);
    last = result.status();
    // Only transient losses are worth retrying; an Unavailable peer
    // stays unavailable for the duration of this call.
    if (!last.IsIOError()) return last;
  }
  return last;
}

Status RingClient::RefreshView() {
  // A gossip exchange with an empty entry list is a pure read of the
  // peer's membership table. Any reachable member will do; a static
  // ring answers NotImplemented and the view is left untouched.
  Transport::CallOptions call_options;
  call_options.deadline_ms = options_.deadline_ms;
  std::vector<NetAddress> contacts;
  for (const auto& [id, addr] : view_.members()) contacts.push_back(addr);
  Status last = Status::Unavailable("no members to refresh the view from");
  for (const NetAddress& contact : contacts) {
    auto result = transport_.Call(NetAddress{}, contact, MsgType::kGossip,
                                  EncodeViewMessage({}), call_options);
    if (!result.ok()) {
      last = result.status();
      continue;
    }
    auto entries = DecodeViewMessage(result->body);
    if (!entries.ok()) {
      last = entries.status();
      continue;
    }
    std::vector<NetAddress> alive;
    for (const MemberEntry& e : *entries) {
      if (e.status == MemberStatus::kAlive) alive.push_back(e.addr);
    }
    auto fresh = RingView::Make(alive);
    if (!fresh.ok()) {
      last = fresh.status();
      continue;
    }
    for (const NetAddress& a : alive) transport_.Register(a);
    view_ = std::move(*fresh);
    return Status::OK();
  }
  return last;
}

void RingClient::LearnMember(const NetAddress& addr) {
  if (view_.Contains(addr)) return;
  std::vector<NetAddress> members{addr};
  for (const auto& [id, a] : view_.members()) members.push_back(a);
  auto fresh = RingView::Make(members);
  // An identifier collision keeps the old view: routing to the wrong
  // half of a collision is worse than one more redirect.
  if (!fresh.ok()) return;
  transport_.Register(addr);
  view_ = std::move(*fresh);
}

Status RingClient::Publish(const PartitionKey& key, const NetAddress& holder,
                           PublishStats* stats) {
  std::vector<uint32_t> ids;
  lsh_->IdentifiersInto(key.range, &ids);
  StoreDescriptorRequest req;
  req.descriptor.key = key;
  req.descriptor.holder = holder;
  for (const uint32_t id : ids) {
    req.bucket = id;
    const std::string body = EncodeStoreDescriptorRequest(req);
    // Distinct addresses that accepted the bucket — a set, not a
    // count, because a wrong-owner redirect can land on a member that
    // is itself one of our replicas and a redirected store must not
    // count as two copies.
    std::set<NetAddress> stored_at;
    Status last;
    for (const NetAddress& replica :
         view_.Replicas(id, options_.descriptor_replication)) {
      NetAddress target = replica;
      auto result = CallWithPolicy(target, MsgType::kStoreDescriptor, body);
      if (!result.ok() && result.status().IsOutOfRange()) {
        // The replica's view says this bucket lives elsewhere (a
        // member joined since our refresh): follow the redirect.
        if (const auto owner = ParseWrongOwner(result.status().message())) {
          LearnMember(*owner);
          target = *owner;
          if (stats != nullptr) ++stats->redirects;
          result = CallWithPolicy(target, MsgType::kStoreDescriptor, body);
        }
      }
      if (result.ok()) {
        stored_at.insert(target);
      } else {
        last = result.status();
      }
    }
    // Replication tolerates partial failure; a bucket stored nowhere
    // is a lost publish and must surface.
    if (stored_at.empty()) {
      return Status(last.code(), "bucket " + std::to_string(id) + " of " +
                                     key.ToString() +
                                     " stored nowhere: " + last.message());
    }
    if (stats != nullptr) {
      ++stats->buckets;
      stats->copies_stored += static_cast<int>(stored_at.size());
    }
  }
  return Status::OK();
}

Status RingClient::StorePartition(const PartitionKey& key,
                                  const Relation& tuples,
                                  const NetAddress& holder) {
  StorePartitionRequest req;
  req.key = key;
  req.tuples = tuples;
  return CallWithPolicy(holder, MsgType::kStorePartition,
                        EncodeStorePartitionRequest(req))
      .status();
}

Result<Relation> RingClient::FetchPartition(const PartitionKey& key,
                                            const NetAddress& holder) {
  ASSIGN_OR_RETURN(std::string body,
                   CallWithPolicy(holder, MsgType::kFetchPartition,
                                  EncodeFetchPartitionRequest(key)));
  wire::Decoder dec(body);
  ASSIGN_OR_RETURN(Relation rel, wire::DecodeRelation(&dec));
  return rel;
}

Result<LiveLookupOutcome> RingClient::Lookup(const PartitionKey& query) {
  LiveLookupOutcome out;
  lsh_->IdentifiersInto(query.range, &out.identifiers);
  const size_t l = out.identifiers.size();

  ProbeBucketRequest req;
  req.query = query;
  req.criterion = options_.criterion;

  // First wave, pipelined: every group's probe goes to its bucket's
  // primary owner before any response is awaited. Probes sharing an
  // owner coalesce into one kMultiOp frame (batch_probes); a batch of
  // one stays a plain kProbeBucket.
  struct Probe {
    NetAddress owner;
    std::string body;
    uint64_t call_id = 0;
    bool started = false;
    size_t batch = SIZE_MAX;  ///< index into batches, SIZE_MAX = solo
    size_t slot = 0;          ///< this probe's position in the batch
  };
  struct Batch {
    NetAddress owner;
    std::vector<size_t> groups;  ///< probe indices, in op order
    uint64_t call_id = 0;
    bool started = false;
    bool waited = false;
    /// Filled at wait time when the whole batch round trip succeeded.
    std::optional<MultiOpResponse> response;
  };
  std::vector<Probe> probes(l);
  std::vector<Batch> batches;
  for (size_t g = 0; g < l; ++g) {
    req.bucket = out.identifiers[g];
    probes[g].owner = view_.Owner(out.identifiers[g]);
    probes[g].body = EncodeProbeBucketRequest(req);
  }
  if (options_.batch_probes) {
    std::map<NetAddress, size_t> batch_of;
    for (size_t g = 0; g < l; ++g) {
      auto [it, fresh] = batch_of.try_emplace(probes[g].owner, batches.size());
      if (fresh) {
        batches.push_back(Batch{});
        batches.back().owner = probes[g].owner;
      }
      batches[it->second].groups.push_back(g);
    }
  }
  for (Batch& batch : batches) {
    if (batch.groups.size() < 2) continue;  // solo probes ship plain
    MultiOpRequest mreq;
    for (size_t i = 0; i < batch.groups.size(); ++i) {
      const size_t g = batch.groups[i];
      mreq.ops.push_back(MultiOp{MsgType::kProbeBucket, probes[g].body});
      probes[g].batch = static_cast<size_t>(&batch - batches.data());
      probes[g].slot = i;
    }
    auto started = transport_.StartCall(batch.owner, MsgType::kMultiOp,
                                        EncodeMultiOpRequest(mreq));
    if (started.ok()) {
      batch.call_id = *started;
      batch.started = true;
      out.batched_probes += static_cast<int>(batch.groups.size());
    }
  }
  for (size_t g = 0; g < l; ++g) {
    if (probes[g].batch != SIZE_MAX) continue;
    auto started = transport_.StartCall(probes[g].owner, MsgType::kProbeBucket,
                                        probes[g].body);
    if (started.ok()) {
      probes[g].call_id = *started;
      probes[g].started = true;
    }
  }

  std::vector<MatchCandidate> candidates;
  std::set<std::string> candidates_seen;
  bool refreshed = false;  // at most one view refresh per lookup

  auto collect = [&](const std::string& body) -> Status {
    ASSIGN_OR_RETURN(std::optional<MatchCandidate> candidate,
                     DecodeProbeBucketResponse(body));
    if (!candidate.has_value()) return Status::OK();
    const std::string key = candidate->descriptor.key.ToString() + "@" +
                            candidate->descriptor.holder.ToString();
    if (candidates_seen.insert(key).second) {
      candidates.push_back(std::move(*candidate));
    }
    return Status::OK();
  };

  for (size_t g = 0; g < l; ++g) {
    Probe& probe = probes[g];
    bool answered = false;
    const auto probe_started = std::chrono::steady_clock::now();

    if (probe.batch != SIZE_MAX) {
      Batch& batch = batches[probe.batch];
      if (batch.started && !batch.waited) {
        // First probe of the batch to be collected pays the wait; its
        // siblings read their slots from the decoded response.
        batch.waited = true;
        auto waited = transport_.WaitCall(batch.owner, batch.call_id,
                                          options_.deadline_ms);
        if (waited.ok()) {
          auto decoded = DecodeMultiOpResponse(waited->body);
          if (decoded.ok() && decoded->results.size() == batch.groups.size()) {
            batch.response = std::move(*decoded);
          }
        }
      }
      if (batch.response.has_value()) {
        const MultiOpResult& slot = batch.response->results[probe.slot];
        if (slot.status == StatusCode::kOk) {
          answered = collect(slot.body).ok();
        }
        // A non-OK slot (redirect, shed, decode error) falls through
        // to the per-replica path below, which knows how to follow
        // redirects and fail over.
      }
    } else if (probe.started) {
      auto waited = transport_.WaitCall(probe.owner, probe.call_id,
                                        options_.deadline_ms);
      if (waited.ok()) {
        answered = collect(waited->body).ok();
      }
    }

    // Retry the owner under the fault policy, then fail over to the
    // bucket's replicas — the live analogue of the simulator's
    // owner-then-successors probe sequence. A wrong-owner redirect
    // from any replica is followed (and its member learned) at once.
    auto probe_replicas = [&](bool* answered_out) {
      const auto replicas = view_.Replicas(out.identifiers[g],
                                           options_.descriptor_replication);
      for (size_t r = 0; r < replicas.size() && !*answered_out; ++r) {
        auto result =
            CallWithPolicy(replicas[r], MsgType::kProbeBucket, probe.body);
        if (!result.ok() && result.status().IsOutOfRange()) {
          if (const auto owner = ParseWrongOwner(result.status().message())) {
            LearnMember(*owner);
            ++out.redirects;
            result = CallWithPolicy(*owner, MsgType::kProbeBucket, probe.body);
          }
        }
        if (!result.ok()) continue;
        *answered_out = collect(*result).ok();
        if (*answered_out && r > 0) ++out.failovers;
      }
    };
    if (!answered) probe_replicas(&answered);

    // Every replica of this bucket failed: our view may predate a
    // wave of churn. Refresh it from the ring's gossip (once per
    // lookup) and give the probe one more round at the new owners.
    if (!answered && !refreshed) {
      refreshed = true;
      if (RefreshView().ok()) {
        ++out.view_refreshes;
        probe_replicas(&answered);
      }
    }

    if (!answered) ++out.probes_failed;
    // Wall clock this probe actually consumed, whatever path it took —
    // the first-wave wait, retries with their backoff, failover,
    // redirects, the view refresh. (Summing transport round-trip
    // latencies instead misses every one of those but the first.)
    out.latency_ms += ElapsedMs(probe_started);
  }

  // The simulator's ranking rule, from the same function.
  RankCandidates(&candidates);
  out.ranked = std::move(candidates);
  return out;
}

Result<double> RingClient::Ping(const NetAddress& node) {
  Transport::CallOptions call_options;
  call_options.deadline_ms = options_.deadline_ms;
  ASSIGN_OR_RETURN(Transport::CallResult result,
                   transport_.Call(NetAddress{}, node, MsgType::kPing, "",
                                   call_options));
  return result.latency_ms;
}

Result<std::string> RingClient::NodeMetrics(const NetAddress& node) {
  return CallWithPolicy(node, MsgType::kMetrics, "");
}

}  // namespace rpc
}  // namespace p2prange
