#include "rpc/ring_client.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
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

/// The member a wrong-owner redirect names; nullopt for any other
/// status.
std::optional<NetAddress> RedirectOf(const Status& status) {
  if (!status.IsOutOfRange()) return std::nullopt;
  return ParseWrongOwner(status.message());
}

}  // namespace

RingClient::RingClient(RingView view, LshScheme lsh, RingClientOptions options)
    : view_(std::move(view)),
      lsh_(std::make_unique<LshScheme>(std::move(lsh))),
      options_(std::move(options)),
      transport_(options_.transport),
      retry_rng_(kRetryJitterSeed) {}

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
  TcpTransport::CallOptions call_options;
  call_options.deadline_ms = options_.deadline_ms;
  double wait_ms = FaultPolicy::kBackoffBaseMs;
  Status last;
  for (int attempt = 0; attempt <= policy.max_retries; ++attempt) {
    if (attempt > 0) {
      // Real wall-clock backoff before the retransmission, spread by
      // the policy's jitter so synchronized clients desynchronize
      // instead of stampeding a recovering peer.
      const double sleep_ms =
          wait_ms * (1.0 - FaultPolicy::kBackoffJitter +
                     FaultPolicy::kBackoffJitter * retry_rng_.NextDouble());
      if (policy.op_budget_ms > 0.0 &&
          ElapsedMs(started) + sleep_ms >= policy.op_budget_ms) {
        return Status(last.code(),
                      last.message() + " (op budget of " +
                          std::to_string(policy.op_budget_ms) +
                          "ms exhausted after " + std::to_string(attempt) +
                          " attempts)");
      }
      // Pump, don't sleep: other pipelined calls' responses keep
      // draining (filed for their own waits) while this one backs
      // off, so one flaky peer cannot freeze the rest of a lookup.
      transport_.PumpFor(sleep_ms);
      wait_ms = std::min(wait_ms * FaultPolicy::kBackoffMultiplier,
                         FaultPolicy::kBackoffMaxMs);
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
    auto result = transport_.Call(to, type, body, call_options);
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
  TcpTransport::CallOptions call_options;
  call_options.deadline_ms = options_.deadline_ms;
  std::vector<NetAddress> contacts;
  for (const auto& [id, addr] : view_.members()) contacts.push_back(addr);
  Status last = Status::Unavailable("no members to refresh the view from");
  for (const NetAddress& contact : contacts) {
    auto result = transport_.Call(contact, MsgType::kGossip,
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
  view_ = std::move(*fresh);
}

Status RingClient::Publish(const PartitionKey& key, const NetAddress& holder,
                           PublishStats* stats) {
  std::vector<uint32_t> ids;
  lsh_->IdentifiersInto(key.range, &ids);
  StoreDescriptorRequest req;
  req.descriptor.key = key;
  req.descriptor.holder = holder;
  // One store per (bucket, replica), in that order, all in one wave.
  std::vector<WaveCall> stores;
  std::vector<size_t> bucket_of;
  for (size_t b = 0; b < ids.size(); ++b) {
    req.bucket = ids[b];
    const std::string body = EncodeStoreDescriptorRequest(req);
    for (const NetAddress& replica :
         view_.Replicas(ids[b], options_.descriptor_replication)) {
      stores.push_back(WaveCall{replica, MsgType::kStoreDescriptor, body});
      bucket_of.push_back(b);
    }
  }
  std::vector<Result<std::string>> results = FirstWave(stores, nullptr);

  // Distinct addresses that accepted each bucket — a set, not a
  // count, because a wrong-owner redirect can land on a member that
  // is itself one of our replicas and a redirected store must not
  // count as two copies.
  std::vector<std::set<NetAddress>> stored_at(ids.size());
  std::vector<Status> last(ids.size());
  int redirects = 0;
  for (size_t i = 0; i < stores.size(); ++i) {
    NetAddress target = stores[i].to;
    Result<std::string>& result = results[i];
    // A lost frame, a shed, a batch the replica rejected wholesale:
    // the store is asked again there, under the FaultPolicy.
    if (!result.ok() && !RedirectOf(result.status())) {
      result = CallWithPolicy(target, MsgType::kStoreDescriptor,
                              stores[i].body);
    }
    // The replica's view says this bucket lives elsewhere (a member
    // joined since our refresh): follow the redirect.
    if (const auto owner = FollowRedirect(MsgType::kStoreDescriptor,
                                          stores[i].body, &result,
                                          &redirects)) {
      target = *owner;
    }
    if (result.ok()) {
      stored_at[bucket_of[i]].insert(target);
    } else {
      last[bucket_of[i]] = result.status();
    }
  }
  if (stats != nullptr) stats->redirects += redirects;
  for (size_t b = 0; b < ids.size(); ++b) {
    // Replication tolerates partial failure; a bucket stored nowhere
    // is a lost publish and must surface.
    if (stored_at[b].empty()) {
      return Status(last[b].code(), "bucket " + std::to_string(ids[b]) +
                                        " of " + key.ToString() +
                                        " stored nowhere: " +
                                        last[b].message());
    }
    if (stats != nullptr) {
      ++stats->buckets;
      stats->copies_stored += static_cast<int>(stored_at[b].size());
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

  // First wave: every group's probe to its bucket's primary owner.
  ProbeBucketRequest req;
  req.query = query;
  req.criterion = options_.criterion;
  std::vector<WaveCall> probes;
  probes.reserve(l);
  for (const uint32_t id : out.identifiers) {
    req.bucket = id;
    probes.push_back(WaveCall{view_.Owner(id), MsgType::kProbeBucket,
                              EncodeProbeBucketRequest(req)});
  }
  const auto wave_started = std::chrono::steady_clock::now();
  std::vector<Result<std::string>> first =
      FirstWave(probes, &out.batched_probes);
  out.latency_ms += ElapsedMs(wave_started);

  std::vector<MatchCandidate> candidates;
  bool refreshed = false;  // at most one view refresh per lookup

  auto collect = [&](const std::string& body) -> Status {
    ASSIGN_OR_RETURN(std::optional<MatchCandidate> candidate,
                     DecodeProbeBucketResponse(body));
    if (candidate.has_value()) {
      AddCandidateOnce(std::move(*candidate), &candidates);
    }
    return Status::OK();
  };

  for (size_t g = 0; g < l; ++g) {
    const std::string& body = probes[g].body;
    bool answered = false;
    const auto probe_started = std::chrono::steady_clock::now();

    // The first-wave answer is the owner's attempt: a redirect is
    // followed at once, and a shed or a refused connection moves on to
    // the next replica without asking the owner again. Only a lost
    // frame (IOError) or an answer the client could not use sends the
    // owner the probe again, under the fault policy.
    std::optional<NetAddress> attempted;
    Result<std::string>& result = first[g];
    if (!result.ok() &&
        (RedirectOf(result.status()) || result.status().IsUnavailable() ||
         result.status().IsResourceExhausted())) {
      attempted = probes[g].to;
      FollowRedirect(MsgType::kProbeBucket, body, &result, &out.redirects);
    }
    if (result.ok()) answered = collect(*result).ok();

    // Retry the owner under the fault policy, then fail over to the
    // bucket's replicas — the live analogue of the simulator's
    // owner-then-successors probe sequence. A wrong-owner redirect
    // from any replica is followed (and its member learned) at once.
    auto probe_replicas = [&](const std::optional<NetAddress>& skip) {
      const auto replicas = view_.Replicas(out.identifiers[g],
                                           options_.descriptor_replication);
      for (size_t r = 0; r < replicas.size() && !answered; ++r) {
        if (replicas[r] == skip) continue;
        auto retried = CallWithPolicy(replicas[r], MsgType::kProbeBucket, body);
        FollowRedirect(MsgType::kProbeBucket, body, &retried, &out.redirects);
        if (!retried.ok()) continue;
        answered = collect(*retried).ok();
        if (answered && r > 0) ++out.failovers;
      }
    };
    if (!answered) probe_replicas(attempted);

    // Every replica of this bucket failed: our view may predate a
    // wave of churn. Refresh it from the ring's gossip (once per
    // lookup) and give the probe one more round at the new owners.
    if (!answered && !refreshed) {
      refreshed = true;
      if (RefreshView().ok()) {
        ++out.view_refreshes;
        probe_replicas(std::nullopt);
      }
    }

    if (!answered) ++out.probes_failed;
    // Wall clock this probe actually consumed, whatever path it took —
    // retries with their backoff, failover, redirects, the view
    // refresh — on top of the first wave's, charged above. (Summing
    // transport round-trip latencies instead misses every one of those
    // but the first.)
    out.latency_ms += ElapsedMs(probe_started);
  }

  // The simulator's ranking rule, from the same function.
  RankCandidates(&candidates);
  out.ranked = std::move(candidates);
  return out;
}

std::vector<Result<std::string>> RingClient::FirstWave(
    const std::vector<WaveCall>& calls, int* batched) {
  // The calls of each frame, in call order: one frame per member with
  // batch_probes, else one per call.
  std::vector<std::vector<size_t>> frames;
  std::map<NetAddress, size_t> frame_of;
  for (size_t i = 0; i < calls.size(); ++i) {
    const auto [it, fresh] = frame_of.try_emplace(calls[i].to, frames.size());
    if (options_.batch_probes && !fresh) {
      frames[it->second].push_back(i);
    } else {
      frames.push_back({i});
    }
  }

  // Every frame's deadline starts as it is sent, so the whole wave is
  // bounded by about one deadline, not one per frame awaited in turn.
  TcpTransport::CallOptions call_options;
  call_options.deadline_ms = options_.deadline_ms;
  std::vector<Result<uint64_t>> call_ids;
  call_ids.reserve(frames.size());
  for (const std::vector<size_t>& frame : frames) {
    const WaveCall& call = calls[frame.front()];
    if (frame.size() == 1) {
      call_ids.push_back(
          transport_.StartCall(call.to, call.type, call.body, call_options));
      continue;
    }
    MultiOpRequest req;
    for (const size_t i : frame) {
      req.ops.push_back(MultiOp{calls[i].type, calls[i].body});
    }
    call_ids.push_back(transport_.StartCall(
        call.to, MsgType::kMultiOp, EncodeMultiOpRequest(req), call_options));
    if (call_ids.back().ok() && batched != nullptr) {
      *batched += static_cast<int>(frame.size());
    }
  }

  std::vector<Result<std::string>> results(
      calls.size(), Status::Internal("not answered"));
  for (size_t f = 0; f < frames.size(); ++f) {
    const std::vector<size_t>& frame = frames[f];
    Result<std::string> answer = [&]() -> Result<std::string> {
      ASSIGN_OR_RETURN(const uint64_t call_id, call_ids[f]);
      ASSIGN_OR_RETURN(TcpTransport::CallResult waited,
                       transport_.WaitCall(call_id));
      return std::move(waited.body);
    }();
    if (answer.ok() && frame.size() > 1) {
      auto decoded = DecodeMultiOpResponse(*answer);
      if (decoded.ok() && decoded->results.size() == frame.size()) {
        for (size_t k = 0; k < frame.size(); ++k) {
          MultiOpResult& slot = decoded->results[k];
          results[frame[k]] =
              slot.status == StatusCode::kOk
                  ? Result<std::string>(std::move(slot.body))
                  : Result<std::string>(
                        Status(slot.status, std::move(slot.body)));
        }
        continue;
      }
      answer = decoded.ok() ? Status::InvalidArgument(
                                  "multi-op answer has " +
                                  std::to_string(decoded->results.size()) +
                                  " slots for " +
                                  std::to_string(frame.size()) + " ops")
                            : decoded.status();
    }
    for (const size_t i : frame) results[i] = answer;
  }
  return results;
}

std::optional<NetAddress> RingClient::FollowRedirect(
    MsgType type, const std::string& body, Result<std::string>* result,
    int* redirects) {
  if (result->ok()) return std::nullopt;
  std::optional<NetAddress> owner = RedirectOf(result->status());
  if (!owner.has_value()) return std::nullopt;
  LearnMember(*owner);
  ++*redirects;
  *result = CallWithPolicy(*owner, type, body);
  return owner;
}

Result<double> RingClient::Ping(const NetAddress& node) {
  TcpTransport::CallOptions call_options;
  call_options.deadline_ms = options_.deadline_ms;
  ASSIGN_OR_RETURN(TcpTransport::CallResult result,
                   transport_.Call(node, MsgType::kPing, "", call_options));
  return result.latency_ms;
}

Result<std::string> RingClient::NodeMetrics(const NetAddress& node) {
  return CallWithPolicy(node, MsgType::kMetrics, "");
}

}  // namespace rpc
}  // namespace p2prange
