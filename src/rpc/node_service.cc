#include "rpc/node_service.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/memory.h"

#include "rpc/membership.h"
#include "rpc/multi_op.h"
#include "wire/serde.h"

namespace p2prange {
namespace rpc {

namespace {

// Doubles cross the wire as their IEEE-754 bit pattern in a varint, so
// a probe's similarity survives the trip exactly (no text round-trip).
uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Status ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + tmp + " for writing");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename " + tmp + " -> " + path + " failed");
  }
  return Status::OK();
}

}  // namespace

// --------------------------------------------------------------------------
// Protocol bodies
// --------------------------------------------------------------------------

std::string EncodeStoreDescriptorRequest(const StoreDescriptorRequest& req) {
  wire::Encoder enc;
  enc.PutVarint(req.bucket);
  wire::EncodePartitionDescriptor(req.descriptor, &enc);
  return enc.Take();
}

Result<StoreDescriptorRequest> DecodeStoreDescriptorRequest(
    std::string_view body) {
  wire::Decoder dec(body);
  StoreDescriptorRequest req;
  ASSIGN_OR_RETURN(uint64_t bucket, dec.Varint());
  if (bucket > UINT32_MAX) {
    return Status::InvalidArgument("bucket id out of range");
  }
  req.bucket = static_cast<chord::ChordId>(bucket);
  ASSIGN_OR_RETURN(req.descriptor, wire::DecodePartitionDescriptor(&dec));
  if (!dec.AtEnd()) return Status::InvalidArgument("trailing request bytes");
  return req;
}

std::string EncodeProbeBucketRequest(const ProbeBucketRequest& req) {
  wire::Encoder enc;
  enc.PutVarint(req.bucket);
  wire::EncodePartitionKey(req.query, &enc);
  enc.PutU8(static_cast<uint8_t>(req.criterion));
  return enc.Take();
}

Result<ProbeBucketRequest> DecodeProbeBucketRequest(std::string_view body) {
  wire::Decoder dec(body);
  ProbeBucketRequest req;
  ASSIGN_OR_RETURN(uint64_t bucket, dec.Varint());
  if (bucket > UINT32_MAX) {
    return Status::InvalidArgument("bucket id out of range");
  }
  req.bucket = static_cast<chord::ChordId>(bucket);
  ASSIGN_OR_RETURN(req.query, wire::DecodePartitionKey(&dec));
  ASSIGN_OR_RETURN(uint8_t crit, dec.U8());
  if (crit > static_cast<uint8_t>(MatchCriterion::kContainment)) {
    return Status::InvalidArgument("unknown match criterion " +
                                   std::to_string(crit));
  }
  req.criterion = static_cast<MatchCriterion>(crit);
  if (!dec.AtEnd()) return Status::InvalidArgument("trailing request bytes");
  return req;
}

std::string EncodeProbeBucketResponse(const std::optional<MatchCandidate>& c) {
  wire::Encoder enc;
  enc.PutU8(c.has_value() ? 1 : 0);
  if (c.has_value()) {
    wire::EncodePartitionDescriptor(c->descriptor, &enc);
    enc.PutVarint(DoubleBits(c->similarity));
    enc.PutU8(c->exact ? 1 : 0);
  }
  return enc.Take();
}

Result<std::optional<MatchCandidate>> DecodeProbeBucketResponse(
    std::string_view body) {
  wire::Decoder dec(body);
  ASSIGN_OR_RETURN(uint8_t found, dec.U8());
  if (found > 1) return Status::InvalidArgument("bad probe-found flag");
  if (found == 0) {
    if (!dec.AtEnd()) return Status::InvalidArgument("trailing response bytes");
    return std::optional<MatchCandidate>();
  }
  MatchCandidate c;
  ASSIGN_OR_RETURN(c.descriptor, wire::DecodePartitionDescriptor(&dec));
  ASSIGN_OR_RETURN(uint64_t bits, dec.Varint());
  c.similarity = BitsDouble(bits);
  ASSIGN_OR_RETURN(uint8_t exact, dec.U8());
  if (exact > 1) return Status::InvalidArgument("bad probe-exact flag");
  c.exact = exact == 1;
  if (!dec.AtEnd()) return Status::InvalidArgument("trailing response bytes");
  return std::optional<MatchCandidate>(std::move(c));
}

std::string EncodeStorePartitionRequest(const StorePartitionRequest& req) {
  wire::Encoder enc;
  wire::EncodePartitionKey(req.key, &enc);
  wire::EncodeRelation(req.tuples, &enc);
  return enc.Take();
}

Result<StorePartitionRequest> DecodeStorePartitionRequest(
    std::string_view body) {
  wire::Decoder dec(body);
  StorePartitionRequest req;
  ASSIGN_OR_RETURN(req.key, wire::DecodePartitionKey(&dec));
  ASSIGN_OR_RETURN(req.tuples, wire::DecodeRelation(&dec));
  if (!dec.AtEnd()) return Status::InvalidArgument("trailing request bytes");
  return req;
}

std::string EncodeFetchPartitionRequest(const PartitionKey& key) {
  wire::Encoder enc;
  wire::EncodePartitionKey(key, &enc);
  return enc.Take();
}

Result<PartitionKey> DecodeFetchPartitionRequest(std::string_view body) {
  wire::Decoder dec(body);
  ASSIGN_OR_RETURN(PartitionKey key, wire::DecodePartitionKey(&dec));
  if (!dec.AtEnd()) return Status::InvalidArgument("trailing request bytes");
  return key;
}

std::string EncodePullBucketsRequest(const PullBucketsRequest& req) {
  wire::Encoder enc;
  enc.PutVarint(req.lo);
  enc.PutVarint(req.hi);
  return enc.Take();
}

Result<PullBucketsRequest> DecodePullBucketsRequest(std::string_view body) {
  wire::Decoder dec(body);
  PullBucketsRequest req;
  ASSIGN_OR_RETURN(uint64_t lo, dec.Varint());
  ASSIGN_OR_RETURN(uint64_t hi, dec.Varint());
  if (lo > UINT32_MAX || hi > UINT32_MAX) {
    return Status::InvalidArgument("pull interval out of id space");
  }
  req.lo = static_cast<chord::ChordId>(lo);
  req.hi = static_cast<chord::ChordId>(hi);
  if (!dec.AtEnd()) return Status::InvalidArgument("trailing request bytes");
  return req;
}

std::string EncodeHandoffBatch(const HandoffBatch& batch) {
  wire::Encoder enc;
  wire::EncodeBucketEntries(batch.entries, &enc);
  return enc.Take();
}

Result<HandoffBatch> DecodeHandoffBatch(std::string_view body) {
  wire::Decoder dec(body);
  HandoffBatch batch;
  ASSIGN_OR_RETURN(batch.entries,
                   wire::DecodeBucketEntries(&dec, kMaxHandoffEntries));
  return batch;
}

// --------------------------------------------------------------------------
// NodeService
// --------------------------------------------------------------------------

NodeService::NodeService(const NetAddress& self, NodeServiceOptions options)
    : self_(self),
      id_(RingView::IdOf(self)),
      options_(std::move(options)),
      store_(std::make_unique<store::DurableDescriptorStore>(
          options_.store_capacity)) {}

Result<std::unique_ptr<NodeService>> NodeService::Make(
    const NetAddress& self, NodeServiceOptions options) {
  std::unique_ptr<NodeService> service =
      WrapUnique(new NodeService(self, std::move(options)));
  if (!service->options_.wal_dir.empty()) {
    RETURN_NOT_OK(service->LoadDurable());
  }
  return service;
}

Status NodeService::LoadDurable() {
  // Exclusive hold for the whole recovery: it rewrites the WAL image,
  // replays it into the store, and re-flushes. Nothing else can run
  // yet (Make has not returned), but the mutation path holds the same
  // lock it always does — surfaced by the annotation pass, which
  // rejected the unlocked store access here.
  WriterMutexLock lock(&data_mu_);
  const std::string& dir = options_.wal_dir;
  std::string wal_image;
  if (ReadFile(dir + "/wal.bin", &wal_image).ok()) {
    store_->wal().mutable_image() = std::move(wal_image);
  }
  bool any_snapshot = false;
  for (size_t i = 0; i < store::SnapshotStore::kNumSlots; ++i) {
    std::string slot;
    if (ReadFile(dir + "/snap" + std::to_string(i) + ".bin", &slot).ok()) {
      store_->snapshots().mutable_slot(i) = std::move(slot);
      any_snapshot = true;
    }
  }
  if (!store_->wal().image().empty() || any_snapshot) {
    recovery_ = store_->Recover();
    // Recover() re-checkpoints; persist the cleaned-up images so the
    // next incarnation starts from them.
    RETURN_NOT_OK(SaveDurable());
  }
  return Status::OK();
}

Status NodeService::SaveDurable() {
  if (options_.wal_dir.empty()) return Status::OK();
  const std::string& dir = options_.wal_dir;
  const store::SnapshotStore& snapshots = store_->snapshots();
  for (size_t i = 0; i < store::SnapshotStore::kNumSlots; ++i) {
    if (snapshots.writes(i) == flushed_slot_writes_[i]) continue;
    RETURN_NOT_OK(WriteFileAtomic(dir + "/snap" + std::to_string(i) + ".bin",
                                  snapshots.slot(i)));
    flushed_slot_writes_[i] = snapshots.writes(i);
  }
  return WriteFileAtomic(dir + "/wal.bin", store_->wal().image());
}

Result<std::string> NodeService::Handle(MsgType type, std::string_view body) {
  switch (type) {
    case MsgType::kPing:
      ++counters_.pings;
      return std::string(body);  // echo
    case MsgType::kStoreDescriptor:
      return HandleStoreDescriptor(body);
    case MsgType::kProbeBucket:
      return HandleProbeBucket(body);
    case MsgType::kStorePartition:
      return HandleStorePartition(body);
    case MsgType::kFetchPartition:
      return HandleFetchPartition(body);
    case MsgType::kMetrics:
      // Only the node block: the daemon answers kMetrics itself with
      // the full document it writes to --metrics_json.
      return MetricsJson();
    case MsgType::kJoin:
    case MsgType::kLeave:
    case MsgType::kNotify:
    case MsgType::kGetNeighbors:
    case MsgType::kGossip:
      return HandleMembership(type, body);
    case MsgType::kPullBuckets:
      return HandlePullBuckets(body);
    case MsgType::kHandoff:
      return HandleHandoff(body);
    case MsgType::kMultiOp:
      return HandleMultiOp(body);
  }
  ++counters_.bad_requests;
  return Status::InvalidArgument("unhandled message type");
}

Result<std::string> NodeService::HandleMembership(MsgType type,
                                                  std::string_view body) {
  if (membership_ == nullptr) {
    // A static deployment: the caller learns this ring does not speak
    // membership and falls back to its configured view.
    return Status::NotImplemented("membership not enabled on " +
                                  self_.ToString());
  }
  switch (type) {
    case MsgType::kJoin:
      return membership_->HandleJoin(body);
    case MsgType::kLeave:
      return membership_->HandleLeave(body);
    case MsgType::kNotify:
      return membership_->HandleNotify(body);
    case MsgType::kGetNeighbors:
      return membership_->HandleGetNeighbors(body);
    case MsgType::kGossip:
      return membership_->HandleGossip(body);
    default:
      ++counters_.bad_requests;
      return Status::InvalidArgument("not a membership message");
  }
}

void NodeService::PublishRedirectRing() {
  std::shared_ptr<const RingView> fresh;
  if (membership_ != nullptr && membership_->num_alive() >= 2) {
    auto ring = membership_->AliveRing();
    if (ring.ok()) {
      fresh = std::make_shared<const RingView>(std::move(*ring));
    }
  }
  MutexLock lock(&ring_mu_);
  redirect_ring_ = std::move(fresh);
}

std::optional<NetAddress> NodeService::RedirectFor(
    chord::ChordId bucket) const {
  std::shared_ptr<const RingView> ring;
  {
    MutexLock lock(&ring_mu_);
    ring = redirect_ring_;
  }
  if (ring == nullptr) return std::nullopt;
  const std::vector<NetAddress> replicas =
      ring->Replicas(bucket, options_.descriptor_replication);
  for (const NetAddress& r : replicas) {
    if (r == self_) return std::nullopt;
  }
  return replicas.front();
}

Status NodeService::InsertDescriptor(chord::ChordId bucket,
                                     const PartitionDescriptor& descriptor) {
  WriterMutexLock lock(&data_mu_);
  store_->Insert(bucket, descriptor);
  ++counters_.descriptors_stored;
  return SaveDurable();
}

Result<std::string> NodeService::HandlePullBuckets(std::string_view body) {
  auto req = DecodePullBucketsRequest(body);
  if (!req.ok()) {
    ++counters_.bad_requests;
    return req.status();
  }
  HandoffBatch batch;
  {
    ReaderMutexLock lock(&data_mu_);
    for (auto& [bucket, descriptor] : store_->store().EntriesOldestFirst()) {
      if (!chord::InOpenClosed(req->lo, req->hi, bucket)) continue;
      if (batch.entries.size() >= kMaxHandoffEntries) break;
      batch.entries.emplace_back(bucket, std::move(descriptor));
    }
  }
  ++counters_.buckets_pulled;
  return EncodeHandoffBatch(batch);
}

Result<size_t> NodeService::ApplyHandoff(const HandoffBatch& batch) {
  {
    WriterMutexLock lock(&data_mu_);
    for (const auto& [bucket, descriptor] : batch.entries) {
      store_->Insert(bucket, descriptor);
      ++counters_.descriptors_stored;
    }
    // One durable flush for the whole batch, not one per descriptor —
    // handoff happens under churn, when write amplification hurts most.
    RETURN_NOT_OK(SaveDurable());
  }
  ++counters_.handoffs_received;
  counters_.handoff_descriptors += batch.entries.size();
  return batch.entries.size();
}

Result<std::string> NodeService::HandleHandoff(std::string_view body) {
  auto batch = DecodeHandoffBatch(body);
  if (!batch.ok()) {
    ++counters_.bad_requests;
    return batch.status();
  }
  ASSIGN_OR_RETURN(const size_t applied, ApplyHandoff(*batch));
  wire::Encoder enc;
  enc.PutVarint(applied);
  return enc.Take();
}

Result<std::string> NodeService::HandleStoreDescriptor(std::string_view body) {
  auto req = DecodeStoreDescriptorRequest(body);
  if (!req.ok()) {
    ++counters_.bad_requests;
    return req.status();
  }
  // A store reaching a non-replica means the publisher's view is
  // stale (a member joined between its refresh and this call): teach
  // it the real owner instead of accepting a misplaced descriptor.
  if (const auto owner = RedirectFor(req->bucket)) {
    ++counters_.redirects_sent;
    return Status::OutOfRange(WrongOwnerMessage(*owner));
  }
  RETURN_NOT_OK(InsertDescriptor(req->bucket, req->descriptor));
  wire::Encoder enc;
  {
    ReaderMutexLock lock(&data_mu_);
    enc.PutVarint(store_->store().num_descriptors());
  }
  return enc.Take();
}

Result<std::string> NodeService::HandleProbeBucket(std::string_view body) {
  auto req = DecodeProbeBucketRequest(body);
  if (!req.ok()) {
    ++counters_.bad_requests;
    return req.status();
  }
  ++counters_.probes_served;
  std::optional<MatchCandidate> best;
  {
    ReaderMutexLock lock(&data_mu_);
    best = store_->store().BestMatch(req->bucket, req->query, req->criterion);
  }
  // Descriptors are immutable, so anything we still hold is a correct
  // answer even if ownership moved; redirect only an *empty* miss on a
  // bucket that is no longer ours — the data, if any, lives at the
  // new owner.
  if (!best.has_value()) {
    if (const auto owner = RedirectFor(req->bucket)) {
      ++counters_.redirects_sent;
      return Status::OutOfRange(WrongOwnerMessage(*owner));
    }
  }
  if (best.has_value()) ++counters_.probe_hits;
  return EncodeProbeBucketResponse(best);
}

Result<std::string> NodeService::HandleStorePartition(std::string_view body) {
  auto req = DecodeStorePartitionRequest(body);
  if (!req.ok()) {
    ++counters_.bad_requests;
    return req.status();
  }
  ++counters_.partitions_stored;
  {
    WriterMutexLock lock(&data_mu_);
    partitions_[req->key] = std::move(req->tuples);
  }
  return std::string();
}

Result<std::string> NodeService::HandleFetchPartition(std::string_view body) {
  auto key = DecodeFetchPartitionRequest(body);
  if (!key.ok()) {
    ++counters_.bad_requests;
    return key.status();
  }
  ReaderMutexLock lock(&data_mu_);
  auto it = partitions_.find(*key);
  if (it == partitions_.end()) {
    ++counters_.partitions_fetched;  // the miss still served a request
    return Status::NotFound("no partition " + key->ToString() + " at " +
                            self_.ToString());
  }
  ++counters_.partitions_fetched;
  wire::Encoder enc;
  wire::EncodeRelation(it->second, &enc);
  return enc.Take();
}

Result<std::string> NodeService::HandleMultiOp(std::string_view body) {
  auto req = DecodeMultiOpRequest(body);
  if (!req.ok()) {
    ++counters_.bad_requests;
    return req.status();
  }
  // One slot per sub-op, in order; a failing sub-op (bad body,
  // wrong-owner redirect, miss) fails its own slot and the rest of the
  // batch still serves. The decoder already refused non-batchable
  // types, so each dispatch below stays on the data path.
  MultiOpResponse resp;
  resp.results.reserve(req->ops.size());
  for (const MultiOp& op : req->ops) {
    auto r = Handle(op.type, op.body);
    MultiOpResult slot;
    if (r.ok()) {
      slot.body = std::move(*r);
    } else {
      slot.status = r.status().code();
      slot.body = r.status().message();
    }
    resp.results.push_back(std::move(slot));
  }
  ++counters_.multi_ops;
  return EncodeMultiOpResponse(resp);
}

std::string NodeService::MetricsJson(std::string_view extra) const {
  std::string out = "{\"node\":{";
  out += "\"addr\":\"" + self_.ToString() + "\"";
  out += ",\"id\":" + std::to_string(id_);
  out += ",\"pings\":" + std::to_string(counters_.pings);
  out += ",\"descriptors_stored\":" +
         std::to_string(counters_.descriptors_stored);
  out += ",\"probes_served\":" + std::to_string(counters_.probes_served);
  out += ",\"probe_hits\":" + std::to_string(counters_.probe_hits);
  out += ",\"partitions_stored\":" +
         std::to_string(counters_.partitions_stored);
  out += ",\"partitions_fetched\":" +
         std::to_string(counters_.partitions_fetched);
  out += ",\"bad_requests\":" + std::to_string(counters_.bad_requests);
  out += ",\"handoffs_received\":" +
         std::to_string(counters_.handoffs_received);
  out += ",\"handoff_descriptors\":" +
         std::to_string(counters_.handoff_descriptors);
  out += ",\"buckets_pulled\":" + std::to_string(counters_.buckets_pulled);
  out += ",\"redirects_sent\":" + std::to_string(counters_.redirects_sent);
  out += ",\"multi_ops\":" + std::to_string(counters_.multi_ops);
  {
    ReaderMutexLock lock(&data_mu_);
    out += ",\"store_descriptors\":" +
           std::to_string(store_->store().num_descriptors());
    out +=
        ",\"store_buckets\":" + std::to_string(store_->store().num_buckets());
    out += ",\"wal_bytes\":" + std::to_string(store_->wal().image().size());
    out += ",\"checkpoints\":" + std::to_string(store_->checkpoints());
  }
  out += ",\"recovered_descriptors\":" +
         std::to_string(recovery_.descriptors_restored);
  out += ",\"recovery_wal_replayed\":" +
         std::to_string(recovery_.wal_records_replayed);
  out += '}';
  out += extra;
  out += "}";
  return out;
}

}  // namespace rpc
}  // namespace p2prange
