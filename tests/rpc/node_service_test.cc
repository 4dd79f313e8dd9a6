// The server half of a peer without sockets: the ring view, the
// protocol codecs, and NodeService::Handle serving stores, probes,
// batches and metrics — concurrently, across a restart from its
// on-disk WAL and snapshot files, and with wrong-owner redirects
// decided from the published ring.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "rpc/membership.h"
#include "rpc/multi_op.h"
#include "rpc/node_service.h"
#include "rpc/tcp_transport.h"
#include "store/snapshot.h"
#include "tests/support/live_harness.h"

namespace p2prange {
namespace rpc {
namespace {

NetAddress Addr(uint32_t host, uint16_t port) {
  NetAddress a;
  a.host = host;
  a.port = port;
  return a;
}

// --- RingView ----------------------------------------------------------

TEST(RingViewTest, OwnerIsSuccessorAndWraps) {
  std::vector<NetAddress> members = {Addr(0x7F000001, 7001),
                                     Addr(0x7F000001, 7002),
                                     Addr(0x7F000001, 7003)};
  auto view = RingView::Make(members);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->size(), 3u);
  const auto& sorted = view->members();
  // Exactly at a member id: that member owns it.
  EXPECT_EQ(view->Owner(sorted[1].first), sorted[1].second);
  // Just past a member: the next one owns it.
  EXPECT_EQ(view->Owner(sorted[1].first + 1), sorted[2].second);
  // Past the largest id: wraps to the smallest.
  EXPECT_EQ(view->Owner(sorted[2].first + 1), sorted[0].second);
}

TEST(RingViewTest, ReplicasAreDistinctSuccessors) {
  std::vector<NetAddress> members;
  for (uint16_t p = 0; p < 5; ++p) members.push_back(Addr(0x0A000001, 9000 + p));
  auto view = RingView::Make(members);
  ASSERT_TRUE(view.ok());
  const auto replicas = view->Replicas(view->members()[0].first, 3);
  ASSERT_EQ(replicas.size(), 3u);
  std::set<std::string> distinct;
  for (const auto& r : replicas) distinct.insert(r.ToString());
  EXPECT_EQ(distinct.size(), 3u);
  EXPECT_EQ(replicas[0], view->members()[0].second);
  // More replicas than members: clamped, still distinct.
  EXPECT_EQ(view->Replicas(0, 99).size(), 5u);
}

TEST(RingViewTest, RejectsEmptyAndDuplicateMembers) {
  EXPECT_FALSE(RingView::Make({}).ok());
  const NetAddress a = Addr(1, 2);
  EXPECT_FALSE(RingView::Make({a, a}).ok());
}

// --- Protocol codecs ---------------------------------------------------

TEST(ProtocolCodecTest, ProbeRequestAndResponseRoundTrip) {
  ProbeBucketRequest req;
  req.bucket = 0xCAFEBABE;
  req.query = PartitionKey{"T", "a", Range(10, 90)};
  req.criterion = MatchCriterion::kContainment;
  auto decoded = DecodeProbeBucketRequest(EncodeProbeBucketRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->bucket, req.bucket);
  EXPECT_EQ(decoded->query, req.query);
  EXPECT_EQ(decoded->criterion, req.criterion);

  MatchCandidate c;
  c.descriptor = PartitionDescriptor{req.query, Addr(7, 7)};
  c.similarity = 0.123456789;
  c.exact = true;
  auto resp = DecodeProbeBucketResponse(EncodeProbeBucketResponse(c));
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(resp->has_value());
  EXPECT_EQ((*resp)->descriptor, c.descriptor);
  EXPECT_EQ((*resp)->similarity, c.similarity);  // bit-exact
  EXPECT_TRUE((*resp)->exact);

  auto none = DecodeProbeBucketResponse(
      EncodeProbeBucketResponse(std::nullopt));
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());
}

TEST(ProtocolCodecTest, StoreDescriptorRequestRoundTrip) {
  StoreDescriptorRequest req;
  req.bucket = 42;
  req.descriptor =
      PartitionDescriptor{PartitionKey{"R", "x", Range(5, 6)}, Addr(3, 30)};
  auto decoded =
      DecodeStoreDescriptorRequest(EncodeStoreDescriptorRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->bucket, req.bucket);
  EXPECT_EQ(decoded->descriptor, req.descriptor);
  // Trailing bytes are rejected (a frame is exactly one message).
  EXPECT_FALSE(
      DecodeStoreDescriptorRequest(EncodeStoreDescriptorRequest(req) + "x")
          .ok());
}

// --- NodeService ----------------------------------------------------------

TEST(NodeServiceTest, ServesProtocolOverAnyTransport) {
  const NetAddress node_addr = Addr(0x7F000001, 7100);
  const NetAddress client = Addr(0x7F000001, 7999);
  auto service = NodeService::Make(node_addr, NodeServiceOptions{});
  ASSERT_TRUE(service.ok());

  // Store a descriptor, then probe its bucket.
  StoreDescriptorRequest store;
  store.bucket = 7;
  store.descriptor =
      PartitionDescriptor{PartitionKey{"T", "a", Range(100, 200)}, client};
  auto stored = (*service)->Handle(MsgType::kStoreDescriptor,
                                   EncodeStoreDescriptorRequest(store));
  ASSERT_TRUE(stored.ok());

  ProbeBucketRequest probe;
  probe.bucket = 7;
  probe.query = PartitionKey{"T", "a", Range(110, 190)};
  auto answer = (*service)->Handle(MsgType::kProbeBucket,
                                   EncodeProbeBucketRequest(probe));
  ASSERT_TRUE(answer.ok());
  auto candidate = DecodeProbeBucketResponse(*answer);
  ASSERT_TRUE(candidate.ok());
  ASSERT_TRUE(candidate->has_value());
  EXPECT_EQ((*candidate)->descriptor, store.descriptor);

  // An empty bucket answers "no candidate", not an error.
  probe.bucket = 8;
  auto miss = (*service)->Handle(MsgType::kProbeBucket,
                                 EncodeProbeBucketRequest(probe));
  ASSERT_TRUE(miss.ok());
  auto none = DecodeProbeBucketResponse(*miss);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());

  // Garbage bodies are clean errors, and counted.
  auto bad =
      (*service)->Handle(MsgType::kStoreDescriptor, "\xFF\xFF garbage");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ((*service)->counters().bad_requests, 1u);
  EXPECT_EQ((*service)->counters().descriptors_stored, 1u);
  EXPECT_EQ((*service)->counters().probes_served, 2u);
}

TEST(NodeServiceTest, MetricsJsonIsWellFormedSingleLine) {
  auto service = NodeService::Make(Addr(1, 1), NodeServiceOptions{});
  ASSERT_TRUE(service.ok());
  const std::string json = (*service)->MetricsJson();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.rfind("{\"node\":{", 0), 0u) << json;
  // A caller's sections follow the node block inside the one object.
  const std::string rpc = ",\"rpc\":" + RpcStats{}.ToJson();
  EXPECT_EQ((*service)->MetricsJson(rpc),
            json.substr(0, json.size() - 1) + rpc + "}");
  // Served bare, kMetrics answers with the node block alone.
  auto served = (*service)->Handle(MsgType::kMetrics, "");
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(*served, json);
}

TEST(NodeServiceTest, MultiOpRunsEverySlotAndIsolatesFailures) {
  auto service = NodeService::Make(Addr(1, 1), NodeServiceOptions{});
  ASSERT_TRUE(service.ok());

  StoreDescriptorRequest store;
  store.bucket = 7;
  store.descriptor =
      PartitionDescriptor{PartitionKey{"T", "a", Range(100, 200)}, Addr(9, 9)};
  ProbeBucketRequest probe;
  probe.bucket = 7;
  probe.query = PartitionKey{"T", "a", Range(110, 190)};

  // One batch: a store, a probe of the stored bucket, a garbage body.
  // The garbage fails its own slot only.
  MultiOpRequest batch;
  batch.ops.push_back(
      MultiOp{MsgType::kStoreDescriptor, EncodeStoreDescriptorRequest(store)});
  batch.ops.push_back(
      MultiOp{MsgType::kProbeBucket, EncodeProbeBucketRequest(probe)});
  batch.ops.push_back(MultiOp{MsgType::kProbeBucket, "\xFF\xFF garbage"});

  auto raw = (*service)->Handle(MsgType::kMultiOp,
                                EncodeMultiOpRequest(batch));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto resp = DecodeMultiOpResponse(*raw);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->results.size(), 3u);
  EXPECT_EQ(resp->results[0].status, StatusCode::kOk);
  EXPECT_EQ(resp->results[1].status, StatusCode::kOk);
  auto candidate = DecodeProbeBucketResponse(resp->results[1].body);
  ASSERT_TRUE(candidate.ok());
  ASSERT_TRUE(candidate->has_value());
  EXPECT_EQ((*candidate)->descriptor, store.descriptor);
  EXPECT_NE(resp->results[2].status, StatusCode::kOk);

  EXPECT_EQ((*service)->counters().multi_ops, 1u);
  EXPECT_EQ((*service)->counters().descriptors_stored, 1u);
  // The garbage slot was itself a bad request.
  EXPECT_EQ((*service)->counters().bad_requests, 1u);

  // A batch that does not decode is one more bad request, no partial
  // work.
  EXPECT_FALSE((*service)->Handle(MsgType::kMultiOp, "junk").ok());
  EXPECT_EQ((*service)->counters().bad_requests, 2u);
}

TEST(NodeServiceTest, HandleIsSafeUnderConcurrentWorkers) {
  // The executor hands one Handle() call to each worker thread; the
  // data plane must take interleaved stores, probes, fetches, and
  // metrics reads without tearing. TSan runs this suite.
  auto service = NodeService::Make(Addr(1, 1), NodeServiceOptions{});
  ASSERT_TRUE(service.ok());
  NodeService* raw = service->get();

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([raw, t, &failures] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        StoreDescriptorRequest store;
        store.bucket = static_cast<uint32_t>(i % 17);
        store.descriptor = PartitionDescriptor{
            PartitionKey{"T", "a",
                         Range(t * 1000 + i, t * 1000 + i + 10)},
            Addr(8, static_cast<uint16_t>(t + 1))};
        if (!raw->Handle(MsgType::kStoreDescriptor,
                         EncodeStoreDescriptorRequest(store))
                 .ok()) {
          ++failures;
        }
        ProbeBucketRequest probe;
        probe.bucket = static_cast<uint32_t>(i % 17);
        probe.query = PartitionKey{"T", "a", Range(50, 60)};
        if (!raw->Handle(MsgType::kProbeBucket,
                         EncodeProbeBucketRequest(probe))
                 .ok()) {
          ++failures;
        }
        if (i % 50 == 0) {
          (void)raw->MetricsJson();
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures, 0);
  EXPECT_EQ(raw->counters().descriptors_stored,
            static_cast<uint64_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(raw->counters().probes_served,
            static_cast<uint64_t>(kThreads * kOpsPerThread));
}

// --- The wrong-owner redirect decision ----------------------------------

/// A service whose membership has heard, by gossip, of one other alive
/// member, and a bucket that member owns alone (replication 1).
struct TwoMemberNode {
  static std::unique_ptr<TwoMemberNode> Make() {
    auto node = std::make_unique<TwoMemberNode>();
    auto membership = LiveMembership::Make(node->self, /*incarnation=*/1,
                                           MembershipConfig{},
                                           &node->transport);
    EXPECT_TRUE(membership.ok()) << membership.status().ToString();
    if (!membership.ok()) return nullptr;
    node->membership =
        std::make_unique<LiveMembership>(std::move(*membership));
    EXPECT_TRUE(node->membership
                    ->HandleGossip(EncodeViewMessage(
                        {MemberEntry{node->other, 1, MemberStatus::kAlive}}))
                    .ok());
    auto service = NodeService::Make(node->self, NodeServiceOptions{});
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    if (!service.ok()) return nullptr;
    node->service = std::move(*service);
    node->service->set_membership(node->membership.get());
    // The other member's own identifier is a bucket only it owns.
    node->bucket = RingView::IdOf(node->other);
    auto ring = node->membership->AliveRing();
    EXPECT_TRUE(ring.ok() && ring->Owner(node->bucket) == node->other);
    return node;
  }

  Result<std::string> Store(const PartitionKey& key) {
    StoreDescriptorRequest store;
    store.bucket = bucket;
    store.descriptor = PartitionDescriptor{key, other};
    return service->Handle(MsgType::kStoreDescriptor,
                           EncodeStoreDescriptorRequest(store));
  }

  Result<std::string> Probe(const PartitionKey& query) {
    ProbeBucketRequest probe;
    probe.bucket = bucket;
    probe.query = query;
    return service->Handle(MsgType::kProbeBucket,
                           EncodeProbeBucketRequest(probe));
  }

  const NetAddress self = Addr(0x7F000001, 7100);
  const NetAddress other = Addr(0x7F000001, 7200);
  chord::ChordId bucket = 0;
  TcpTransport transport;  // membership's; nothing here dials it
  std::unique_ptr<LiveMembership> membership;
  std::unique_ptr<NodeService> service;
};

/// True iff `r` is a wrong-owner redirect naming `owner`.
bool RedirectsTo(const Result<std::string>& r, const NetAddress& owner) {
  return !r.ok() && r.status().IsOutOfRange() &&
         ParseWrongOwner(r.status().message()) == owner;
}

TEST(NodeServiceTest, StoreForAnotherMembersBucketIsRedirectedToIt) {
  auto node = TwoMemberNode::Make();
  ASSERT_NE(node, nullptr);
  const auto stored = node->Store(PartitionKey{"T", "a", Range(100, 200)});
  EXPECT_TRUE(RedirectsTo(stored, node->other)) << stored.status().ToString();
  EXPECT_EQ(node->service->counters().redirects_sent, 1u);
  EXPECT_EQ(node->service->counters().descriptors_stored, 0u);
}

TEST(NodeServiceTest, EmptyProbeOfAnotherMembersBucketIsRedirected) {
  auto node = TwoMemberNode::Make();
  ASSERT_NE(node, nullptr);
  const auto probed = node->Probe(PartitionKey{"T", "a", Range(100, 200)});
  EXPECT_TRUE(RedirectsTo(probed, node->other)) << probed.status().ToString();
  EXPECT_EQ(node->service->counters().redirects_sent, 1u);
}

TEST(NodeServiceTest, ProbeThatFindsAMatchIsAnsweredNotRedirected) {
  // Descriptors are immutable, so a copy still held here answers the
  // probe even though the bucket is no longer this node's.
  auto node = TwoMemberNode::Make();
  ASSERT_NE(node, nullptr);
  const PartitionDescriptor held{PartitionKey{"T", "a", Range(100, 200)},
                                 node->other};
  ASSERT_TRUE(node->service->InsertDescriptor(node->bucket, held).ok());
  const auto probed = node->Probe(PartitionKey{"T", "a", Range(110, 190)});
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  auto candidate = DecodeProbeBucketResponse(*probed);
  ASSERT_TRUE(candidate.ok());
  ASSERT_TRUE(candidate->has_value());
  EXPECT_EQ((*candidate)->descriptor, held);
  EXPECT_EQ(node->service->counters().redirects_sent, 0u);
}

TEST(NodeServiceTest, StoreIsKeptOnceTheOwnerLeavesAndTheRingIsRepublished) {
  auto node = TwoMemberNode::Make();
  ASSERT_NE(node, nullptr);
  ASSERT_TRUE(node->membership
                  ->HandleLeave(EncodeViewMessage(
                      {MemberEntry{node->other, 2, MemberStatus::kLeft}}))
                  .ok());
  // The decision reads only the published ring: until the next
  // publish, the departed owner is still named.
  const PartitionKey key{"T", "a", Range(100, 200)};
  EXPECT_TRUE(RedirectsTo(node->Store(key), node->other));
  node->service->PublishRedirectRing();
  const auto stored = node->Store(key);
  EXPECT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(node->service->counters().descriptors_stored, 1u);
}

// Regression for the lock-discipline fix the annotation pass surfaced:
// LoadDurable mutated the store and flushed it without holding
// data_mu_. Harmless in practice only because Make() ran before the
// first worker — the kind of implicit argument the gate exists to
// retire. Recovery must still work end-to-end under the lock.
TEST(NodeServiceTest, DurableRecoveryRestoresDescriptors) {
  auto wal_dir = harness::MakeScratchDir("node_service_wal_");
  ASSERT_TRUE(wal_dir.ok()) << wal_dir.status().ToString();

  NodeServiceOptions options;
  options.wal_dir = *wal_dir;
  const NetAddress self = Addr(9, 90);
  {
    auto service = NodeService::Make(self, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_TRUE((*service)
                    ->InsertDescriptor(
                        11, PartitionDescriptor{
                                PartitionKey{"T", "a", Range(1, 5)}, self})
                    .ok());
    ASSERT_TRUE((*service)
                    ->InsertDescriptor(
                        12, PartitionDescriptor{
                                PartitionKey{"T", "b", Range(6, 9)}, self})
                    .ok());
  }

  // A fresh incarnation over the same wal_dir recovers both entries.
  auto revived = NodeService::Make(self, options);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ((*revived)->recovery().descriptors_restored, 2u);
  const auto entries = (*revived)->SnapshotEntries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, 11u);
  EXPECT_EQ(entries[1].first, 12u);
}

// --- Tears in the daemon's files ---------------------------------------
//
// wal_test and the crash fuzzer damage in-memory images; these damage
// the files a stopped daemon leaves in its wal_dir, then start the next
// incarnation over them. Each insert below logs a 19-byte frame and an
// n-entry snapshot takes 10 + 9n bytes, so the log reaches the last
// snapshot's size after inserts 1, 2, 4 and 7: ten inserts leave
// snap0.bin at seq 4, snap1.bin at seq 7, and records 8-10 in wal.bin.

NodeServiceOptions TenInsertOptions(const std::string& wal_dir) {
  NodeServiceOptions options;
  options.wal_dir = wal_dir;
  return options;
}

void InsertTenDescriptors(const NodeServiceOptions& options) {
  const NetAddress self = Addr(9, 90);
  auto service = NodeService::Make(self, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  for (uint32_t i = 1; i <= 10; ++i) {
    const PartitionKey key{"T", "a", Range(10 * i, 10 * i + 5)};
    ASSERT_TRUE((*service)->InsertDescriptor(i, {key, self}).ok());
  }
}

/// Buckets of the restored entries, oldest first.
std::vector<chord::ChordId> RestoredBuckets(const NodeService& service) {
  std::vector<chord::ChordId> buckets;
  for (const auto& [bucket, descriptor] : service.SnapshotEntries()) {
    buckets.push_back(bucket);
  }
  return buckets;
}

TEST(NodeServiceTest, TornWalFileReplaysItsValidPrefix) {
  auto wal_dir = harness::MakeScratchDir("node_service_tear_");
  ASSERT_TRUE(wal_dir.ok()) << wal_dir.status().ToString();
  const NodeServiceOptions options = TenInsertOptions(*wal_dir);
  ASSERT_NO_FATAL_FAILURE(InsertTenDescriptors(options));

  // Record 10's append was cut short by the crash.
  const std::string wal = *wal_dir + "/wal.bin";
  std::filesystem::resize_file(wal, std::filesystem::file_size(wal) - 3);

  auto revived = NodeService::Make(Addr(9, 90), options);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  const store::RecoveryReport& report = (*revived)->recovery();
  EXPECT_TRUE(report.torn_tail);
  EXPECT_FALSE(report.snapshot_fallback);
  EXPECT_EQ(report.snapshot_entries, 7u);
  EXPECT_EQ(report.wal_records_replayed, 2u);
  EXPECT_EQ(report.descriptors_restored, 9u);
  EXPECT_EQ(RestoredBuckets(**revived),
            (std::vector<chord::ChordId>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
  std::filesystem::remove_all(*wal_dir);
}

TEST(NodeServiceTest, CorruptSnapshotFileFallsBackToTheOlderSlot) {
  auto wal_dir = harness::MakeScratchDir("node_service_tear_");
  ASSERT_TRUE(wal_dir.ok()) << wal_dir.status().ToString();
  const NodeServiceOptions options = TenInsertOptions(*wal_dir);
  ASSERT_NO_FATAL_FAILURE(InsertTenDescriptors(options));

  // Bit rot in the newest checkpoint's payload.
  {
    std::fstream snap(*wal_dir + "/snap1.bin",
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(snap.is_open());
    char byte = 0;
    snap.seekg(kCrc32cFrameHeaderBytes);
    snap.get(byte);
    snap.seekp(kCrc32cFrameHeaderBytes);
    snap.put(static_cast<char>(byte ^ 0x01));
    ASSERT_TRUE(snap.good());
  }

  // The seq-4 slot survives, but the log (records 8-10) no longer
  // connects to it: records 5-7 were truncated at the seq-7 checkpoint.
  auto revived = NodeService::Make(Addr(9, 90), options);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  const store::RecoveryReport& report = (*revived)->recovery();
  EXPECT_TRUE(report.snapshot_fallback);
  EXPECT_TRUE(report.wal_gap);
  EXPECT_EQ(report.descriptors_restored, 4u);
  EXPECT_EQ(RestoredBuckets(**revived),
            (std::vector<chord::ChordId>{1, 2, 3, 4}));
  std::filesystem::remove_all(*wal_dir);
}

// A checkpoint empties the in-memory log. Blocking both slot files'
// temporary paths before insert k makes a checkpointing insert k fail
// between the two kinds of file; whichever k checkpoints, a restart
// must still restore every insert that was acknowledged.
TEST(NodeServiceTest, FailedSlotWriteLosesNoAcknowledgedInsert) {
  const NetAddress self = Addr(9, 90);
  for (uint32_t k = 1; k <= 64; ++k) {
    SCOPED_TRACE("insert " + std::to_string(k));
    auto wal_dir = harness::MakeScratchDir("node_service_order_");
    ASSERT_TRUE(wal_dir.ok()) << wal_dir.status().ToString();
    NodeServiceOptions options;
    options.wal_dir = *wal_dir;
    std::vector<std::string> blocked;
    for (size_t i = 0; i < store::SnapshotStore::kNumSlots; ++i) {
      blocked.push_back(*wal_dir + "/snap" + std::to_string(i) + ".bin.tmp");
    }
    uint32_t acknowledged = 0;
    {
      auto service = NodeService::Make(self, options);
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      for (uint32_t i = 1; i <= k; ++i) {
        if (i == k) {
          for (const std::string& path : blocked) {
            ASSERT_TRUE(std::filesystem::create_directory(path)) << path;
          }
        }
        const PartitionKey key{"T", "a", Range(10 * i, 10 * i + 5)};
        const Status stored = (*service)->InsertDescriptor(i, {key, self});
        ASSERT_TRUE(stored.ok() || i == k) << stored.ToString();
        if (stored.ok()) acknowledged = i;
      }
    }
    for (const std::string& path : blocked) std::filesystem::remove(path);

    auto revived = NodeService::Make(self, options);
    ASSERT_TRUE(revived.ok()) << revived.status().ToString();
    const std::vector<chord::ChordId> restored = RestoredBuckets(**revived);
    ASSERT_GE(restored.size(), acknowledged);
    for (uint32_t i = 1; i <= acknowledged; ++i) {
      EXPECT_EQ(restored[i - 1], i);
    }
    std::filesystem::remove_all(*wal_dir);
  }
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// A checkpoint replaces one slot, so the flush after it writes that
// slot's file alone: with the other slot's temporary path blocked, the
// checkpointing insert still succeeds. After a failed slot write the
// next flush writes the slot it missed, and a restart restores every
// acknowledged insert.
TEST(NodeServiceTest, CheckpointWritesOnlyTheSlotItReplaced) {
  auto wal_dir = harness::MakeScratchDir("node_service_slot_");
  ASSERT_TRUE(wal_dir.ok()) << wal_dir.status().ToString();
  const NodeServiceOptions options = TenInsertOptions(*wal_dir);
  const NetAddress self = Addr(9, 90);
  const std::string snap0 = *wal_dir + "/snap0.bin";
  const std::string blocked = *wal_dir + "/snap1.bin.tmp";
  std::vector<chord::ChordId> acknowledged;
  {
    auto service = NodeService::Make(self, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    auto insert = [&](uint32_t i) {
      const PartitionKey key{"T", "a", Range(10 * i, 10 * i + 5)};
      const Status stored = (*service)->InsertDescriptor(i, {key, self});
      if (stored.ok()) acknowledged.push_back(i);
      return stored;
    };
    // snap1.bin holds the newest checkpoint (seq 7), so insert 11's
    // checkpoint replaces slot 0 and leaves slot 1 as it is.
    for (uint32_t i = 1; i <= 10; ++i) ASSERT_TRUE(insert(i).ok());
    const std::string slot0_before = FileBytes(snap0);
    ASSERT_TRUE(std::filesystem::create_directory(blocked));
    const Status eleventh = insert(11);
    EXPECT_TRUE(eleventh.ok()) << eleventh.ToString();
    EXPECT_NE(FileBytes(snap0), slot0_before) << "insert 11 did not checkpoint";

    // The next checkpoint replaces slot 1, whose write fails; the
    // insert after it, with the path clear, writes the slot.
    uint32_t i = 12;
    while (insert(i).ok()) {
      ASSERT_LT(i, 40u) << "no checkpoint replaced slot 1";
      ++i;
    }
    std::filesystem::remove(blocked);
    ASSERT_TRUE(insert(i + 1).ok());
  }

  auto revived = NodeService::Make(self, options);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  const std::vector<chord::ChordId> restored = RestoredBuckets(**revived);
  for (const chord::ChordId bucket : acknowledged) {
    EXPECT_NE(std::find(restored.begin(), restored.end(), bucket),
              restored.end())
        << "acknowledged insert " << bucket << " lost";
  }
  std::filesystem::remove_all(*wal_dir);
}

}  // namespace
}  // namespace rpc
}  // namespace p2prange
